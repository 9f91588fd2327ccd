"""Dense symmetric/rectangular matrix kernels.

Everything here is a pure function of float64 ndarrays.  Symmetric
matrices are plain ``(n, n)`` arrays that are exactly symmetric; use
:func:`symmetrize` to derive the mirror triangle after an operation that
can break exactness.  Eigen-decompositions delegate to LAPACK via
``numpy.linalg``; sorted-descending spectra are returned through
:class:`Spectrum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError, NumericError

# exp() overflows above this; trace_exp refuses to produce silent inf
_LOG_DBL_MAX = math.log(np.finfo(np.float64).max)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Exactly symmetric average 0.5*(a + a.T) (batched on leading axes)."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def check_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate a dense symmetric matrix and return it as float64.

    Raises InputDomainError unless ``a`` is square, finite and exactly
    symmetric.  Exactness is the contract: producers are expected to
    mirror one triangle (see :func:`symmetrize`) rather than rely on
    round-off luck.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputDomainError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputDomainError(f"{name} has non-finite entries")
    if not np.array_equal(m, m.T):
        raise InputDomainError(f"{name} is not symmetric")
    return m


def check_rectangular(a) -> np.ndarray:
    """Validate a dense rectangular matrix (finite entries) as float64."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InputDomainError(f"matrix must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputDomainError("matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, plus the orthogonal eigenbasis.

    ``basis`` columns are eigenvectors aligned with ``eigenvalues``;
    it is None when the decomposition was requested values-only.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False
        if self.basis is not None:
            self.basis.flags.writeable = False


def sym_eigen(a, with_basis: bool = True) -> Spectrum:
    """Full spectral decomposition of a symmetric matrix.

    Deterministic for fixed input.  Non-convergence of the underlying
    LAPACK iteration surfaces as NumericError.
    """
    m = check_symmetric(a)
    try:
        if with_basis:
            w, q = np.linalg.eigh(m)
            return Spectrum(np.ascontiguousarray(w[::-1]), np.ascontiguousarray(q[:, ::-1]))
        w = np.linalg.eigvalsh(m)
        return Spectrum(np.ascontiguousarray(w[::-1]))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver did not converge: {exc}") from exc


def has_closed_form(n: int) -> bool:
    """Whether :func:`stacked_eigenvalues` solves n x n matrices in closed
    form (n <= 2) rather than through LAPACK."""
    return n <= 2


def stacked_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of symmetric matrices.

    Shape ``(..., n, n) -> (..., n)``.  n = 1 and n = 2 use closed
    forms (see :func:`has_closed_form`); everything else goes through
    LAPACK, one matrix at a time, so a matrix's eigenvalues do not
    depend on the rest of the stack.  This is the hot path of the Monte
    Carlo engine.
    """
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, 0:1].copy()
    if n == 2:
        half_sum = 0.5 * (a[..., 0, 0] + a[..., 1, 1])
        radius = np.hypot(0.5 * (a[..., 0, 0] - a[..., 1, 1]), a[..., 0, 1])
        return np.stack([half_sum - radius, half_sum + radius], axis=-1)
    return np.linalg.eigvalsh(a)


def schatten_from_eigenvalues(eigs: np.ndarray, p: float) -> np.ndarray:
    """Schatten p-norm from eigenvalue (or singular value) vectors on the
    last axis.

    Scales by the largest magnitude before powering so large p cannot
    overflow.
    """
    if p < 1:
        raise InputDomainError(f"Schatten order must be >= 1, got {p}")
    mags = np.abs(eigs)
    peak = np.max(mags, axis=-1, keepdims=True)
    safe = np.where(peak > 0.0, peak, 1.0)
    total = np.sum((mags / safe) ** p, axis=-1, keepdims=True)
    out = safe * total ** (1.0 / p)
    out = np.where(peak > 0.0, out, 0.0)
    return np.squeeze(out, axis=-1)


def spectral_norm(a) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    w = sym_eigen(a, with_basis=False).eigenvalues
    return float(max(abs(w[0]), abs(w[-1])))


def matrix_abs(a) -> np.ndarray:
    """Matrix absolute value (A^2)^(1/2): same eigenvectors, |eigenvalues|."""
    spec = sym_eigen(a)
    return symmetrize((spec.basis * np.abs(spec.eigenvalues)) @ spec.basis.T)


def trace_exp(m) -> float:
    """Trace of exp(M) for symmetric M.

    Refuses to return silent infinity: an exponent that would overflow
    float64 raises NumericError.
    """
    # a copy: at n = 1 the spectrum is a negative-stride view, on which
    # numpy's exp skips its vector loop and rounds differently
    w = sym_eigen(m, with_basis=False).eigenvalues.copy()
    if w[0] + math.log(len(w)) > _LOG_DBL_MAX:
        raise NumericError("trace exponential overflows float64")
    return float(np.sum(np.exp(w)))


def matrix_exp_sym(m) -> np.ndarray:
    """exp(M) for symmetric M via its spectral decomposition."""
    spec = sym_eigen(m)
    if spec.eigenvalues[0] > _LOG_DBL_MAX:
        raise NumericError("matrix exponential overflows float64")
    return symmetrize((spec.basis * np.exp(spec.eigenvalues)) @ spec.basis.T)


def hermitian_dilation(a) -> np.ndarray:
    """Symmetric block embedding [[0, A], [A.T, 0]] of a rectangular A."""
    m = check_rectangular(a)
    n1, n2 = m.shape
    out = np.zeros((n1 + n2, n1 + n2))
    out[:n1, n1:] = m
    out[n1:, :n1] = m.T
    return out
