"""Integrand process families for the matrix stochastic integral.

An integrand is a list of N adapted symmetric-matrix processes
(H_{1,t}, ..., H_{N,t}); the simulated process accumulates
X += sum_i H_i(t, state) * dB_i per step.  Five concrete families are
supported:

* ``constant``       H_i fixed matrices
* ``time_poly``      H_i(t) = A_i + t * B_i
* ``path_feedback``  H_i(t) = A_i + gamma * X_t- (left endpoint)
* ``diag_basis``     H_i = e_i e_i^T with N = n (so sum_i H_i^2 = I)
* ``goe_like``       N fixed draws from a Gaussian orthogonal-type
                     ensemble, frozen at construction from a seed

All evaluation is left-endpoint: the output at grid time t_k depends
only on (t_k, state at t_k), never on later increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError, SpecValidationError
from .linalg import check_symmetric, symmetrize

FAMILIES = ("constant", "time_poly", "path_feedback", "diag_basis", "goe_like")


def _freeze(a: np.ndarray | None) -> np.ndarray | None:
    if a is not None:
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class IntegrandSpec:
    """Declarative description of one integrand family instance.

    ``matrices`` holds the (drivers, n, n) base payload A_i for every
    family; ``slopes`` the B_i for time_poly; ``gamma`` the feedback
    strength for path_feedback; ``seed`` the freeze seed for goe_like.
    ``rect_shape`` is set when the spec was produced by dilating a
    rectangular payload and records the original (rows, cols).
    """

    family: str
    n: int
    drivers: int
    matrices: np.ndarray
    slopes: np.ndarray | None = None
    gamma: float = 0.0
    seed: int | None = None
    rect_shape: tuple[int, int] | None = None

    def __post_init__(self):
        _freeze(self.matrices)
        _freeze(self.slopes)


def validate_spec(spec: IntegrandSpec) -> IntegrandSpec:
    """Validate dimensions, symmetry and finiteness of a spec.

    Returns the spec unchanged on success so factories can end with
    ``return validate_spec(...)``.
    """
    if spec.family not in FAMILIES:
        raise SpecValidationError(f"unknown integrand family '{spec.family}'")
    if spec.n < 1:
        raise SpecValidationError(f"matrix dimension must be >= 1, got {spec.n}")
    if spec.drivers < 1:
        raise SpecValidationError("integrand needs at least one driver (N >= 1)")
    mats = np.asarray(spec.matrices)
    if mats.shape != (spec.drivers, spec.n, spec.n):
        raise SpecValidationError(
            f"payload shape {mats.shape} does not match (N, n, n) = "
            f"({spec.drivers}, {spec.n}, {spec.n})"
        )
    for i in range(spec.drivers):
        _check_payload(mats[i], f"{spec.family} matrix {i}")
    if spec.family == "time_poly":
        if spec.slopes is None:
            raise SpecValidationError("time_poly requires slope matrices")
        slopes = np.asarray(spec.slopes)
        if slopes.shape != mats.shape:
            raise SpecValidationError(
                f"slope shape {slopes.shape} does not match payload shape {mats.shape}"
            )
        for i in range(spec.drivers):
            _check_payload(slopes[i], f"time_poly slope matrix {i}")
    elif spec.slopes is not None:
        raise SpecValidationError(f"family '{spec.family}' does not take slope matrices")
    if spec.family == "path_feedback":
        if not math.isfinite(spec.gamma):
            raise SpecValidationError("path_feedback gamma must be finite")
    elif spec.gamma != 0.0:
        raise SpecValidationError(f"family '{spec.family}' does not take a gamma parameter")
    if spec.family == "diag_basis":
        if spec.drivers != spec.n:
            raise SpecValidationError("diag_basis requires N = n")
        expected = _basis_projectors(spec.n)
        if not np.array_equal(mats, expected):
            raise SpecValidationError("diag_basis payload must be the e_i e_i^T projectors")
    return spec


def _check_payload(m: np.ndarray, name: str) -> None:
    try:
        check_symmetric(m, name=name)
    except InputDomainError as exc:
        raise SpecValidationError(str(exc)) from None


def _basis_projectors(n: int) -> np.ndarray:
    out = np.zeros((n, n, n))
    for i in range(n):
        out[i, i, i] = 1.0
    return out


def constant_spec(matrices) -> IntegrandSpec:
    mats = np.array(matrices, dtype=np.float64)
    if mats.ndim == 2:
        mats = mats[None]
    return validate_spec(
        IntegrandSpec(family="constant", n=mats.shape[-1], drivers=mats.shape[0], matrices=mats)
    )


def time_poly_spec(base, slopes) -> IntegrandSpec:
    a = np.array(base, dtype=np.float64)
    b = np.array(slopes, dtype=np.float64)
    if a.ndim == 2:
        a = a[None]
    if b.ndim == 2:
        b = b[None]
    return validate_spec(
        IntegrandSpec(
            family="time_poly", n=a.shape[-1], drivers=a.shape[0], matrices=a, slopes=b
        )
    )


def path_feedback_spec(base, gamma: float) -> IntegrandSpec:
    a = np.array(base, dtype=np.float64)
    if a.ndim == 2:
        a = a[None]
    return validate_spec(
        IntegrandSpec(
            family="path_feedback",
            n=a.shape[-1],
            drivers=a.shape[0],
            matrices=a,
            gamma=float(gamma),
        )
    )


def diag_basis_spec(n: int) -> IntegrandSpec:
    return validate_spec(
        IntegrandSpec(family="diag_basis", n=n, drivers=n, matrices=_basis_projectors(n))
    )


def goe_like_spec(n: int, drivers: int, seed: int = 0) -> IntegrandSpec:
    """N symmetric Gaussian-ensemble draws frozen from `seed`.

    Entry variances 1/n off-diagonal and 2/n on the diagonal, so the
    spectral norm stays O(1) as n grows.
    """
    if n < 1 or drivers < 1:
        raise SpecValidationError("goe_like requires n >= 1 and N >= 1")
    if seed < 0:
        raise SpecValidationError(f"goe_like requires seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    mats = np.empty((drivers, n, n))
    for i in range(drivers):
        upper = np.triu(rng.standard_normal((n, n)), 1)
        sym = upper + upper.T
        np.fill_diagonal(sym, rng.standard_normal(n) * math.sqrt(2.0))
        mats[i] = sym / math.sqrt(n)
    return validate_spec(
        IntegrandSpec(family="goe_like", n=n, drivers=drivers, matrices=mats, seed=int(seed))
    )


def rect_constant_spec(payloads) -> IntegrandSpec:
    """Constant spec for rectangular payloads via their 0/A/A^T/0 dilations.

    The resulting symmetric process of dimension rows+cols carries
    ``rect_shape`` so norm checks can map back to the rectangular
    quantities.
    """
    from .linalg import hermitian_dilation

    raw = np.array(payloads, dtype=np.float64)
    if raw.ndim == 2:
        raw = raw[None]
    if raw.ndim != 3:
        raise SpecValidationError(f"rectangular payload must be (N, rows, cols), got {raw.shape}")
    n1, n2 = raw.shape[1], raw.shape[2]
    mats = np.stack([hermitian_dilation(raw[i]) for i in range(raw.shape[0])])
    spec = IntegrandSpec(
        family="constant",
        n=n1 + n2,
        drivers=raw.shape[0],
        matrices=mats,
        rect_shape=(n1, n2),
    )
    return validate_spec(spec)


def is_path_dependent(spec: IntegrandSpec) -> bool:
    return spec.family == "path_feedback"


def is_time_dependent(spec: IntegrandSpec) -> bool:
    return spec.family == "time_poly"


@dataclass(frozen=True)
class Aggregates:
    """Driver-summed quantities reused by the vectorized scheme.

    For H_i(t) = A_i + t*B_i the sum of squares is quadratic in t:
    sum_sq_base + t*cross + t^2*sum_sq_slope.
    """

    sum_base: np.ndarray
    sum_sq_base: np.ndarray
    sum_slope: np.ndarray | None = None
    sum_sq_slope: np.ndarray | None = None
    cross: np.ndarray | None = None

    def __post_init__(self):
        _freeze(self.sum_base)
        _freeze(self.sum_sq_base)
        _freeze(self.sum_slope)
        _freeze(self.sum_sq_slope)
        _freeze(self.cross)


def aggregates(spec: IntegrandSpec) -> Aggregates:
    a = spec.matrices
    sum_base = symmetrize(a.sum(axis=0))
    sum_sq_base = symmetrize(np.einsum("ikl,ilm->km", a, a))
    if spec.family != "time_poly":
        return Aggregates(sum_base=sum_base, sum_sq_base=sum_sq_base)
    b = spec.slopes
    cross = np.einsum("ikl,ilm->km", a, b)
    return Aggregates(
        sum_base=sum_base,
        sum_sq_base=sum_sq_base,
        sum_slope=symmetrize(b.sum(axis=0)),
        sum_sq_slope=symmetrize(np.einsum("ikl,ilm->km", b, b)),
        cross=symmetrize(cross + cross.T),
    )


def _scaled(coef, factor):
    """coef * factor, where an exactly zero factor gives 0 even when coef
    left float64 range: the expanded term is then absent from the
    per-matrix sum it stands for, not nan.  A finite coef keeps the plain
    product."""
    out = coef * factor
    if np.isfinite(coef).all():
        return out
    return np.where(factor == 0.0, 0.0, out)


def deterministic_sum_squares(spec: IntegrandSpec, times: np.ndarray) -> np.ndarray:
    """sum_i H_i(t)^2 for each t, shape (len(times), n, n).

    Only valid for families whose integrand is a function of time
    alone; path_feedback must go through :func:`feedback_sum_squares`.
    """
    if is_path_dependent(spec):
        raise InputDomainError("sum of squares is path-dependent for family 'path_feedback'")
    agg = aggregates(spec)
    t = np.asarray(times, dtype=np.float64)
    if spec.family == "time_poly":
        return (
            agg.sum_sq_base[None]
            + _scaled(agg.cross[None], t[:, None, None])
            + _scaled(agg.sum_sq_slope[None], (t ** 2)[:, None, None])
        )
    return np.broadcast_to(agg.sum_sq_base, (len(t),) + agg.sum_sq_base.shape)


def deterministic_sum(spec: IntegrandSpec, times: np.ndarray) -> np.ndarray:
    """sum_i H_i(t) for each t, shape (len(times), n, n)."""
    if is_path_dependent(spec):
        raise InputDomainError("sum of drivers is path-dependent for family 'path_feedback'")
    agg = aggregates(spec)
    t = np.asarray(times, dtype=np.float64)
    if spec.family == "time_poly":
        return agg.sum_base[None] + _scaled(agg.sum_slope[None], t[:, None, None])
    return np.broadcast_to(agg.sum_base, (len(t),) + agg.sum_base.shape)


def feedback_sum_squares(spec: IntegrandSpec, x: np.ndarray, agg: Aggregates) -> np.ndarray:
    """sum_i (A_i + gamma*X)^2 for a batch of states X, shape (..., n, n).

    Expands to sum A_i^2 + gamma*(S_A X + X S_A) + N*gamma^2*X^2 with
    S_A = sum A_i.
    """
    g = spec.gamma
    sx = agg.sum_base @ x
    return (
        agg.sum_sq_base
        + g * (sx + np.swapaxes(sx, -1, -2))
        + _scaled(spec.drivers * g * g, x @ x)
    )


def feedback_sum(spec: IntegrandSpec, x: np.ndarray, agg: Aggregates) -> np.ndarray:
    """sum_i (A_i + gamma*X) for a batch of states X."""
    return agg.sum_base + _scaled(spec.drivers * spec.gamma, x)
