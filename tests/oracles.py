"""Independent reference computations used to cross-check the package.

Everything here is deliberately written in a different style from the
library (loops instead of LAPACK, rational arithmetic where possible) so
that agreement between the two routes is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mmlab.errors import InputDomainError, PathBlowupError
from mmlab.integrands import IntegrandSpec
from mmlab.linalg import (
    Spectrum,
    check_rectangular,
    check_symmetric,
    schatten_from_eigenvalues,
    stacked_eigenvalues,
    sym_eigen,
    symmetrize,
)
import mmlab.simulate as simulate_module
from mmlab.simulate import EulerScheme, TimeGrid, Trajectory, simulate_block


def jacobi_eigenvalues(a: np.ndarray, sweeps: int = 100, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, descending.

    Pure-Python reference, independent of numpy.linalg.  Converges
    quadratically; `sweeps` is a hard cap and the loop exits early once
    the off-diagonal mass drops below tol * ||A||_F.
    """
    m = np.array(a, dtype=np.float64, copy=True)
    n = m.shape[0]
    if n == 1:
        return m[0, 0:1].copy()
    scale = math.sqrt(sum(m[i, j] ** 2 for i in range(n) for j in range(n)))
    threshold = tol * max(scale, 1e-300)
    for _ in range(sweeps):
        off = math.sqrt(2.0 * sum(m[i, j] ** 2 for i in range(n) for j in range(i + 1, n)))
        if off <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) <= 1e-300 * scale:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                m = rot.T @ m @ rot
                m = 0.5 * (m + m.T)
    return np.sort(np.diag(m))[::-1].copy()


def jacobi_spectral_norm(a: np.ndarray) -> float:
    w = jacobi_eigenvalues(a)
    return max(abs(w[0]), abs(w[-1]))


def jacobi_schatten(a: np.ndarray, p: float) -> float:
    w = jacobi_eigenvalues(a)
    return float(np.sum(np.abs(w) ** p) ** (1.0 / p))


def power_iteration_norm(a: np.ndarray, iters: int = 2000, seed: int = 7) -> float:
    """Spectral norm of a symmetric matrix by power iteration on A^2."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[0])
    v /= math.sqrt(float(v @ v))
    norm = 0.0
    for _ in range(iters):
        w = a @ (a @ v)
        norm = math.sqrt(float(w @ w))
        if norm == 0.0:
            return 0.0
        v = w / norm
    # after convergence ||A^2 v|| = lambda_max(A^2) = ||A||^2
    return math.sqrt(norm)


def standard_normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def reflection_sup_tail(u: float, sigma: float = 1.0, t: float = 1.0) -> float:
    """P(sup_{s<=t} B_s >= u) for scalar Brownian motion, by reflection."""
    return 2.0 * (1.0 - standard_normal_cdf(u / (sigma * math.sqrt(t))))


def loop_bootstrap_ci(values, statistic, resamples=1000, confidence=0.99, seed=0):
    """Percentile bootstrap as one Python loop over resamples.

    The reference form of ``mmlab.montecarlo.bootstrap_ci``: each
    resample draws m indices from ``default_rng(seed)``, gathers them
    and evaluates ``statistic`` on the gathered array.  Returns
    (point, lo, hi), widened to contain the point.  ``values`` may be a
    tuple of samples of one length, with ``statistic`` a tuple of one
    statistic each: every resample draws its indices once and gathers
    each sample with them, and the result is a tuple of triples.  A
    constant sample's triple is its point three times.
    """
    joint = isinstance(values, tuple)
    arrs = [np.asarray(v, dtype=np.float64) for v in (values if joint else (values,))]
    stat_fns = statistic if joint else (statistic,)
    m = arrs[0].shape[0]
    stats = np.empty((len(arrs), resamples))
    rng = np.random.default_rng(seed)
    for r in range(resamples):
        idx = rng.integers(0, m, size=m)
        for j, (fn, arr) in enumerate(zip(stat_fns, arrs)):
            stats[j, r] = fn(arr[idx])
    alpha = 0.5 * (1.0 - confidence)
    out = []
    for fn, arr, column in zip(stat_fns, arrs, stats):
        point = float(fn(arr))
        if np.all(arr == arr[0]):
            out.append((point, point, point))
            continue
        lo = float(np.quantile(column, alpha))
        hi = float(np.quantile(column, 1.0 - alpha))
        out.append((point, min(lo, point), max(hi, point)))
    return tuple(out) if joint else out[0]


@dataclass(frozen=True)
class PathSummary:
    """Per-step spectral series of one trajectory and their reductions."""

    sup_spectral: float
    sup_lambda_max: float
    terminal_x: np.ndarray
    terminal_qv: np.ndarray
    qv_norm_series: np.ndarray
    lambda_max_series: np.ndarray
    trajectory: Trajectory

    def schatten_terminal(self, p: float) -> float:
        return jacobi_schatten(self.terminal_x, p)


def summarize(traj: Trajectory) -> PathSummary:
    """Grid series of lambda_max, ||X|| and ||<X>|| along one trajectory."""
    eig_x = stacked_eigenvalues(traj.x)
    eig_qv = stacked_eigenvalues(traj.qv)
    spectral = np.maximum(np.abs(eig_x[:, 0]), np.abs(eig_x[:, -1]))
    return PathSummary(
        sup_spectral=float(spectral.max()),
        sup_lambda_max=float(eig_x[:, -1].max()),
        terminal_x=traj.x[-1],
        terminal_qv=traj.qv[-1],
        qv_norm_series=np.maximum(np.abs(eig_qv[:, 0]), np.abs(eig_qv[:, -1])),
        lambda_max_series=eig_x[:, -1].copy(),
        trajectory=traj,
    )


def exact_constant_path(matrices, t: float, seed) -> np.ndarray:
    """One exact sample of X_t for constant integrands.

    For fixed matrices the integral at time t is the matrix Gaussian
    sum_i g_i * sqrt(t) * H_i with independent standard normals g_i,
    drawn from ``default_rng(seed)``.
    """
    mats = np.asarray(matrices, dtype=np.float64)
    if mats.ndim == 2:
        mats = mats[None]
    if not (math.isfinite(t) and t >= 0.0):
        raise InputDomainError(f"time must be finite and >= 0, got {t}")
    g = np.random.default_rng(seed).standard_normal(mats.shape[0])
    return math.sqrt(t) * np.einsum("i,ikl->kl", g, mats)


def singular_values(a) -> np.ndarray:
    """Singular values of a rectangular matrix, descending.

    From the eigenvalues of the smaller Gram matrix; negative round-off
    is clipped at zero.
    """
    m = check_rectangular(a)
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    w = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    return np.sqrt(np.clip(w[::-1], 0.0, None))


def schatten_norm_rect(a, p: float) -> float:
    """Schatten p-norm of a rectangular matrix over its singular values."""
    s = singular_values(a)
    return float(np.sum(s**p) ** (1.0 / p))


def loewner_leq(a, b, tol: float | None = None) -> bool:
    """Positive semi-definite order: True iff B - A is PSD up to tolerance.

    Default tolerance is 1e-10 * max(1, ||B - A||).
    """
    ma = check_symmetric(a, "A")
    mb = check_symmetric(b, "B")
    if ma.shape != mb.shape:
        raise InputDomainError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    w = np.linalg.eigvalsh(mb - ma)
    if tol is None:
        tol = 1e-10 * max(1.0, abs(w[0]), abs(w[-1]))
    return bool(w[0] >= -tol)


def lambda_max(a) -> float:
    """Largest eigenvalue (signed) of a symmetric matrix."""
    return float(sym_eigen(a, with_basis=False).eigenvalues[0])


def schatten_norm(a, p: float) -> float:
    """Schatten p-norm (sum of |eigenvalue|^p to the 1/p) of a symmetric matrix."""
    w = sym_eigen(a, with_basis=False).eigenvalues
    return float(schatten_from_eigenvalues(w, p))


def reconstruct(spectrum: Spectrum) -> np.ndarray:
    """The symmetric matrix Q diag(w) Q^T a spectrum was computed from."""
    if spectrum.basis is None:
        raise InputDomainError("spectrum was computed without a basis")
    return symmetrize((spectrum.basis * spectrum.eigenvalues) @ spectrum.basis.T)


# --- the per-matrix Euler scheme ----------------------------------------
#
# One path, one step at a time, with the integrand evaluated as N
# matrices at each left endpoint.  mmlab's engine (simulate.EulerScheme)
# uses driver-summed aggregates and path-free precomputations instead;
# the two agree up to float rounding.


@dataclass(frozen=True)
class EvalContext:
    """State visible to the integrand at one grid time (left endpoint).

    ``qv_current`` is positive semi-definite whenever the context comes
    from the simulation scheme; that invariant is maintained by
    construction and asserted in tests, not re-checked here.
    """

    time: float
    x_current: np.ndarray
    qv_current: np.ndarray

    def __post_init__(self):
        if not (self.time >= 0.0 and math.isfinite(self.time)):
            raise InputDomainError(f"context time must be finite and >= 0, got {self.time}")


def evaluate_integrand(spec: IntegrandSpec, ctx: EvalContext) -> np.ndarray:
    """The N matrices H_i at one left endpoint; pure in (spec, ctx).

    Returns a read-only (N, n, n) view or a fresh array; callers must
    not mutate the result.
    """
    x = np.asarray(ctx.x_current)
    if x.shape != (spec.n, spec.n):
        raise InputDomainError(
            f"context state shape {x.shape} does not match spec dimension {spec.n}"
        )
    if spec.family == "time_poly":
        return spec.matrices + ctx.time * spec.slopes
    if spec.family == "path_feedback":
        return spec.matrices + spec.gamma * x[None]
    return spec.matrices


def euler_with_increments(spec: IntegrandSpec, grid: TimeGrid, increments) -> Trajectory:
    """Run the Euler scheme on externally supplied increments.

    Used directly by refinement studies that need the same Brownian
    path at several grid resolutions; raises PathBlowupError as soon as
    the state leaves float range.
    """
    inc = np.asarray(increments, dtype=np.float64)
    if inc.shape != (grid.steps, spec.drivers):
        raise InputDomainError(
            f"increments shape {inc.shape} does not match (steps, drivers) = "
            f"({grid.steps}, {spec.drivers})"
        )
    times = grid.times()
    dt = grid.dt
    n = spec.n
    x = np.zeros((grid.steps + 1, n, n))
    qv = np.zeros((grid.steps + 1, n, n))
    for k in range(grid.steps):
        ctx = EvalContext(time=float(times[k]), x_current=x[k], qv_current=qv[k])
        with np.errstate(over="ignore", invalid="ignore"):
            h = evaluate_integrand(spec, ctx)
            x[k + 1] = x[k] + np.einsum("i,ikl->kl", inc[k], h)
            qv[k + 1] = qv[k] + np.einsum("ikl,ilm->km", h, h) * dt
        if not (np.all(np.isfinite(x[k + 1])) and np.all(np.isfinite(qv[k + 1]))):
            raise PathBlowupError(f"path left float64 range at step {k + 1}")
    return Trajectory(times=times, x=x, qv=qv)


def reference_increments(grid: TimeGrid, drivers: int, seed) -> np.ndarray:
    """(steps, drivers) increments of one path, from its own ``default_rng``.

    The stream contract that ``simulate.brownian_increments`` serves a
    chunk at a time; here numpy seeds the generator itself.
    """
    if drivers < 1:
        raise InputDomainError(f"drivers must be >= 1, got {drivers}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((grid.steps, drivers)) * math.sqrt(grid.dt)


def reference_path(spec: IntegrandSpec, grid: TimeGrid, seed) -> Trajectory:
    """The per-matrix Euler trajectory of one seed's increments."""
    return euler_with_increments(spec, grid, reference_increments(grid, spec.drivers, seed))


def grid_lambda_max(spec: IntegrandSpec, grid: TimeGrid, seeds, levels=()):
    """Grid maxima of lambda_max for a block of path seeds.

    Returns ``(sup, prefix)``: ``sup[j]`` is max_k lambda_max(X_k) of path
    j and ``prefix[j, l]`` the same over the grid indices k >= 1 where
    ||<X>_k|| <= levels[l]; both start from 0, the value at X_0 = 0.
    These are the grid statistics the tail checks used before they moved
    to the Brownian-bridge supremum.  The engine's stepper supplies the
    states and numpy's ``eigvalsh`` the spectra.
    """
    dB = np.stack([reference_increments(grid, spec.drivers, s) for s in seeds])
    sup = np.zeros(len(dB))
    prefix = np.zeros((len(dB), len(levels)))
    for step in EulerScheme(spec, grid).steps(dB):
        lam = np.linalg.eigvalsh(step.x)[:, -1]
        qv_norm = np.abs(np.linalg.eigvalsh(np.broadcast_to(step.qv, step.x.shape))).max(axis=-1)
        np.maximum(sup, lam, out=sup)
        for j, level in enumerate(levels):
            inside = qv_norm <= level
            prefix[inside, j] = np.maximum(prefix[inside, j], lam[inside])
    return sup, prefix


def always_solve_block(spec: IntegrandSpec, grid: TimeGrid, seeds, plan=None):
    """``simulate_block`` with every spectrum solved on every path at every
    step: the one-pass route the engine takes where the dimension has a
    closed form, so no eigenvalue bound ever skips a solve, and ||<X>|| is
    solved exactly instead of bracketed.  It shares every other collector
    method, ``settle`` included, with the certified engine and differs from
    it only in the solve schedule, which the certified engine must leave
    invisible: the two must match bit for bit on every path it does not
    exclude.  An independent check of the bridge arithmetic is
    ``test_bridge_max_matches_trajectory_reference``.
    """

    def exact_inside(self, spectra, s2):
        return np.less_equal.outer(simulate_module._norm(spectra("qv")), self.levels)

    saved = simulate_module.has_closed_form, simulate_module._BridgeTail._inside
    simulate_module.has_closed_form = lambda n: True
    simulate_module._BridgeTail._inside = exact_inside
    try:
        return simulate_block(spec, grid, seeds, plan)
    finally:
        simulate_module.has_closed_form, simulate_module._BridgeTail._inside = saved
