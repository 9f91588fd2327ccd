"""Brownian drivers and Euler construction of the matrix integral.

The process and its quadratic variation are built step by step on a
uniform grid with left-endpoint (Ito) evaluation:

    x[k+1]  = x[k]  + sum_i H_i(t_k, state_k) * dB_k^i
    qv[k+1] = qv[k] + sum_i H_i(t_k, state_k)^2 * dt

Two construction routes exist: :func:`simulate_path` produces a full
:class:`Trajectory` for one seed (reference implementation, used for
trajectory dumps and tests), and :func:`simulate_block` streams many
paths at once, recording only the per-path statistics requested by a
:class:`CollectorPlan`.  Both consume identical per-path increments,
so they agree up to float vectorization order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDomainError, PathBlowupError
from .integrands import (
    IntegrandSpec,
    aggregates,
    deterministic_sum,
    deterministic_sum_squares,
    evaluate_integrand,
    EvalContext,
    feedback_sum,
    feedback_sum_squares,
    is_path_dependent,
)
from .linalg import schatten_from_eigenvalues, schatten_norm, stacked_eigenvalues

DEFAULT_HORIZON = 1.0
DEFAULT_STEPS = 256

# paths processed per vectorized slice inside a block; pure per-path
# arithmetic, so the value affects memory and speed only
_CHUNK = 1024


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with `steps` Euler steps."""

    horizon: float = DEFAULT_HORIZON
    steps: int = DEFAULT_STEPS

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise InputDomainError(f"horizon must be positive and finite, got {self.horizon}")
        if self.steps < 1:
            raise InputDomainError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        """steps+1 grid points; the last one equals horizon exactly."""
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class Trajectory:
    """One realized path of (X, <X>) on the grid; index 0 is t = 0."""

    times: np.ndarray
    x: np.ndarray
    qv: np.ndarray

    def __post_init__(self):
        self.times.flags.writeable = False
        self.x.flags.writeable = False
        self.qv.flags.writeable = False

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def dim(self) -> int:
        return self.x.shape[-1]


def brownian_increments(grid: TimeGrid, drivers: int, seed) -> np.ndarray:
    """(steps, drivers) Gaussian increments of variance dt, fixed by seed."""
    if drivers < 1:
        raise InputDomainError(f"drivers must be >= 1, got {drivers}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((grid.steps, drivers)) * math.sqrt(grid.dt)


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


def simulate_path(spec: IntegrandSpec, grid: TimeGrid, seed) -> Trajectory:
    """One full trajectory for one seed (reference route)."""
    return euler_with_increments(spec, grid, brownian_increments(grid, spec.drivers, seed))


@dataclass(frozen=True)
class PathSummary:
    """Per-path reductions of a trajectory.

    Carries the trajectory so the parametric series (hitting index,
    supermartingale statistic, terminal Schatten norms) can be computed
    on demand.
    """

    sup_spectral: float
    sup_lambda_max: float
    terminal_x: np.ndarray
    terminal_qv: np.ndarray
    qv_norm_series: np.ndarray
    lambda_max_series: np.ndarray
    trajectory: Trajectory = field(repr=False)

    def hit_index(self, u: float) -> int | None:
        return first_hitting_index(self.trajectory, u)

    def supermartingale_series(self, beta: float) -> np.ndarray:
        return supermartingale_series(self.trajectory, beta)

    def schatten_terminal(self, p: float) -> float:
        return schatten_norm(self.terminal_x, p)


def summarize(traj: Trajectory) -> PathSummary:
    eig_x = stacked_eigenvalues(traj.x)
    eig_qv = stacked_eigenvalues(traj.qv)
    spectral = np.maximum(np.abs(eig_x[:, 0]), np.abs(eig_x[:, -1]))
    qv_norms = np.maximum(np.abs(eig_qv[:, 0]), np.abs(eig_qv[:, -1]))
    return PathSummary(
        sup_spectral=float(spectral.max()),
        sup_lambda_max=float(eig_x[:, -1].max()),
        terminal_x=traj.x[-1],
        terminal_qv=traj.qv[-1],
        qv_norm_series=qv_norms,
        lambda_max_series=eig_x[:, -1].copy(),
        trajectory=traj,
    )


def first_hitting_index(traj: Trajectory, u: float) -> int | None:
    """Smallest grid index with lambda_max(x[k]) >= u, or None."""
    if not math.isfinite(u):
        raise InputDomainError(f"hitting level must be finite, got {u}")
    lam = stacked_eigenvalues(traj.x)[:, -1]
    hits = np.nonzero(lam >= u)[0]
    return int(hits[0]) if hits.size else None


def supermartingale_series(traj: Trajectory, beta: float) -> np.ndarray:
    """Tr exp(beta*x[k] - (beta^2/2)*qv[k]) along the grid.

    Starts at the matrix dimension exactly; overflow raises
    PathBlowupError rather than returning infinity.
    """
    if not math.isfinite(beta):
        raise InputDomainError(f"beta must be finite, got {beta}")
    m = beta * traj.x - (0.5 * beta * beta) * traj.qv
    eigs = stacked_eigenvalues(m)
    top = float(eigs.max())
    if top + math.log(traj.dim) > math.log(np.finfo(np.float64).max):
        raise PathBlowupError("supermartingale statistic overflows float64")
    return np.exp(eigs).sum(axis=-1)


def exact_constant_path(matrices, t: float, seed) -> np.ndarray:
    """Discretization-free sample of X_t for constant integrands.

    For fixed matrices the integral at time t is the matrix Gaussian
    sum_i g_i * sqrt(t) * H_i with independent standard normals g_i.
    """
    mats = np.asarray(matrices, dtype=np.float64)
    if mats.ndim == 2:
        mats = mats[None]
    if not (math.isfinite(t) and t >= 0.0):
        raise InputDomainError(f"time must be finite and >= 0, got {t}")
    g = np.random.default_rng(seed).standard_normal(mats.shape[0])
    return math.sqrt(t) * np.einsum("i,ikl->kl", g, mats)


def exact_constant_spectral_norms(matrices, t: float, seed, count: int) -> np.ndarray:
    """Spectral norms of `count` independent exact samples of X_t.

    Vectorized sampler for the constant family; diagonal payloads (the
    diag_basis case) reduce to a max of folded Gaussians, which keeps
    large n cheap.
    """
    mats = np.asarray(matrices, dtype=np.float64)
    if mats.ndim == 2:
        mats = mats[None]
    if count < 1:
        raise InputDomainError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    root_t = math.sqrt(t)
    n = mats.shape[-1]
    diagonal = all(np.array_equal(m, np.diag(np.diag(m))) for m in mats)
    if diagonal:
        diags = np.stack([np.diag(m) for m in mats])
        g = rng.standard_normal((count, mats.shape[0]))
        return np.abs(root_t * (g @ diags)).max(axis=1)
    out = np.empty(count)
    chunk = max(1, 2**22 // (n * n * 8))
    done = 0
    while done < count:
        c = min(chunk, count - done)
        g = rng.standard_normal((c, mats.shape[0]))
        x = root_t * np.einsum("si,ikl->skl", g, mats)
        eigs = stacked_eigenvalues(x)
        out[done : done + c] = np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1]))
        done += c
    return out


def default_checkpoints(steps: int, count: int = 8) -> tuple[int, ...]:
    """`count` grid indices spanning 0..steps, always including both ends."""
    if count < 2 or steps < 1:
        raise InputDomainError("need count >= 2 checkpoints on a grid with steps >= 1")
    raw = {round(j * steps / (count - 1)) for j in range(count)}
    return tuple(sorted(raw))


@dataclass(frozen=True)
class CollectorPlan:
    """What simulate_block should record per path.

    sup/terminal spectral statistics are always produced; everything
    here is opt-in because each item costs eigen work per step.
    ``sigma2_levels`` requests, per level, the running max of
    lambda_max over the prefix where ||qv|| stays <= level (the
    first-hitting event reduces to a threshold on that scalar).
    ``schatten_orders`` are Schatten orders of the terminal x;
    ``quad_schatten_orders`` are orders p for the left-endpoint
    quadrature of ||sum_i H_i^2||_p; ``sum_norm_quad`` adds the
    quadrature of ||sum_i H_i||^2.
    """

    sigma2_levels: tuple[float, ...] = ()
    supermartingale_betas: tuple[float, ...] = ()
    checkpoints: tuple[int, ...] = ()
    schatten_orders: tuple[float, ...] = ()
    quad_schatten_orders: tuple[float, ...] = ()
    sum_norm_quad: bool = False


def _kahan_add(total: np.ndarray, comp: np.ndarray, term: np.ndarray) -> None:
    y = term - comp
    t = total + y
    comp[...] = (t - total) - y
    total[...] = t


def simulate_block(
    spec: IntegrandSpec, grid: TimeGrid, seeds, plan: CollectorPlan | None = None
) -> dict[str, np.ndarray]:
    """Stream a block of paths and return per-path statistic arrays.

    Results for path j depend only on (spec, grid, seeds[j], plan), so
    any partition of a batch into blocks reproduces identical numbers.
    Paths whose state leaves float64 range are zeroed out and flagged
    in the returned ``excluded`` mask instead of raising.
    """
    plan = plan or CollectorPlan()
    seeds = np.asarray(seeds, dtype=np.uint64)
    total = len(seeds)
    K, n, dt = grid.steps, spec.n, grid.dt
    times = grid.times()
    betas = plan.supermartingale_betas
    cps = plan.checkpoints
    if betas and not cps:
        raise InputDomainError("supermartingale betas require checkpoint indices")
    if cps and (min(cps) < 0 or max(cps) > K):
        raise InputDomainError(f"checkpoints must lie in [0, {K}]")
    levels = np.asarray(plan.sigma2_levels, dtype=np.float64)
    feedback = is_path_dependent(spec)
    agg = aggregates(spec)

    out = {
        "sup_lambda_max": np.zeros(total),
        "sup_spectral": np.zeros(total),
        "terminal_spectral": np.zeros(total),
        "terminal_qv_norm": np.zeros(total),
        "trace_x2": np.zeros(total),
        "trace_qv": np.zeros(total),
        "excluded": np.zeros(total, dtype=bool),
    }
    if len(levels):
        out["prefix_max_lambda"] = np.zeros((total, len(levels)))
    if betas:
        out["supermart"] = np.zeros((total, len(betas), len(cps)))
    if plan.schatten_orders:
        out["schatten_terminal"] = np.zeros((total, len(plan.schatten_orders)))
    if plan.quad_schatten_orders:
        out["quad_schatten"] = np.zeros((total, len(plan.quad_schatten_orders)))
    if plan.sum_norm_quad:
        out["sum_norm_quad"] = np.zeros(total)

    # deterministic families: qv and the quadratures are path-free
    det_qv_norms = det_qv = det_quads = det_sum_quad = None
    if not feedback:
        s2_series = deterministic_sum_squares(spec, times[:-1])
        det_qv = np.concatenate([np.zeros((1, n, n)), np.cumsum(s2_series * dt, axis=0)])
        eq = stacked_eigenvalues(det_qv)
        det_qv_norms = np.maximum(np.abs(eq[:, 0]), np.abs(eq[:, -1]))
        if plan.quad_schatten_orders:
            es2 = stacked_eigenvalues(s2_series)
            det_quads = np.array(
                [
                    dt * math.fsum(schatten_from_eigenvalues(es2, order, axis=-1))
                    for order in plan.quad_schatten_orders
                ]
            )
        if plan.sum_norm_quad:
            e1 = stacked_eigenvalues(deterministic_sum(spec, times[:-1]))
            norms1 = np.maximum(np.abs(e1[:, 0]), np.abs(e1[:, -1]))
            det_sum_quad = dt * math.fsum(norms1**2)

    cp_slot = {cp: j for j, cp in enumerate(cps)}
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        idx = slice(start, stop)
        c = stop - start
        dB = np.empty((c, K, spec.drivers))
        for b in range(c):
            dB[b] = brownian_increments(grid, spec.drivers, seeds[start + b])
        x = np.zeros((c, n, n))
        qv = np.zeros((c, n, n)) if feedback else None
        sup_lam = np.zeros(c)
        sup_spec = np.zeros(c)
        prefix = np.zeros((c, len(levels))) if len(levels) else None
        excluded = np.zeros(c, dtype=bool)
        supermart = None
        if betas:
            supermart = np.zeros((c, len(betas), len(cps)))
            if 0 in cp_slot:
                supermart[:, :, cp_slot[0]] = float(n)
        quad_tot = quad_comp = None
        if feedback and plan.quad_schatten_orders:
            quad_tot = np.zeros((c, len(plan.quad_schatten_orders)))
            quad_comp = np.zeros_like(quad_tot)
        snq_tot = snq_comp = None
        if feedback and plan.sum_norm_quad:
            snq_tot = np.zeros(c)
            snq_comp = np.zeros(c)

        for k in range(K):
            if feedback:
                with np.errstate(over="ignore", invalid="ignore"):
                    s2 = feedback_sum_squares(spec, x, agg)
                    # sanitize before any eigen work: a blown-up state must
                    # never reach LAPACK
                    bad = ~np.isfinite(s2).all(axis=(-2, -1))
                    if bad.any():
                        excluded |= bad
                        x[bad] = 0.0
                        qv[bad] = 0.0
                        s2[bad] = 0.0
                    if quad_tot is not None:
                        es2 = stacked_eigenvalues(s2)
                        for j, order in enumerate(plan.quad_schatten_orders):
                            term = dt * schatten_from_eigenvalues(es2, order, axis=-1)
                            _kahan_add(quad_tot[:, j], quad_comp[:, j], term)
                    if snq_tot is not None:
                        e1 = stacked_eigenvalues(feedback_sum(spec, x, agg))
                        term = dt * np.maximum(np.abs(e1[:, 0]), np.abs(e1[:, -1])) ** 2
                        _kahan_add(snq_tot, snq_comp, term)
                    sum_db = dB[:, k, :].sum(axis=1)
                    x = (
                        x
                        + np.einsum("ci,ikl->ckl", dB[:, k, :], spec.matrices)
                        + spec.gamma * sum_db[:, None, None] * x
                    )
                    qv = qv + s2 * dt
                bad = ~(
                    np.isfinite(x).all(axis=(-2, -1)) & np.isfinite(qv).all(axis=(-2, -1))
                )
                if bad.any():
                    excluded |= bad
                    x[bad] = 0.0
                    qv[bad] = 0.0
            else:
                if spec.family == "time_poly":
                    h_k = spec.matrices + times[k] * spec.slopes
                else:
                    h_k = spec.matrices
                x = x + np.einsum("ci,ikl->ckl", dB[:, k, :], h_k)
                bad = ~np.isfinite(x).all(axis=(-2, -1))
                if bad.any():
                    excluded |= bad
                    x[bad] = 0.0

            eigs = stacked_eigenvalues(x)
            lam = eigs[:, -1]
            spc = np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1]))
            np.maximum(sup_lam, lam, out=sup_lam)
            np.maximum(sup_spec, spc, out=sup_spec)
            if prefix is not None:
                if feedback:
                    eq = stacked_eigenvalues(qv)
                    qv_norm = np.maximum(np.abs(eq[:, 0]), np.abs(eq[:, -1]))
                    for j in range(len(levels)):
                        mask = qv_norm <= levels[j]
                        prefix[mask, j] = np.maximum(prefix[mask, j], lam[mask])
                else:
                    for j in range(len(levels)):
                        if det_qv_norms[k + 1] <= levels[j]:
                            prefix[:, j] = np.maximum(prefix[:, j], lam)
            if supermart is not None and (k + 1) in cp_slot:
                qv_here = qv if feedback else det_qv[k + 1]
                for j, beta in enumerate(betas):
                    m = beta * x - (0.5 * beta * beta) * qv_here
                    me = stacked_eigenvalues(m)
                    supermart[:, j, cp_slot[k + 1]] = np.exp(me).sum(axis=-1)

        out["sup_lambda_max"][idx] = sup_lam
        out["sup_spectral"][idx] = sup_spec
        out["terminal_spectral"][idx] = spc
        out["trace_x2"][idx] = (eigs**2).sum(axis=-1)
        if feedback:
            eq = stacked_eigenvalues(qv)
            out["terminal_qv_norm"][idx] = np.maximum(np.abs(eq[:, 0]), np.abs(eq[:, -1]))
            out["trace_qv"][idx] = np.einsum("cii->c", qv)
        else:
            out["terminal_qv_norm"][idx] = det_qv_norms[K]
            out["trace_qv"][idx] = float(np.trace(det_qv[K]))
        if prefix is not None:
            out["prefix_max_lambda"][idx] = prefix
        if supermart is not None:
            bad = ~np.isfinite(supermart).all(axis=(1, 2))
            excluded |= bad
            out["supermart"][idx] = supermart
        if plan.schatten_orders:
            for j, order in enumerate(plan.schatten_orders):
                out["schatten_terminal"][idx, j] = schatten_from_eigenvalues(
                    eigs, order, axis=-1
                )
        if plan.quad_schatten_orders:
            out["quad_schatten"][idx] = quad_tot if feedback else det_quads
        if plan.sum_norm_quad:
            out["sum_norm_quad"][idx] = snq_tot if feedback else det_sum_quad
        out["excluded"][idx] = excluded
    return out
