"""Brownian drivers and Euler construction of the matrix integral.

The process and its quadratic variation are built step by step on a
uniform grid with left-endpoint (Ito) evaluation:

    x[k+1]  = x[k]  + sum_i H_i(t_k, state_k) * dB_k^i
    qv[k+1] = qv[k] + sum_i H_i(t_k, state_k)^2 * dt

One stepper, :meth:`EulerScheme.steps`, runs this update on a batch of
increments (paths, steps, drivers).  :func:`simulate_block` feeds it
each chunk of a block and records only the per-path statistics a
:class:`CollectorPlan` asks for; :func:`simulate_path` runs it on one
path and keeps the whole :class:`Trajectory` (trajectory dumps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputDomainError, PathBlowupError
from .integrands import (
    IntegrandSpec,
    aggregates,
    deterministic_sum,
    deterministic_sum_squares,
    feedback_sum,
    feedback_sum_squares,
    is_path_dependent,
)
from .linalg import schatten_from_eigenvalues, stacked_eigenvalues

DEFAULT_HORIZON = 1.0
DEFAULT_STEPS = 256

# paths processed per vectorized slice inside a block; pure per-path
# arithmetic, so the value affects memory and speed only
_CHUNK = 1024
# grid steps per batch of bridge draws; memory and speed only
_BRIDGE_STEPS = 16

MASK64 = (1 << 64) - 1
# splitmix64 increment (golden-ratio constant); counter streams step by it
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


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


class EulerStep(NamedTuple):
    """A batch of paths after Euler step k, i.e. at grid index k + 1.

    ``x`` and ``qv`` are the states at t_{k+1}; ``x_left`` and
    ``s2`` = sum_i H_i(t_k)^2 are the left-endpoint values the step
    used.  For families whose integrand depends on time alone ``qv`` and
    ``s2`` are one (n, n) matrix shared by every path.  ``excluded``
    flags the paths whose state left float64 range; their state is
    carried on as zeros.  It is one array, updated in place.
    """

    k: int
    x_left: np.ndarray
    x: np.ndarray
    qv: np.ndarray
    s2: np.ndarray
    excluded: np.ndarray


class EulerScheme:
    """The left-endpoint Euler update of one integrand on one grid.

    Construction does the path-free work once: the driver aggregates
    and, for families whose integrand depends on time alone, ``s2``
    (sum_i H_i(t_k)^2 at each left endpoint, shape (steps, n, n)) and
    ``qv`` (the quadratic variation on the whole grid, shape
    (steps + 1, n, n)).  For path_feedback both are None.
    """

    def __init__(self, spec: IntegrandSpec, grid: TimeGrid):
        self.spec = spec
        self.grid = grid
        self.feedback = is_path_dependent(spec)
        self.agg = aggregates(spec)
        self.s2 = self.qv = None
        if not self.feedback:
            n = spec.n
            with np.errstate(over="ignore", invalid="ignore"):
                self.s2 = deterministic_sum_squares(spec, grid.times()[:-1])
                self.qv = np.concatenate(
                    [np.zeros((1, n, n)), np.cumsum(self.s2 * grid.dt, axis=0)]
                )

    def steps(self, dB):
        """Yield one :class:`EulerStep` per grid step of the paths driven
        by ``dB`` (paths, steps, drivers), starting from x = qv = 0."""
        spec, grid = self.spec, self.grid
        K, n, dt = grid.steps, spec.n, grid.dt
        if dB.shape[1:] != (K, spec.drivers):
            raise InputDomainError(
                f"increments shape {dB.shape} does not match (paths, steps, drivers) = "
                f"(..., {K}, {spec.drivers})"
            )
        c = dB.shape[0]
        times = grid.times()
        x = np.zeros((c, n, n))
        qv = np.zeros((c, n, n)) if self.feedback else None
        excluded = np.zeros(c, dtype=bool)
        for k in range(K):
            x_left = x
            with np.errstate(over="ignore", invalid="ignore"):
                if self.feedback:
                    s2 = feedback_sum_squares(spec, x, self.agg)
                    # sanitize before any eigen work: a blown-up state must
                    # never reach LAPACK
                    bad = _bad_rows(s2)
                    if bad is not None:
                        excluded |= bad
                        x[bad] = 0.0
                        qv[bad] = 0.0
                        s2[bad] = 0.0
                    sum_db = dB[:, k, :].sum(axis=1)
                    x = (
                        x
                        + np.einsum("ci,ikl->ckl", dB[:, k, :], spec.matrices)
                        + spec.gamma * sum_db[:, None, None] * x
                    )
                    qv = qv + s2 * dt
                    bad = _bad_rows(x, qv)
                else:
                    s2 = self.s2[k]
                    if spec.family == "time_poly":
                        h_k = spec.matrices + times[k] * spec.slopes
                    else:
                        h_k = spec.matrices
                    x = x + np.einsum("ci,ikl->ckl", dB[:, k, :], h_k)
                    bad = _bad_rows(x)
            if bad is not None:
                excluded |= bad
                x[bad] = 0.0
                if self.feedback:
                    qv[bad] = 0.0
            yield EulerStep(
                k, x_left, x, qv if self.feedback else self.qv[k + 1], s2, excluded
            )


def simulate_path(spec: IntegrandSpec, grid: TimeGrid, seed) -> Trajectory:
    """One full trajectory for one seed: the stepper on a single path.

    Raises PathBlowupError at the first step whose state leaves float64
    range.
    """
    n = spec.n
    x = np.zeros((grid.steps + 1, n, n))
    qv = np.zeros((grid.steps + 1, n, n))
    dB = brownian_increments(grid, spec.drivers, seed)[None]
    for step in EulerScheme(spec, grid).steps(dB):
        x[step.k + 1] = step.x
        qv[step.k + 1] = step.qv
        if step.excluded[0] or not np.isfinite(qv[step.k + 1]).all():
            raise PathBlowupError(f"path left float64 range at step {step.k + 1}")
    return Trajectory(times=grid.times(), x=x, qv=qv)


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


def splitmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 avalanche of a uint64 array, in place; returns z.

    Array arithmetic wraps mod 2^64 without overflow warnings.
    """
    tmp = np.empty_like(z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def bridge_exponentials(seeds, steps) -> np.ndarray:
    """Exp(1) draws -log(1 - U), shape (len(steps), len(seeds)).

    U for (path, step k) comes from splitmix64(seed + (k+1)*gamma), its
    top 52 bits as a double in [0, 1): a counter stream pure in (path
    seed, step), so no paths x steps buffer is needed and the path's
    Brownian increments are left untouched.
    """
    offsets = (np.asarray(steps, dtype=np.uint64) + np.uint64(1)) * np.uint64(SPLITMIX_GAMMA)
    z = np.asarray(seeds, dtype=np.uint64)[None, :] + offsets[:, None]
    splitmix64(z)
    # mantissa bits under the exponent of 1.0 give w = 1 + U in [1, 2)
    z >>= np.uint64(12)
    z |= np.uint64(0x3FF0000000000000)
    w = z.view(np.float64)
    np.subtract(2.0, w, out=w)
    np.log(w, out=w)
    return np.negative(w, out=w)


@dataclass(frozen=True)
class CollectorPlan:
    """What simulate_block should record per path.

    sup/terminal spectral statistics are always produced; everything
    here is opt-in because each item costs eigen work per step.
    ``sigma2_levels`` requests, per level, the running max of
    lambda_max over the prefix where ||qv|| stays <= level, both on the
    grid (``prefix_max_lambda``) and as the Brownian-bridge supremum
    between grid points (``bridge_prefix_max``), plus the unconditioned
    bridge supremum ``bridge_sup``.  A continuous-time first-hitting
    event {some t <= T: lambda_max(X_t) >= u, ||<X>_t|| <= level}
    reduces to the threshold ``bridge_prefix_max >= u``.  Per step the
    bridge maximum is sampled exactly given its endpoints, with local
    variance ||sum_i H_i(t_k)^2||: exact for n = 1, an upper bound on
    the local variance of lambda_max for n > 1.
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


def _bad_rows(*stacks: np.ndarray) -> np.ndarray | None:
    """Mask of matrices (first axis) with a non-finite entry in any stack.

    None when everything is finite: the whole-array test is the cheap
    common case, and the per-matrix reduction runs only after it fails.
    """
    if all(np.isfinite(a).all() for a in stacks):
        return None
    return ~np.logical_and.reduce([np.isfinite(a).all(axis=(-2, -1)) for a in stacks])


def _kahan_add(total: np.ndarray, comp: np.ndarray, term: np.ndarray) -> None:
    y = term - comp
    t = total + y
    comp[...] = (t - total) - y
    total[...] = t


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def simulate_block(
    spec: IntegrandSpec, grid: TimeGrid, seeds, plan: CollectorPlan | None = None
) -> dict[str, np.ndarray]:
    """Stream a block of paths and return per-path statistic arrays.

    Results for path j depend only on (spec, grid, seeds[j], plan), so
    any partition of a batch into blocks reproduces identical numbers.
    A path whose state leaves float64 range is zeroed out, and a path
    with a non-finite entry in any output is flagged in the returned
    ``excluded`` mask, instead of raising.  Overflow in the arithmetic
    raises no numpy warning: the exclusion mask reports it.
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
    scheme = EulerScheme(spec, grid)
    feedback = scheme.feedback

    out = {
        "sup_lambda_max": np.zeros(total),
        "sup_spectral": np.zeros(total),
        "terminal_spectral": np.zeros(total),
        "terminal_qv_norm": np.zeros(total),
        "excluded": np.zeros(total, dtype=bool),
    }
    if len(levels):
        out["prefix_max_lambda"] = np.zeros((total, len(levels)))
        out["bridge_prefix_max"] = np.zeros((total, len(levels)))
        out["bridge_sup"] = np.zeros(total)
    if betas:
        out["supermart"] = np.zeros((total, len(betas), len(cps)))
    if plan.schatten_orders:
        out["schatten_terminal"] = np.zeros((total, len(plan.schatten_orders)))
    if plan.quad_schatten_orders:
        out["quad_schatten"] = np.zeros((total, len(plan.quad_schatten_orders)))
    if plan.sum_norm_quad:
        out["sum_norm_quad"] = np.zeros(total)

    # deterministic families: qv and the quadratures are path-free
    det_qv_norms = det_quads = det_sum_quad = det_bridge_var = None
    if not feedback:
        if not np.isfinite(scheme.qv).all():
            # the shared qv left float64 range: no path has a finite
            # statistic, and a non-finite matrix must never reach LAPACK
            out["excluded"][:] = True
            return out
        eq = stacked_eigenvalues(scheme.qv)
        det_qv_norms = np.maximum(np.abs(eq[:, 0]), np.abs(eq[:, -1]))
        if plan.quad_schatten_orders or len(levels):
            es2 = stacked_eigenvalues(scheme.s2)
        if len(levels):
            # 2 * ||sum_i H_i(t_k)^2|| * dt, the bridge's variance term per step
            det_bridge_var = 2.0 * dt * np.maximum(np.abs(es2[:, 0]), np.abs(es2[:, -1]))
        if plan.quad_schatten_orders:
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
        chunk_seeds = seeds[idx]
        dB = np.empty((c, K, spec.drivers))
        for b in range(c):
            dB[b] = brownian_increments(grid, spec.drivers, seeds[start + b])
        sup_lam = np.zeros(c)
        sup_spec = np.zeros(c)
        prefix = bridge_prefix = bridge_sup = None
        if len(levels):
            prefix = np.zeros((c, len(levels)))
            bridge_prefix = np.zeros((c, len(levels)))
            bridge_sup = np.zeros(c)
            lam_prev = np.zeros(c)
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

        for step in scheme.steps(dB):
            k, x, qv = step.k, step.x, step.qv
            if feedback:
                # left-endpoint reductions of the step's sum of squares
                if quad_tot is not None or prefix is not None:
                    es2 = stacked_eigenvalues(step.s2)
                if prefix is not None:
                    s2_norm = np.maximum(np.abs(es2[:, 0]), np.abs(es2[:, -1]))
                    bridge_var = 2.0 * dt * s2_norm
                if quad_tot is not None:
                    for j, order in enumerate(plan.quad_schatten_orders):
                        term = dt * schatten_from_eigenvalues(es2, order, axis=-1)
                        _kahan_add(quad_tot[:, j], quad_comp[:, j], term)
                if snq_tot is not None:
                    e1 = stacked_eigenvalues(feedback_sum(spec, step.x_left, scheme.agg))
                    term = dt * np.maximum(np.abs(e1[:, 0]), np.abs(e1[:, -1])) ** 2
                    _kahan_add(snq_tot, snq_comp, term)

            eigs = stacked_eigenvalues(x)
            lam = eigs[:, -1]
            spc = np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1]))
            np.maximum(sup_lam, lam, out=sup_lam)
            np.maximum(sup_spec, spc, out=sup_spec)
            if prefix is not None:
                # exact draw of the max of a Brownian bridge from lam_prev
                # to lam with variance var over the step
                if k % _BRIDGE_STEPS == 0:
                    exps = bridge_exponentials(
                        chunk_seeds, range(k, min(k + _BRIDGE_STEPS, K))
                    )
                var = bridge_var if feedback else det_bridge_var[k]
                d = lam - lam_prev
                e = exps[k % _BRIDGE_STEPS]
                peak = 0.5 * (lam_prev + lam + np.sqrt(d * d + var * e))
                np.maximum(bridge_sup, peak, out=bridge_sup)
                lam_prev = lam
                if feedback:
                    eq = stacked_eigenvalues(qv)
                    qv_norm = np.maximum(np.abs(eq[:, 0]), np.abs(eq[:, -1]))
                    for j in range(len(levels)):
                        mask = qv_norm <= levels[j]
                        prefix[mask, j] = np.maximum(prefix[mask, j], lam[mask])
                        bridge_prefix[mask, j] = np.maximum(
                            bridge_prefix[mask, j], peak[mask]
                        )
                else:
                    for j in range(len(levels)):
                        if det_qv_norms[k + 1] <= levels[j]:
                            prefix[:, j] = np.maximum(prefix[:, j], lam)
                            bridge_prefix[:, j] = np.maximum(bridge_prefix[:, j], peak)
            if supermart is not None and (k + 1) in cp_slot:
                for j, beta in enumerate(betas):
                    m = beta * x - (0.5 * beta * beta) * qv
                    me = stacked_eigenvalues(m)
                    supermart[:, j, cp_slot[k + 1]] = np.exp(me).sum(axis=-1)

        excluded = step.excluded
        out["sup_lambda_max"][idx] = sup_lam
        out["sup_spectral"][idx] = sup_spec
        out["terminal_spectral"][idx] = spc
        if feedback:
            eq = stacked_eigenvalues(qv)
            out["terminal_qv_norm"][idx] = np.maximum(np.abs(eq[:, 0]), np.abs(eq[:, -1]))
        else:
            out["terminal_qv_norm"][idx] = det_qv_norms[K]
        if prefix is not None:
            out["prefix_max_lambda"][idx] = prefix
            out["bridge_prefix_max"][idx] = bridge_prefix
            out["bridge_sup"][idx] = bridge_sup
        if supermart is not None:
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
        # an overflowed statistic (np.maximum carries a nan or inf peak
        # through to the end) must not reach an event count or an interval
        for key, values in out.items():
            if key != "excluded":
                excluded |= ~np.isfinite(values[idx].reshape(c, -1)).all(axis=1)
        out["excluded"][idx] = excluded
    return out
