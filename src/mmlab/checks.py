"""Inequality checks: lhs/rhs pairs with confidence-aware verdicts.

Each operation produces a :class:`CheckResult` whose ``holds`` field is
recomputable from the numbers it carries: lhs <= bound + slack*(lhs_ci
+ rhs_ci) + tol, where bound is the rhs unless the metadata carries an
explicit ``bound_rhs`` (used when the displayed rhs is a constant-free
shape rather than an enforceable bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import InputDomainError, NumericError
from .integrands import IntegrandSpec, aggregates, is_path_dependent, is_time_dependent
from .linalg import (
    check_symmetric,
    matrix_exp_sym,
    matrix_abs,
    spectral_norm,
    symmetrize,
    trace_exp,
)
from .montecarlo import (
    BatchStats,
    EstimateCI,
    ExperimentConfig,
    bootstrap_ci,
    bootstrap_seed,
    run_batch,
    wilson_interval,
)
from .simulate import TimeGrid, default_checkpoints, exact_constant_spectral_norms

# sup-norm moment bound constant, 12*sqrt(2*log 2)
BDG_CONSTANT = 12.0 * math.sqrt(2.0 * math.log(2.0))
# free-probability comparison bound constant
BIANE_SPEICHER_CONSTANT = 2.0 * math.sqrt(2.0)

TRACE_LEMMA_TOL = 1e-9
HESSIAN_LEMMA_TOL = 1e-5


@dataclass(frozen=True)
class CheckResult:
    """One verified inequality instance.

    ``lhs_ci``/``rhs_ci`` are interval half-widths (0 for deterministic
    checks).  ``metadata`` echoes parameters plus the verdict inputs
    (slack_factor, tolerance, optional bound_rhs).
    """

    name: str
    lhs: float
    rhs: float
    lhs_ci: float
    rhs_ci: float
    holds: bool
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lhs_ci < 0.0 or self.rhs_ci < 0.0:
            raise InputDomainError("interval half-widths must be >= 0")

    @property
    def ratio(self) -> float:
        if self.rhs != 0.0:
            return self.lhs / self.rhs
        return 0.0 if self.lhs == 0.0 else math.inf


def verdict(
    lhs: float,
    rhs: float,
    lhs_ci: float,
    rhs_ci: float,
    slack_factor: float,
    tolerance: float = 0.0,
    bound_rhs: float | None = None,
) -> bool:
    target = rhs if bound_rhs is None else bound_rhs
    return bool(lhs <= target + slack_factor * (lhs_ci + rhs_ci) + tolerance)


def recompute_holds(result: CheckResult) -> bool:
    """Re-derive the verdict from the result's own fields."""
    md = result.metadata
    if md.get("verdict") == "skipped":
        return True
    return verdict(
        result.lhs,
        result.rhs,
        result.lhs_ci,
        result.rhs_ci,
        md.get("slack_factor", 0.0),
        md.get("tolerance", 0.0),
        md.get("bound_rhs"),
    )


def _kept(batch: BatchStats) -> int:
    kept = batch.kept_count
    if kept < 1:
        raise InputDomainError("empty batch: no surviving paths")
    return kept


def _moment_order(batch: BatchStats, p) -> int:
    """The integer order p >= 1 of a moment check on a non-empty batch."""
    _kept(batch)
    if p < 1 or int(p) != p:
        raise InputDomainError(f"p must be an integer >= 1, got {p}")
    return int(p)


def _plan_index(orders: tuple, value: float, what: str) -> int:
    try:
        return orders.index(value)
    except ValueError:
        raise InputDomainError(
            f"batch was not collected with {what} {value}; available: {orders}"
        ) from None


def _batch_result(
    name: str,
    batch: BatchStats,
    slack_factor: float,
    lhs: EstimateCI,
    rhs: EstimateCI | float,
    rhs_ci: float = 0.0,
    *,
    t: float | None = None,
    **extra,
) -> CheckResult:
    """Verdict and result of a batch check.

    ``rhs`` is an interval estimate, or a point with half-width
    ``rhs_ci``.  The metadata describes the batch, with ``t`` defaulting
    to the grid horizon, and then lists ``extra`` in order.
    """
    if isinstance(rhs, EstimateCI):
        rhs, rhs_ci = rhs.point, rhs.half_width
    md = {
        "n": batch.spec.n,
        "N": batch.spec.drivers,
        "family": batch.spec.family,
        "t": batch.grid.horizon if t is None else t,
        "paths": batch.path_count,
        "slack_factor": slack_factor,
        "tolerance": 0.0,
    }
    md.update(extra)
    return CheckResult(
        name=name,
        lhs=lhs.point,
        rhs=rhs,
        lhs_ci=lhs.half_width,
        rhs_ci=rhs_ci,
        holds=verdict(lhs.point, rhs, lhs.half_width, rhs_ci, slack_factor),
        metadata=md,
    )


def check_trace_lemma(h, a, q: int, r: int) -> CheckResult:
    """Tr(H A^q H A^(r-q)) <= Tr(H^2 |A|^r) for integers 0 <= q <= r."""
    hm = check_symmetric(h, "H")
    am = check_symmetric(a, "A")
    if hm.shape != am.shape:
        raise InputDomainError(f"dimension mismatch: {hm.shape} vs {am.shape}")
    if int(q) != q or int(r) != r or not 0 <= q <= r:
        raise InputDomainError(f"need integers 0 <= q <= r, got q={q}, r={r}")
    q, r = int(q), int(r)
    aq = np.linalg.matrix_power(am, q)
    arq = np.linalg.matrix_power(am, r - q)
    lhs = float(np.trace(hm @ aq @ hm @ arq))
    abs_r = np.linalg.matrix_power(matrix_abs(am), r)
    rhs = float(np.trace(hm @ hm @ abs_r))
    tol = TRACE_LEMMA_TOL * (1.0 + abs(rhs))
    return CheckResult(
        name="trace_lemma",
        lhs=lhs,
        rhs=rhs,
        lhs_ci=0.0,
        rhs_ci=0.0,
        holds=verdict(lhs, rhs, 0.0, 0.0, 0.0, tol),
        metadata={"n": hm.shape[0], "q": q, "r": r, "slack_factor": 0.0, "tolerance": tol},
    )


def check_hessian_lemma(m, h, step: float = 1e-4) -> CheckResult:
    """Second difference of Tr exp along H is at most Tr(e^M H^2).

    The finite-difference lhs carries O(step^2) truncation error, which
    the fixed 1e-5*(1+|rhs|) slack absorbs for steps in [1e-6, 1e-2].
    """
    if not 1e-6 <= step <= 1e-2:
        raise InputDomainError(f"step must lie in [1e-6, 1e-2], got {step}")
    mm = check_symmetric(m, "M")
    hm = check_symmetric(h, "H")
    if mm.shape != hm.shape:
        raise InputDomainError(f"dimension mismatch: {mm.shape} vs {hm.shape}")
    f0 = trace_exp(mm, 1.0)
    fp = trace_exp(mm + step * hm, 1.0)
    fm = trace_exp(mm - step * hm, 1.0)
    lhs = (fp - 2.0 * f0 + fm) / (step * step)
    rhs = float(np.trace(matrix_exp_sym(mm) @ hm @ hm))
    tol = HESSIAN_LEMMA_TOL * (1.0 + abs(rhs))
    return CheckResult(
        name="hessian_lemma",
        lhs=lhs,
        rhs=rhs,
        lhs_ci=0.0,
        rhs_ci=0.0,
        holds=verdict(lhs, rhs, 0.0, 0.0, 0.0, tol),
        metadata={"n": mm.shape[0], "step": step, "slack_factor": 0.0, "tolerance": tol},
    )


def run_lemma_suite(count: int = 10_000, seed: int = 0) -> list[CheckResult]:
    """Random sweep of both deterministic lemmas, `count` instances each."""
    if count < 1:
        raise InputDomainError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(count):
        n = int(rng.integers(1, 7))
        r = int(rng.integers(0, 9))
        q = int(rng.integers(0, r + 1))
        hm = symmetrize(rng.standard_normal((n, n)))
        am = symmetrize(rng.standard_normal((n, n)))
        results.append(check_trace_lemma(hm, am, q, r))
    for _ in range(count):
        n = int(rng.integers(1, 6))
        mm = symmetrize(rng.standard_normal((n, n)))
        hm = symmetrize(rng.standard_normal((n, n)))
        results.append(check_hessian_lemma(mm, hm, 1e-4))
    return results


def freedman_check(
    batch: BatchStats,
    u: float,
    sigma2: float,
    *,
    confidence: float = 0.99,
    slack_factor: float = 3.0,
    rhs_multiplier: float = 1.0,
) -> CheckResult:
    """Joint tail event frequency vs the n*exp(-u^2/(2 sigma^2)) bound.

    Event per path, in continuous time: some t <= T has lambda_max(X_t)
    >= u while ||<X>_t|| <= sigma2.  The engine samples the supremum of
    lambda_max between grid points as a Brownian-bridge maximum over the
    steps whose right end keeps ||qv|| <= sigma2, so the event is a
    threshold on one number per path and the Wilson interval applies.
    """
    kept = _kept(batch)
    li = _plan_index(batch.plan.sigma2_levels, sigma2, "sigma2 level")
    hits = int((batch.data["bridge_prefix_max"][:, li] >= u).sum())
    lhs = wilson_interval(hits, kept, confidence)
    rhs = batch.spec.n * math.exp(-u * u / (2.0 * sigma2)) * rhs_multiplier
    return _batch_result(
        "freedman", batch, slack_factor, lhs, rhs, u=u, sigma2=sigma2, events=hits
    )


def good_lambda_check(
    batch: BatchStats,
    u: float,
    sigma2: float,
    *,
    confidence: float = 0.99,
    slack_factor: float = 3.0,
    rhs_multiplier: float = 1.0,
) -> CheckResult:
    """Tail at 2u with bounded qv vs n*exp(-u^2/(2 sigma^2)) * P(tail at u).

    Both tails are continuous-time events on the Brownian-bridge
    supremum of lambda_max: the 2u-tail on the sigma2-conditioned one
    (as in :func:`freedman_check`), the u-tail on the unconditioned one.
    """
    kept = _kept(batch)
    li = _plan_index(batch.plan.sigma2_levels, sigma2, "sigma2 level")
    hits2u = int((batch.data["bridge_prefix_max"][:, li] >= 2.0 * u).sum())
    hits_u = int((batch.data["bridge_sup"] >= u).sum())
    lhs = wilson_interval(hits2u, kept, confidence)
    u_freq = wilson_interval(hits_u, kept, confidence)
    factor = batch.spec.n * math.exp(-u * u / (2.0 * sigma2)) * rhs_multiplier
    return _batch_result(
        "good_lambda",
        batch,
        slack_factor,
        lhs,
        factor * u_freq.point,
        abs(factor) * u_freq.half_width,
        u=u,
        sigma2=sigma2,
        u_event_freq=u_freq.point,
    )


def _moment_flag(p: float, est) -> bool:
    return p >= 4 and est.point > 0.0 and est.half_width > 0.25 * est.point


def bdg_check(
    batch: BatchStats,
    p: int,
    t: float | None = None,
    *,
    confidence: float = 0.99,
    slack_factor: float = 3.0,
    resamples: int = 1000,
    seed: int = 0,
    rhs_multiplier: float = 1.0,
) -> CheckResult:
    """p-th moment of the running sup vs the sqrt(p + log n) weighted qv moment."""
    p = _moment_order(batch, p)
    sup = batch.data["sup_spectral"]
    qv = batch.data["terminal_qv_norm"]
    coeff = BDG_CONSTANT * math.sqrt(p + math.log(batch.spec.n)) * rhs_multiplier

    lhs = bootstrap_ci(
        sup**p, lambda s: s ** (1.0 / p), resamples, confidence, seed, label="bdg lhs"
    )
    rhs = bootstrap_ci(
        qv ** (0.5 * p),
        lambda s: coeff * s ** (1.0 / p),
        resamples,
        confidence,
        seed + 1,
        label="bdg rhs",
    )
    return _batch_result(
        "bdg",
        batch,
        slack_factor,
        lhs,
        rhs,
        t=t,
        p=p,
        constant=BDG_CONSTANT,
        unstable_moment=_moment_flag(p, lhs),
    )


def _schatten_samples(batch: BatchStats, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-path squared terminal 2p-norms and quadratures of ||sum H^2||_p."""
    si = _plan_index(batch.plan.schatten_orders, 2.0 * p, "terminal Schatten order")
    qi = _plan_index(batch.plan.quad_schatten_orders, float(p), "quadrature order")
    return batch.data["schatten_terminal"][:, si] ** 2, batch.data["quad_schatten"][:, qi]


def schatten_check(
    batch: BatchStats,
    p: int,
    t: float | None = None,
    *,
    confidence: float = 0.99,
    slack_factor: float = 3.0,
    resamples: int = 1000,
    seed: int = 0,
    rhs_multiplier: float = 1.0,
) -> CheckResult:
    """Mean squared terminal 2p-norm vs (2p-1) times the quadrature mean."""
    p = _moment_order(batch, p)
    values, quad = _schatten_samples(batch, p)
    factor = (2.0 * p - 1.0) * rhs_multiplier
    lhs = bootstrap_ci(values, float, resamples, confidence, seed, label="schatten lhs")
    rhs = bootstrap_ci(
        quad, lambda s: factor * s, resamples, confidence, seed + 1, label="schatten rhs"
    )
    return _batch_result(
        "schatten", batch, slack_factor, lhs, rhs, t=t, p=p, unstable_moment=_moment_flag(p, lhs)
    )


def schatten_rect_check(
    batch: BatchStats,
    p: int,
    t: float | None = None,
    *,
    confidence: float = 0.99,
    slack_factor: float = 3.0,
    resamples: int = 1000,
    seed: int = 0,
    rhs_multiplier: float = 1.0,
) -> CheckResult:
    """Rectangular Schatten bound via the dilated process.

    The recorded dilated terminal 2p-norm relates to the rectangular
    one by a 2^(1/(2p)) factor, and the dilated quadrature integrand
    equals (||sum H H^T||_p^p + ||sum H^T H||_p^p)^(1/p) exactly.  The
    verdict uses the conservative factor 2^(-1/p)*(2p-1); the stricter
    2^(-1/p)*sqrt(2p-1) variant is reported in the metadata.
    """
    p = _moment_order(batch, p)
    if batch.spec.rect_shape is None:
        raise InputDomainError(
            "rectangular check requires a batch built from rectangular constant payloads"
        )
    squares, quad = _schatten_samples(batch, p)
    scale = 2.0 ** (-1.0 / p)
    values = squares * scale
    factor_cons = scale * (2.0 * p - 1.0) * rhs_multiplier
    factor_paper = scale * math.sqrt(2.0 * p - 1.0) * rhs_multiplier
    lhs = bootstrap_ci(
        values, float, resamples, confidence, seed, label="schatten_rect lhs"
    )
    rhs = bootstrap_ci(
        quad,
        lambda s: factor_cons * s,
        resamples,
        confidence,
        seed + 1,
        label="schatten_rect rhs",
    )
    rhs_paper = rhs.point * factor_paper / factor_cons if factor_cons != 0.0 else 0.0
    rhs_paper_ci = rhs.half_width * factor_paper / factor_cons if factor_cons != 0.0 else 0.0
    holds_paper = verdict(lhs.point, rhs_paper, lhs.half_width, rhs_paper_ci, slack_factor)
    return _batch_result(
        "schatten_rect",
        batch,
        slack_factor,
        lhs,
        rhs,
        t=t,
        p=p,
        rect_shape=batch.spec.rect_shape,
        rhs_paper=rhs_paper,
        rhs_paper_ci=rhs_paper_ci,
        holds_paper=holds_paper,
        unstable_moment=_moment_flag(p, lhs),
    )


def khintchine_check(
    spec: IntegrandSpec,
    *,
    samples: int = 100_000,
    sample_seed: int = 0,
    resamples: int = 1000,
    seed: int = 1,
    confidence: float = 0.99,
    slack_factor: float = 3.0,
    rhs_multiplier: float = 1.0,
) -> CheckResult:
    """Mean norm of the Gaussian matrix series against the sqrt(log n) shape.

    The displayed rhs is the constant-free shape sqrt(log n) *
    ||sum H_i^2||^(1/2); the verdict compares against the enforceable
    moment bound with the sup-norm constant (metadata ``bound_rhs``).
    The ratio lhs / ||sum H_i^2||^(1/2) drives the growth-in-n check.
    For n = 1 the shape degenerates and the verdict is skipped.
    """
    if is_path_dependent(spec) or is_time_dependent(spec):
        raise InputDomainError("khintchine check requires a constant-in-time integrand")
    norms = exact_constant_spectral_norms(spec.matrices, 1.0, sample_seed, samples)
    lhs = bootstrap_ci(norms, float, resamples, confidence, seed, label="khintchine lhs")
    base = math.sqrt(spectral_norm(aggregates(spec).sum_sq_base))
    n = spec.n
    rhs = math.sqrt(math.log(n)) * base
    bound = BDG_CONSTANT * math.sqrt(1.0 + math.log(n)) * base * rhs_multiplier
    ratio = lhs.point / base if base > 0.0 else 0.0
    md = {
        "n": n,
        "N": spec.drivers,
        "family": spec.family,
        "t": 1.0,
        "paths": samples,
        "slack_factor": slack_factor,
        "tolerance": 0.0,
        "ratio": ratio,
        "bound_rhs": bound,
    }
    if n == 1:
        md["verdict"] = "skipped"
        holds = True
    else:
        holds = verdict(lhs.point, rhs, lhs.half_width, 0.0, slack_factor, bound_rhs=bound)
    return CheckResult(
        name="khintchine",
        lhs=lhs.point,
        rhs=rhs,
        lhs_ci=lhs.half_width,
        rhs_ci=0.0,
        holds=holds,
        metadata=md,
    )


def biane_speicher_check(
    batch: BatchStats,
    t: float | None = None,
    *,
    confidence: float = 0.99,
    slack_factor: float = 3.0,
    resamples: int = 1000,
    seed: int = 0,
    rhs_multiplier: float = 1.0,
) -> CheckResult:
    """Mean terminal norm vs 2*sqrt(2) times the root-quadrature mean."""
    _kept(batch)
    if "sum_norm_quad" not in batch.data:
        raise InputDomainError("batch was not collected with the driver-sum quadrature")
    coeff = BIANE_SPEICHER_CONSTANT * rhs_multiplier
    lhs = bootstrap_ci(
        batch.data["terminal_spectral"],
        float,
        resamples,
        confidence,
        seed,
        label="biane_speicher lhs",
    )
    rhs = bootstrap_ci(
        np.sqrt(batch.data["sum_norm_quad"]),
        lambda s: coeff * s,
        resamples,
        confidence,
        seed + 1,
        label="biane_speicher rhs",
    )
    return _batch_result(
        "biane_speicher", batch, slack_factor, lhs, rhs, t=t, constant=BIANE_SPEICHER_CONSTANT
    )


def supermartingale_check(
    batch: BatchStats,
    beta: float,
    *,
    confidence: float = 0.99,
    slack_factor: float = 3.0,
    resamples: int = 1000,
    seed: int = 0,
    rhs_multiplier: float = 1.0,
) -> CheckResult:
    """Checkpoint means of Tr exp(beta*X - (beta^2/2)*qv) never increase.

    lhs/rhs are the later/earlier means of the worst consecutive
    checkpoint pair; the verdict requires every pair to be nonincreasing
    within the combined interval slack.
    """
    _kept(batch)
    bi = _plan_index(batch.plan.supermartingale_betas, beta, "beta")
    cps = batch.plan.checkpoints
    vals = batch.data["supermart"][:, bi, :]
    ests = [
        bootstrap_ci(
            vals[:, c],
            float,
            resamples,
            confidence,
            seed + c,
            label=f"supermartingale checkpoint {cps[c]}",
        )
        for c in range(len(cps))
    ]
    worst = None
    worst_excess = -math.inf
    for c in range(len(cps) - 1):
        earlier, later = ests[c], ests[c + 1]
        rhs_point = earlier.point * rhs_multiplier
        rhs_ci = earlier.half_width * abs(rhs_multiplier)
        excess = later.point - rhs_point - slack_factor * (later.half_width + rhs_ci)
        if excess > worst_excess:
            worst_excess = excess
            worst = (c, later, rhs_point, rhs_ci)
    c, later, rhs_point, rhs_ci = worst
    return _batch_result(
        "supermartingale",
        batch,
        slack_factor,
        later,
        rhs_point,
        rhs_ci,
        beta=beta,
        checkpoints=tuple(cps),
        checkpoint_means=tuple(e.point for e in ests),
        initial_value=float(vals[:, 0].mean()) if 0 in cps else None,
        worst_pair=(cps[c], cps[c + 1]),
    )


# --- the check registry ----------------------------------------------------


def _any_value(value) -> bool:
    return True


@dataclass(frozen=True)
class Param:
    """A check parameter and the rule its value must meet.

    ``rule`` is worded as error messages state it ("sigma2 > 0").  An
    integer parameter's rule names its type ("integer p >= 1"), so a
    missing one is named by its rule rather than its bare name.
    """

    name: str
    rule: str = ""
    ok: Callable[[float], bool] = _any_value
    integer: bool = False
    optional: bool = False

    @property
    def needs(self) -> str:
        return self.rule if self.integer else self.name


U_POSITIVE = Param("u", "u > 0", lambda v: v > 0.0)
U_NONNEGATIVE = Param("u", "u >= 0", lambda v: v >= 0.0)
SIGMA2 = Param("sigma2", "sigma2 > 0", lambda v: v > 0.0)
ORDER = Param("p", "integer p >= 1", lambda v: v >= 1 and int(v) == v, integer=True)
BETA = Param("beta", "finite beta", math.isfinite)
HORIZON = Param("t", optional=True)


def _no_collectors(req, grid: TimeGrid) -> dict:
    return {}


@dataclass(frozen=True)
class CheckKind:
    """One inequality kind: its parameters, collectors and evaluator.

    ``params`` lists, in order, the parameters a request of this kind
    takes; ``evaluate`` is called with the batch (or, when the kind does
    not need one, the integrand spec) and those parameter values, see
    :func:`evaluate_checks`.  ``collect(request, grid)`` names the
    :class:`~mmlab.simulate.CollectorPlan` fields the request needs: a
    tuple of values to record, or True for an opt-in quadrature.
    ``bootstrap`` kinds take ``resamples`` and ``seed``.
    """

    name: str
    params: tuple[Param, ...]
    evaluate: Callable[..., CheckResult]
    collect: Callable[..., dict] = _no_collectors
    needs_batch: bool = True
    bootstrap: bool = True

    def takes(self, name: str) -> bool:
        return any(p.name == name for p in self.params)

    def validate(self, req: "CheckRequest") -> None:
        required = [p for p in self.params if not p.optional]
        if any(getattr(req, p.name) is None for p in required):
            needs = " and ".join(p.needs for p in required)
            raise InputDomainError(f"{self.name} check requires {needs}")
        for p in self.params:
            value = getattr(req, p.name)
            if value is not None and not p.ok(value):
                raise InputDomainError(f"{self.name} check requires {p.rule}")
        for f in fields(req)[1:]:  # every parameter field, after kind
            if getattr(req, f.name) is not None and not self.takes(f.name):
                raise InputDomainError(f"{self.name} check does not take {f.name}")


def _sigma2_level(req, grid: TimeGrid) -> dict:
    return {"sigma2_levels": (req.sigma2,)}


def _schatten_orders(req, grid: TimeGrid) -> dict:
    return {"schatten_orders": (2.0 * req.p,), "quad_schatten_orders": (float(req.p),)}


def _sum_norm_quad(req, grid: TimeGrid) -> dict:
    return {"sum_norm_quad": True}


def _supermartingale(req, grid: TimeGrid) -> dict:
    return {"supermartingale_betas": (req.beta,), "checkpoints": default_checkpoints(grid.steps)}


CHECK_REGISTRY: dict[str, CheckKind] = {
    kind.name: kind
    for kind in (
        CheckKind(
            "freedman", (U_POSITIVE, SIGMA2), freedman_check, _sigma2_level, bootstrap=False
        ),
        CheckKind(
            "good_lambda",
            (U_NONNEGATIVE, SIGMA2),
            good_lambda_check,
            _sigma2_level,
            bootstrap=False,
        ),
        CheckKind("bdg", (ORDER, HORIZON), bdg_check),
        CheckKind("schatten", (ORDER, HORIZON), schatten_check, _schatten_orders),
        CheckKind("schatten_rect", (ORDER, HORIZON), schatten_rect_check, _schatten_orders),
        CheckKind("khintchine", (), khintchine_check, needs_batch=False),
        CheckKind("biane_speicher", (HORIZON,), biane_speicher_check, _sum_norm_quad),
        CheckKind("supermartingale", (BETA,), supermartingale_check, _supermartingale),
    )
}


@dataclass(frozen=True)
class CheckRequest:
    """One requested inequality check with its parameters.

    Parameters the kind does not take (see :data:`CHECK_REGISTRY`) stay
    None; `t` defaults to the grid horizon.
    """

    kind: str
    u: float | None = None
    sigma2: float | None = None
    p: int | None = None
    beta: float | None = None
    t: float | None = None

    def __post_init__(self):
        if self.kind not in CHECK_REGISTRY:
            raise InputDomainError(
                f"unknown check kind '{self.kind}'; expected one of {tuple(CHECK_REGISTRY)}"
            )
        CHECK_REGISTRY[self.kind].validate(self)

    @property
    def needs_batch(self) -> bool:
        """Whether the check reads a simulated batch (and so needs >= 100 paths)."""
        return CHECK_REGISTRY[self.kind].needs_batch

    def collectors(self, grid: TimeGrid) -> dict:
        """The CollectorPlan fields this check needs on ``grid``."""
        return CHECK_REGISTRY[self.kind].collect(self, grid)


def evaluate_checks(config: ExperimentConfig, batch: BatchStats | None) -> list[CheckResult]:
    """Run every requested check against one shared batch.

    Bootstrap and sampling seeds come from the config's auxiliary
    stream, indexed by check order, so results are reproducible and
    independent of evaluation parallelism.  A kind that needs no batch
    draws its own sample of ``config.paths`` from the integrand spec.
    """
    results = []
    for i, req in enumerate(config.checks):
        kind = CHECK_REGISTRY[req.kind]
        options = dict(
            confidence=config.confidence,
            slack_factor=config.slack_factor,
            rhs_multiplier=config.rhs_multiplier,
        )
        if kind.bootstrap:
            options["resamples"] = config.bootstrap_resamples
            options["seed"] = bootstrap_seed(config, 2 * i)
        if kind.needs_batch:
            if batch is None:
                raise InputDomainError(f"check '{req.kind}' requires a simulated batch")
            subject = batch
        else:
            subject = config.spec
            options["samples"] = config.paths
            options["sample_seed"] = bootstrap_seed(config, 2 * i + 1)
        params = [getattr(req, p.name) for p in kind.params]
        results.append(kind.evaluate(subject, *params, **options))
    return results


def run_experiment_checks(config: ExperimentConfig, workers: int = 1) -> tuple[BatchStats | None, list[CheckResult]]:
    """Simulate (when needed) and evaluate all configured checks.

    A NumericError from the checks carries the batch's ``excluded`` count.
    """
    needs_batch = any(c.needs_batch for c in config.checks)
    batch = run_batch(config, workers=workers) if needs_batch else None
    try:
        return batch, evaluate_checks(config, batch)
    except NumericError as exc:
        exc.excluded = batch.excluded_count if batch is not None else 0
        raise
