"""Inequality checks: lhs/rhs pairs with confidence-aware verdicts.

Each operation produces a :class:`CheckResult` whose ``holds`` field is
recomputable from the numbers it carries: lhs <= bound + slack*(lhs_ci
+ rhs_ci) + tol, where bound is the rhs unless the metadata carries an
explicit ``bound_rhs`` (used when the displayed rhs is a constant-free
shape rather than an enforceable bound).  Every result is built by one
constructor that reads its verdict from its metadata.

A check kind is one :data:`CHECK_REGISTRY` row: its parameters, the
collectors it needs, the integrands it applies to and its evaluator.
An evaluator takes the batch (or the integrand spec), its parameters
and a :class:`Judge`, which holds everything else a check depends on
(confidence, slack, rhs multiplier, resamples, seeds, sample size) and
forms every interval and every result.  An evaluator that bootstraps
means of the batch yields them as one :class:`Resample` and is sent
back their intervals, so that :meth:`Judge.settle` can resample every
check of a run at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate
from typing import Callable, Generator, NamedTuple

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
from .simulate import default_checkpoints, exact_constant_spectral_norms

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


def _holds(lhs: float, rhs: float, lhs_ci: float, rhs_ci: float, md: dict) -> bool:
    """The verdict that metadata ``md`` records for these numbers."""
    if md.get("verdict") == "skipped":
        return True
    slack, tolerance = md.get("slack_factor", 0.0), md.get("tolerance", 0.0)
    return verdict(lhs, rhs, lhs_ci, rhs_ci, slack, tolerance, md.get("bound_rhs"))


def recompute_holds(result: CheckResult) -> bool:
    """Re-derive the verdict from the result's own fields."""
    return _holds(result.lhs, result.rhs, result.lhs_ci, result.rhs_ci, result.metadata)


def _result(name: str, lhs: float, rhs: float, lhs_ci: float, rhs_ci: float, md: dict):
    """The one constructor of results: ``holds`` is the verdict ``md`` records."""
    return CheckResult(name, lhs, rhs, lhs_ci, rhs_ci, _holds(lhs, rhs, lhs_ci, rhs_ci, md), md)


class Resample(NamedTuple):
    """The bootstrap means one check needs: ``samples`` of the same
    paths, one label each, and ``statistic``, a map of the tuple of
    their means to a tuple of values, one per sample."""

    samples: tuple
    statistic: Callable[[tuple], tuple]
    labels: tuple[str, ...]


# an evaluator that bootstraps means of the batch: it yields one Resample,
# is sent back one interval per sample, and returns its result
Evaluation = Generator[Resample, tuple[EstimateCI, ...], CheckResult]


def _finish(evaluation: Evaluation, intervals: tuple[EstimateCI, ...]) -> CheckResult:
    """Send a suspended evaluator its intervals; return its result."""
    try:
        evaluation.send(intervals)
    except StopIteration as done:
        return done.value
    raise RuntimeError("an evaluator asked for a second resample")


@dataclass(frozen=True)
class Judge:
    """How a check forms its intervals and its verdict.

    Every interval is taken at level ``confidence``.  Bootstrap
    intervals take ``resamples`` resamples drawn from stream ``seed``.
    An evaluator that reads the batch yields its means as one
    :class:`Resample`, and :meth:`settle` resamples those of every check
    of a run together, on one index stream; a kind that draws its own
    sample takes ``samples`` values from stream ``sample_seed`` and
    resamples them at once by :meth:`mean`.  ``rhs_multiplier`` scales
    every rhs (0 shows that a check can fail), and a result holds when
    lhs <= rhs + slack_factor * (lhs_ci + rhs_ci).
    :func:`evaluate_checks` builds one from the config.
    """

    confidence: float = 0.99
    slack_factor: float = 3.0
    rhs_multiplier: float = 1.0
    resamples: int = 1000
    seed: int = 0
    samples: int = 100_000
    sample_seed: int = 0

    def mean(self, values, *, label: str) -> EstimateCI:
        """Bootstrap interval for mean(values) on stream ``seed``."""
        return bootstrap_ci(values, float, self.resamples, self.confidence, self.seed, label=label)

    def pair(self, name: str, lhs, lhs_statistic, rhs, rhs_statistic) -> Resample:
        """The lhs and rhs means of check ``name``, each under its statistic."""
        return Resample(
            (lhs, rhs),
            lambda means: (lhs_statistic(means[0]), rhs_statistic(means[1])),
            (f"{name} lhs", f"{name} rhs"),
        )

    def settle(self, evaluations: list[CheckResult | Evaluation]) -> list[CheckResult]:
        """The results of ``evaluations``: results, and suspended evaluators.

        Each suspended evaluator is run to its :class:`Resample`, and
        every sample of every request is resampled in one bootstrap
        call on stream ``seed``: each resample's indices serve all of
        them, so a check's intervals are those its own request would get
        alone on that stream (see
        :func:`~mmlab.montecarlo.bootstrap_ci`).
        """
        results = list(evaluations)
        pending = [(i, e, next(e)) for i, e in enumerate(results) if not isinstance(e, CheckResult)]
        if not pending:
            return results
        requests = [request for _, _, request in pending]
        spans = list(accumulate((len(r.samples) for r in requests), initial=0))
        bounds = list(zip(spans, spans[1:]))

        def statistic(means):
            return [v for r, (a, b) in zip(requests, bounds) for v in r.statistic(means[a:b])]

        intervals = bootstrap_ci(
            tuple(s for r in requests for s in r.samples),
            statistic,
            self.resamples,
            self.confidence,
            self.seed,
            label=tuple(label for r in requests for label in r.labels),
        )
        for (i, evaluation, _), (a, b) in zip(pending, bounds):
            results[i] = _finish(evaluation, intervals[a:b])
        return results

    def frequency(self, hits: int, trials: int) -> EstimateCI:
        """Wilson interval for an event seen on ``hits`` of ``trials`` paths."""
        return wilson_interval(hits, trials, self.confidence)

    def result(
        self, name: str, subject, lhs: EstimateCI, rhs, rhs_ci: float = 0.0, *, t=None, **extra
    ) -> CheckResult:
        """Result and verdict of check ``name`` on ``subject``.

        ``subject`` is the batch, or the spec of a kind that draws its
        own sample (of the series at t = 1).  ``rhs`` is an interval, or
        a point with half-width ``rhs_ci``.  The metadata describes the
        subject, with ``t`` defaulting to the grid horizon, and then
        lists ``extra`` in order; an extra ``bound_rhs`` replaces the rhs
        in the verdict, and ``verdict="skipped"`` records none.
        """
        if isinstance(rhs, EstimateCI):
            rhs, rhs_ci = rhs.point, rhs.half_width
        if isinstance(subject, BatchStats):
            spec, paths = subject.spec, subject.path_count
            t = subject.grid.horizon if t is None else t
        else:
            spec, paths, t = subject, self.samples, 1.0
        md = {
            "n": spec.n,
            "N": spec.drivers,
            "family": spec.family,
            "t": t,
            "paths": paths,
            "slack_factor": self.slack_factor,
            "tolerance": 0.0,
            **extra,
        }
        return _result(name, lhs.point, rhs, lhs.half_width, rhs_ci, md)


def _moment_order(p) -> int:
    """The integer order p >= 1 of a moment check."""
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
    md = {"n": hm.shape[0], "q": q, "r": r, "slack_factor": 0.0, "tolerance": tol}
    return _result("trace_lemma", lhs, rhs, 0.0, 0.0, md)


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
    f0 = trace_exp(mm)
    fp = trace_exp(mm + step * hm)
    fm = trace_exp(mm - step * hm)
    lhs = (fp - 2.0 * f0 + fm) / (step * step)
    rhs = float(np.trace(matrix_exp_sym(mm) @ hm @ hm))
    tol = HESSIAN_LEMMA_TOL * (1.0 + abs(rhs))
    md = {"n": mm.shape[0], "step": step, "slack_factor": 0.0, "tolerance": tol}
    return _result("hessian_lemma", lhs, rhs, 0.0, 0.0, md)


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
    batch: BatchStats, u: float, sigma2: float, judge: Judge = Judge()
) -> CheckResult:
    """Joint tail event frequency vs the n*exp(-u^2/(2 sigma^2)) bound.

    Event per path, in continuous time: some t <= T has lambda_max(X_t)
    >= u while ||<X>_t|| <= sigma2.  The engine samples the supremum of
    lambda_max between grid points as a Brownian-bridge maximum over the
    steps whose right end keeps ||qv|| <= sigma2, so the event is a
    threshold on one number per path and the Wilson interval applies.
    """
    li = _plan_index(batch.plan.sigma2_levels, sigma2, "sigma2 level")
    hits = int((batch.data["bridge_prefix_max"][:, li] >= u).sum())
    lhs = judge.frequency(hits, batch.kept_count)
    rhs = batch.spec.n * math.exp(-u * u / (2.0 * sigma2)) * judge.rhs_multiplier
    return judge.result("freedman", batch, lhs, rhs, u=u, sigma2=sigma2, events=hits)


def good_lambda_check(
    batch: BatchStats, u: float, sigma2: float, judge: Judge = Judge()
) -> CheckResult:
    """Tail at 2u with bounded qv vs n*exp(-u^2/(2 sigma^2)) * P(tail at u).

    Both tails are continuous-time events on the Brownian-bridge
    supremum of lambda_max: the 2u-tail on the sigma2-conditioned one
    (as in :func:`freedman_check`), the u-tail on the unconditioned one.
    """
    kept = batch.kept_count
    li = _plan_index(batch.plan.sigma2_levels, sigma2, "sigma2 level")
    hits2u = int((batch.data["bridge_prefix_max"][:, li] >= 2.0 * u).sum())
    hits_u = int((batch.data["bridge_sup"] >= u).sum())
    lhs = judge.frequency(hits2u, kept)
    u_freq = judge.frequency(hits_u, kept)
    factor = batch.spec.n * math.exp(-u * u / (2.0 * sigma2)) * judge.rhs_multiplier
    return judge.result(
        "good_lambda",
        batch,
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
    batch: BatchStats, p: int, t: float | None = None, judge: Judge = Judge()
) -> Evaluation:
    """p-th moment of the running sup vs the sqrt(p + log n) weighted qv moment."""
    p = _moment_order(p)
    coeff = BDG_CONSTANT * math.sqrt(p + math.log(batch.spec.n)) * judge.rhs_multiplier
    lhs, rhs = yield judge.pair(
        "bdg",
        batch.data["sup_spectral"] ** p,
        lambda s: s ** (1.0 / p),
        batch.data["terminal_qv_norm"] ** (0.5 * p),
        lambda s: coeff * s ** (1.0 / p),
    )
    return judge.result(
        "bdg",
        batch,
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
    batch: BatchStats, p: int, t: float | None = None, judge: Judge = Judge()
) -> Evaluation:
    """Mean squared terminal 2p-norm vs (2p-1) times the quadrature mean."""
    p = _moment_order(p)
    values, quad = _schatten_samples(batch, p)
    factor = (2.0 * p - 1.0) * judge.rhs_multiplier
    lhs, rhs = yield judge.pair("schatten", values, float, quad, lambda s: factor * s)
    return judge.result(
        "schatten", batch, lhs, rhs, t=t, p=p, unstable_moment=_moment_flag(p, lhs)
    )


def schatten_rect_check(
    batch: BatchStats, p: int, t: float | None = None, judge: Judge = Judge()
) -> Evaluation:
    """Rectangular Schatten bound via the dilated process.

    The recorded dilated terminal 2p-norm relates to the rectangular
    one by a 2^(1/(2p)) factor, and the dilated quadrature integrand
    equals (||sum H H^T||_p^p + ||sum H^T H||_p^p)^(1/p) exactly.  The
    verdict uses the conservative factor 2^(-1/p)*(2p-1); the stricter
    2^(-1/p)*sqrt(2p-1) variant is reported in the metadata.
    """
    p = _moment_order(p)
    CHECK_REGISTRY["schatten_rect"].check_spec(batch.spec)
    squares, quad = _schatten_samples(batch, p)
    scale = 2.0 ** (-1.0 / p)
    factor_cons = scale * (2.0 * p - 1.0) * judge.rhs_multiplier
    factor_paper = scale * math.sqrt(2.0 * p - 1.0) * judge.rhs_multiplier
    lhs, rhs = yield judge.pair(
        "schatten_rect", squares * scale, float, quad, lambda s: factor_cons * s
    )
    rhs_paper = rhs.point * factor_paper / factor_cons if factor_cons != 0.0 else 0.0
    rhs_paper_ci = rhs.half_width * factor_paper / factor_cons if factor_cons != 0.0 else 0.0
    return judge.result(
        "schatten_rect",
        batch,
        lhs,
        rhs,
        t=t,
        p=p,
        rect_shape=batch.spec.rect_shape,
        rhs_paper=rhs_paper,
        rhs_paper_ci=rhs_paper_ci,
        holds_paper=verdict(
            lhs.point, rhs_paper, lhs.half_width, rhs_paper_ci, judge.slack_factor
        ),
        unstable_moment=_moment_flag(p, lhs),
    )


def khintchine_check(spec: IntegrandSpec, judge: Judge = Judge()) -> CheckResult:
    """Mean norm of the Gaussian matrix series against the sqrt(log n) shape.

    The displayed rhs is the constant-free shape sqrt(log n) *
    ||sum H_i^2||^(1/2); the verdict compares against the enforceable
    moment bound with the sup-norm constant (metadata ``bound_rhs``).
    The ratio lhs / ||sum H_i^2||^(1/2) drives the growth-in-n check.
    For n = 1 the shape degenerates and the verdict is skipped.
    """
    CHECK_REGISTRY["khintchine"].check_spec(spec)
    norms = exact_constant_spectral_norms(spec.matrices, judge.sample_seed, judge.samples)
    lhs = judge.mean(norms, label="khintchine lhs")
    sum_sq = aggregates(spec).sum_sq_base
    if not np.isfinite(sum_sq).all():
        raise NumericError("khintchine rhs: ||sum_i H_i^2|| is not finite")
    base = math.sqrt(spectral_norm(sum_sq))
    n = spec.n
    return judge.result(
        "khintchine",
        spec,
        lhs,
        math.sqrt(math.log(n)) * base,
        ratio=lhs.point / base if base > 0.0 else 0.0,
        bound_rhs=BDG_CONSTANT * math.sqrt(1.0 + math.log(n)) * base * judge.rhs_multiplier,
        **({"verdict": "skipped"} if n == 1 else {}),
    )


def biane_speicher_check(
    batch: BatchStats, t: float | None = None, judge: Judge = Judge()
) -> Evaluation:
    """Mean terminal norm vs 2*sqrt(2) times the root-quadrature mean."""
    if "sum_norm_quad" not in batch.data:
        raise InputDomainError("batch was not collected with the driver-sum quadrature")
    coeff = BIANE_SPEICHER_CONSTANT * judge.rhs_multiplier
    lhs, rhs = yield judge.pair(
        "biane_speicher",
        batch.data["terminal_spectral"],
        float,
        np.sqrt(batch.data["sum_norm_quad"]),
        lambda s: coeff * s,
    )
    return judge.result(
        "biane_speicher", batch, lhs, rhs, t=t, constant=BIANE_SPEICHER_CONSTANT
    )


def supermartingale_check(batch: BatchStats, beta: float, judge: Judge = Judge()) -> Evaluation:
    """Checkpoint means of Tr exp(beta*X - (beta^2/2)*qv) never increase.

    lhs/rhs are the later/earlier means of the worst consecutive
    checkpoint pair; the verdict requires every pair to be nonincreasing
    within the combined interval slack.
    """
    bi = _plan_index(batch.plan.supermartingale_betas, beta, "beta")
    cps = default_checkpoints(batch.grid.steps)
    vals = batch.data["supermart"][:, bi, :]
    ests = yield Resample(
        tuple(vals.T),  # one column view per checkpoint
        lambda means: means,
        tuple(f"supermartingale checkpoint {cp}" for cp in cps),
    )
    worst = None
    worst_excess = -math.inf
    for c in range(len(cps) - 1):
        earlier, later = ests[c], ests[c + 1]
        rhs_point = earlier.point * judge.rhs_multiplier
        rhs_ci = earlier.half_width * abs(judge.rhs_multiplier)
        excess = later.point - rhs_point - judge.slack_factor * (later.half_width + rhs_ci)
        if excess > worst_excess:
            worst_excess = excess
            worst = (c, later, rhs_point, rhs_ci)
    c, later, rhs_point, rhs_ci = worst
    return judge.result(
        "supermartingale",
        batch,
        later,
        rhs_point,
        rhs_ci,
        beta=beta,
        checkpoints=cps,
        checkpoint_means=tuple(e.point for e in ests),
        initial_value=float(vals[:, 0].mean()),
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


def _no_collectors(req) -> dict:
    return {}


def _constant_in_time(spec: IntegrandSpec) -> bool:
    return not (is_path_dependent(spec) or is_time_dependent(spec))


@dataclass(frozen=True)
class CheckKind:
    """One inequality kind: its parameters, collectors and evaluator.

    ``params`` lists, in order, the parameters a request of this kind
    takes; ``evaluate`` is called with the batch (or, when the kind does
    not need one, the integrand spec), those parameter values and a
    :class:`Judge`, see :func:`evaluate_checks`.  It returns the
    result, or for a kind that bootstraps means of the batch an
    :data:`Evaluation` that :meth:`Judge.settle` completes.
    ``collect(request)`` names the :class:`~mmlab.simulate.CollectorPlan`
    fields the request needs: a tuple of values to record, or True for
    an opt-in quadrature.  ``applies(spec)`` tells whether the kind can run on an
    integrand at all; ``requires`` words that rule as errors state it.
    """

    name: str
    params: tuple[Param, ...]
    evaluate: Callable[..., CheckResult | Evaluation]
    collect: Callable[..., dict] = _no_collectors
    needs_batch: bool = True
    requires: str = ""
    applies: Callable[[IntegrandSpec], bool] = _any_value

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

    def check_spec(self, spec: IntegrandSpec, field: str | None = None) -> None:
        """Raise InputDomainError, naming ``field``, unless the kind applies to ``spec``."""
        if not self.applies(spec):
            raise InputDomainError(f"{self.name} check requires {self.requires}", field=field)


def _sigma2_level(req) -> dict:
    return {"sigma2_levels": (req.sigma2,)}


def _schatten_orders(req) -> dict:
    return {"schatten_orders": (2.0 * req.p,), "quad_schatten_orders": (float(req.p),)}


def _sum_norm_quad(req) -> dict:
    return {"sum_norm_quad": True}


def _supermartingale(req) -> dict:
    return {"supermartingale_betas": (req.beta,)}


CHECK_REGISTRY: dict[str, CheckKind] = {
    kind.name: kind
    for kind in (
        CheckKind("freedman", (U_POSITIVE, SIGMA2), freedman_check, _sigma2_level),
        CheckKind("good_lambda", (U_NONNEGATIVE, SIGMA2), good_lambda_check, _sigma2_level),
        CheckKind("bdg", (ORDER, HORIZON), bdg_check),
        CheckKind("schatten", (ORDER, HORIZON), schatten_check, _schatten_orders),
        CheckKind(
            "schatten_rect",
            (ORDER, HORIZON),
            schatten_rect_check,
            _schatten_orders,
            requires="integrand.family rect_constant",
            applies=lambda spec: spec.rect_shape is not None,
        ),
        CheckKind(
            "khintchine",
            (),
            khintchine_check,
            needs_batch=False,
            requires="a constant-in-time integrand",
            applies=_constant_in_time,
        ),
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
        """Whether the check reads a simulated batch."""
        return CHECK_REGISTRY[self.kind].needs_batch

    def collectors(self) -> dict:
        """The CollectorPlan fields this check needs."""
        return CHECK_REGISTRY[self.kind].collect(self)

    def check_spec(self, spec: IntegrandSpec, field: str | None = None) -> None:
        """Raise InputDomainError, naming ``field``, unless this check applies to ``spec``."""
        CHECK_REGISTRY[self.kind].check_spec(spec, field)


def evaluate_checks(config: ExperimentConfig, batch: BatchStats | None) -> list[CheckResult]:
    """Run every requested check against one shared batch.

    One :class:`Judge` built from the config judges every check.  A run
    resamples the batch's paths once: every bootstrap mean of every
    check that reads the batch is gathered from one index stream, seeded
    by ``bootstrap_seed(config, 0)``, so a check's intervals depend only
    on that seed and its own samples, not on its position or on the
    other checks.  A kind that needs no batch draws its own sample of
    ``config.paths`` from the integrand spec; as check i it seeds that
    sample by ``bootstrap_seed(config, 2i + 1)`` and resamples it on
    stream ``bootstrap_seed(config, 2i)``.  So results are reproducible
    and independent of evaluation parallelism.  Overflow warns nothing:
    the checks refuse non-finite values by name.
    """
    judge = Judge(
        confidence=config.confidence,
        slack_factor=config.slack_factor,
        rhs_multiplier=config.rhs_multiplier,
        resamples=config.bootstrap_resamples,
        seed=bootstrap_seed(config, 0),
        samples=config.paths,
    )
    evaluations = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, req in enumerate(config.checks):
            kind = CHECK_REGISTRY[req.kind]
            params = [getattr(req, p.name) for p in kind.params]
            if not kind.needs_batch:
                own = replace(
                    judge,
                    seed=bootstrap_seed(config, 2 * i),
                    sample_seed=bootstrap_seed(config, 2 * i + 1),
                )
                evaluations.append(kind.evaluate(config.spec, *params, own))
            elif batch is None:
                raise InputDomainError(f"check '{req.kind}' requires a simulated batch")
            else:
                evaluations.append(kind.evaluate(batch, *params, judge))
        return judge.settle(evaluations)


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
