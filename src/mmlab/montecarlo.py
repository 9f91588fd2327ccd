"""Reproducible batch execution and interval estimation.

Reproducibility contract: every number produced by a batch depends only
on (integrand spec, grid, master seed, path index).  Per-path seeds are
derived by a counter-based 64-bit avalanche, and path j's Brownian
increments are ``default_rng(seed_j).standard_normal((steps, drivers)) *
sqrt(dt)`` (numpy's PCG64 seeded through SeedSequence), so the partition
of paths into blocks and the number of workers never changes any output
bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import BatchError, InputDomainError, NumericError
from .integrands import IntegrandSpec, validate_spec
from .simulate import (
    MASK64,
    SPLITMIX_GAMMA,
    CollectorPlan,
    TimeGrid,
    simulate_block,
    splitmix64,
)

if TYPE_CHECKING:
    from .checks import CheckRequest

# offset namespace for auxiliary seed streams (bootstrap); path indices
# stay far below this
STREAM_OFFSET = 1 << 48

# bootstrap resamples are drawn and gathered in blocks of about this many
# elements: large enough to amortise the per-call overhead, small enough
# that each block's index and gathered arrays stay under glibc's default
# 128 KiB mmap threshold and reuse heap pages instead of faulting new ones
BOOTSTRAP_BLOCK_ELEMENTS = 15_000


def derive_path_seed(master: int, index: int) -> int:
    """Counter-derived 64-bit stream seed for one path.

    splitmix64 avalanche of master + (index+1) * golden-ratio constant;
    pure in (master, index), so execution order is irrelevant.
    """
    if index < 0:
        raise InputDomainError(f"path index must be >= 0, got {index}")
    return int(derive_path_seeds(master, index, index + 1)[0])


def derive_path_seeds(master: int, start: int, stop: int) -> np.ndarray:
    """Vectorized derive_path_seed for indices start..stop-1."""
    if start < 0 or stop < start:
        raise InputDomainError(f"bad index range [{start}, {stop})")
    idx = np.arange(start + 1, stop + 1, dtype=np.uint64)
    return splitmix64(np.uint64(int(master) & MASK64) + idx * np.uint64(SPLITMIX_GAMMA))


@dataclass(frozen=True)
class EstimateCI:
    """Point estimate with a confidence interval."""

    point: float
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.point <= self.hi):
            raise InputDomainError(
                f"interval [{self.lo}, {self.hi}] does not contain point {self.point}"
            )

    @property
    def half_width(self) -> float:
        return 0.5 * (self.hi - self.lo)


# Cephes ndtri (as shipped in scipy.special): rational approximations of
# the standard normal quantile on |y - 1/2| <= 3/8, on z = sqrt(-2 log y)
# in [2, 8) and on z in [8, 64).  Kept bit-identical to scipy so that the
# Wilson intervals do not depend on scipy being installed.  The Q
# denominators lead with the implicit 1 of Cephes' p1evl (1*x is exact).
_NDTRI_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0,
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0,
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    1.0,
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)
_SQRT_2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189


def _polevl(x: float, coef) -> float:
    """Horner evaluation, highest-degree coefficient first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF (Cephes ndtri)."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x


def wilson_interval(successes: int, trials: int, confidence: float = 0.99) -> EstimateCI:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InputDomainError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise InputDomainError(f"successes {successes} outside [0, {trials}]")
    if not 0.0 < confidence < 1.0:
        raise InputDomainError(f"confidence must be in (0, 1), got {confidence}")
    z = _ndtri(1.0 - 0.5 * (1.0 - confidence))
    phat = successes / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (phat + 0.5 * z2n) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2n / (4.0 * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return EstimateCI(point=phat, lo=min(lo, phat), hi=max(hi, phat))


def bootstrap_ci(
    values,
    statistic=float,
    resamples: int = 1000,
    confidence: float = 0.99,
    seed: int = 0,
    *,
    label: str | tuple[str, ...] = "values",
) -> EstimateCI | tuple[EstimateCI, ...]:
    """Percentile bootstrap interval for statistic(mean(values)).

    ``values`` is a 1-D sample, or a tuple of equal-length 1-D samples
    taken on the same units (paths).  Callers apply any elementwise
    transform first and pass the rest as ``statistic``: a map of one
    float, or for a tuple a map of the tuple of means (Python floats) to
    a tuple of values, one per sample.  It is called once for the point
    estimate and once per resample.  Every sample shares one index
    stream: each resample's m indices follow on from the previous one's
    in the ``default_rng(seed)`` stream, as a per-resample loop would
    draw them, and are drawn once, in blocks of rows, for all samples.
    So a sample's interval is the one it would get in a call of its own
    on ``seed``, whatever other samples come with it, and one call can
    serve every check of a run (:meth:`mmlab.checks.Judge.settle`).
    A constant sample gets a zero-width interval and is not gathered.
    The bounds are np.quantile's default percentiles of the resample
    statistics.  Each interval is widened (never narrowed) to contain
    its point estimate.  Non-finite values or statistics raise
    NumericError naming the sample's label (``label`` is one label per
    sample for a tuple).
    Returns one EstimateCI, or a tuple of them for a tuple of samples.
    """
    joint = isinstance(values, tuple)
    arrs = [np.asarray(v, dtype=np.float64) for v in (values if joint else (values,))]
    labels = label if joint else (label,)
    evaluate = statistic if joint else (lambda means: (statistic(means[0]),))
    if isinstance(labels, str) or len(labels) != len(arrs):
        raise InputDomainError(f"bootstrap needs one label per sample, got {labels!r}")
    for arr in arrs:
        if arr.ndim != 1:
            raise InputDomainError(f"bootstrap needs a 1-D sample, got shape {arr.shape}")
    m = arrs[0].shape[0]
    if any(arr.shape[0] != m for arr in arrs):
        lengths = [arr.shape[0] for arr in arrs]
        raise InputDomainError(f"bootstrap samples differ in length: {lengths}")
    if m < 100:
        raise InputDomainError(f"bootstrap needs >= 100 samples, got {m}")
    if resamples < 100:
        raise InputDomainError(f"bootstrap needs >= 100 resamples, got {resamples}")
    if not 0.0 < confidence < 1.0:
        raise InputDomainError(f"confidence must be in (0, 1), got {confidence}")
    for arr, name in zip(arrs, labels):
        bad = m - int(np.count_nonzero(np.isfinite(arr)))
        if bad:
            raise NumericError(f"{name}: {bad} of {m} values are not finite")
    means = [float(np.mean(arr)) for arr in arrs]
    points = [float(s) for s in evaluate(tuple(means))]
    if len(points) != len(arrs):
        raise InputDomainError(f"statistic gave {len(points)} values for {len(arrs)} samples")
    for point, name in zip(points, labels):
        if not math.isfinite(point):
            raise NumericError(f"{name}: point estimate {point} is not finite")
    varying = [j for j, arr in enumerate(arrs) if not np.all(arr == arr[0])]
    bounds = [(point, point) for point in points]
    if varying:
        stats = _resample_statistics(arrs, means, varying, evaluate, resamples, seed)
        ordered = np.sort(stats[:, varying], axis=0)
        alpha = 0.5 * (1.0 - confidence)
        for column, j in zip(ordered.T, varying):
            if not np.all(np.isfinite(column)):
                raise NumericError(f"{labels[j]}: a bootstrap resample gave a non-finite statistic")
            bounds[j] = _percentile(column, alpha), _percentile(column, 1.0 - alpha)
    intervals = tuple(
        EstimateCI(point=point, lo=min(lo, point), hi=max(hi, point))
        for point, (lo, hi) in zip(points, bounds)
    )
    return intervals if joint else intervals[0]


def _percentile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(ordered, q)`` of a sorted 1-D sample, bit for bit.

    numpy's default "linear" method: the order statistics around the
    virtual index (m - 1) * q are interpolated as numpy's ``_lerp`` does,
    from the lower one below a fraction of 0.5 and back from the upper
    one from 0.5 up.  np.quantile itself calls np.unique, which imports
    numpy.ma on its first call.
    """
    virtual = (ordered.shape[0] - 1) * q
    if virtual >= ordered.shape[0] - 1:
        return float(ordered[-1])
    below = math.floor(virtual)
    lo, hi = float(ordered[below]), float(ordered[below + 1])
    t = virtual - below
    diff = hi - lo
    return hi - diff * (1.0 - t) if t >= 0.5 else lo + diff * t


def _resample_statistics(arrs, means, varying, evaluate, resamples: int, seed: int) -> np.ndarray:
    """(resamples, samples) statistics of the resample means, on one index stream.

    Each block of rows draws its indices once; every sample in
    ``varying`` is gathered and averaged with them, and a constant
    sample keeps its own mean.  The statistic runs per block, so at most
    one block's means are Python floats at a time.
    """
    m = arrs[0].shape[0]
    rng = np.random.default_rng(seed)
    rows = max(1, BOOTSTRAP_BLOCK_ELEMENTS // m)
    stats = np.empty((resamples, len(arrs)))
    block_means = np.empty((min(rows, resamples), len(arrs)))
    block_means[:] = means
    # one gather buffer for every block and sample: a fresh one per block
    # of a large sample is a fresh mmap, and faults its pages in again
    # each time ("clip" never clips these indices; it only spares take a
    # temporary)
    gathered = np.empty((min(rows, resamples), m))
    for start in range(0, resamples, rows):
        stop = min(start + rows, resamples)
        block = gathered[: stop - start]
        rows_means = block_means[: stop - start]
        index = rng.integers(0, m, size=block.shape)
        for j in varying:
            np.take(arrs[j], index, out=block, mode="clip")
            # block.mean(axis=1) to the bit, without its Python-level wrapper
            rows_means[:, j] = np.add.reduce(block, axis=1) / m
        stats[start:stop] = [evaluate(tuple(row)) for row in rows_means.tolist()]
    return stats


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a batch run depends on (reproducibility boundary).

    Every check must apply to ``spec`` and needs ``paths >= 100``; an
    invalid value raises InputDomainError naming its ``field``.
    """

    spec: IntegrandSpec
    grid: TimeGrid
    paths: int
    master_seed: int
    checks: tuple[CheckRequest, ...] = ()
    bootstrap_resamples: int = 1000
    confidence: float = 0.99
    slack_factor: float = 3.0
    block_size: int = 4096
    rhs_multiplier: float = 1.0

    def __post_init__(self):
        validate_spec(self.spec)
        if self.checks and self.paths < 100:
            raise InputDomainError("paths must be >= 100 for probabilistic checks", "paths")
        if self.paths < 1:
            raise InputDomainError(f"paths must be >= 1, got {self.paths}", "paths")
        if not 0 <= int(self.master_seed) <= MASK64:
            raise InputDomainError("master_seed must fit in 64 bits", "master_seed")
        if self.bootstrap_resamples < 100:
            raise InputDomainError("bootstrap_resamples must be >= 100", "bootstrap_resamples")
        if not 0.0 < self.confidence < 1.0:
            raise InputDomainError(
                f"confidence must be in (0, 1), got {self.confidence}", "confidence"
            )
        if not (math.isfinite(self.slack_factor) and self.slack_factor >= 0.0):
            raise InputDomainError(
                f"slack_factor must be finite and >= 0, got {self.slack_factor}", "slack_factor"
            )
        if not math.isfinite(self.rhs_multiplier):
            raise InputDomainError(
                f"rhs_multiplier must be finite, got {self.rhs_multiplier}", "rhs_multiplier"
            )
        if self.block_size < 1:
            raise InputDomainError("block_size must be >= 1", "block_size")
        for i, c in enumerate(self.checks):
            if c.t is not None and not math.isclose(c.t, self.grid.horizon):
                raise InputDomainError(
                    f"check time {c.t} must equal the grid horizon {self.grid.horizon}",
                    f"checks[{i}]",
                )
            c.check_spec(self.spec, f"checks[{i}]")


def plan_for_config(config: ExperimentConfig) -> CollectorPlan:
    """The union of the engine collectors that the requested checks name."""
    fields: dict = {}
    for c in config.checks:
        for name, value in c.collectors().items():
            if isinstance(value, bool):
                fields[name] = fields.get(name, False) or value
            else:
                fields[name] = tuple(sorted({*fields.get(name, ()), *value}))
    return CollectorPlan(**fields)


@dataclass(frozen=True)
class BatchStats:
    """Per-path statistics of one simulated batch, excluded rows removed.

    ``data`` maps collector names to arrays whose first axis indexes the
    kept paths in ascending path-index order.
    """

    spec: IntegrandSpec
    grid: TimeGrid
    plan: CollectorPlan
    path_count: int
    excluded_count: int
    data: dict[str, np.ndarray] = field(repr=False)

    @property
    def kept_count(self) -> int:
        return self.path_count - self.excluded_count


# fork lets pool workers inherit the imported modules instead of
# importing numpy and mmlab again (mmlab starts no threads of its own,
# and OpenBLAS restarts its pool in a forked child); spawn where fork is
# unsafe (macOS) or missing (Windows)
START_METHOD = "spawn" if sys.platform in ("darwin", "win32") else "fork"


def _share_task(args):
    """simulate_block on consecutive pieces of at most block_size paths
    of one worker's share; the piece outputs in path order."""
    spec, grid, seeds, plan, block_size = args
    return [
        simulate_block(spec, grid, seeds[s : s + block_size], plan)
        for s in range(0, len(seeds), block_size)
    ]


def run_batch(config: ExperimentConfig, workers: int = 1) -> BatchStats:
    """Simulate config.paths trajectories and gather per-path statistics.

    The path indices are cut into min(workers, blocks) contiguous,
    near-equal shares, one per process, where blocks is
    ceil(paths / block_size).  Each process simulates its share in
    pieces of at most ``config.block_size`` paths, so at one worker the
    pieces are the consecutive blocks of ``block_size`` paths.  Results
    are stitched back in path order, so the output is identical for
    every worker count.  The collectors are those of
    :func:`plan_for_config`.  Exclusion above 0.1% of paths raises
    BatchError.
    """
    if workers < 1:
        raise InputDomainError(f"workers must be >= 1, got {workers}")
    plan = plan_for_config(config)
    paths = config.paths
    seeds = derive_path_seeds(config.master_seed, 0, paths)
    count = min(workers, -(-paths // config.block_size))
    bounds = [paths * j // count for j in range(count + 1)]
    tasks = [
        (config.spec, config.grid, seeds[lo:hi], plan, config.block_size)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    if count == 1:
        shares = [_share_task(t) for t in tasks]
    else:
        # imported here: a one-worker run never pays for it
        import multiprocessing

        with multiprocessing.get_context(START_METHOD).Pool(processes=count) as pool:
            shares = pool.map(_share_task, tasks)
    blocks = [b for share in shares for b in share]

    merged: dict[str, np.ndarray] = {}
    for key in blocks[0]:
        merged[key] = np.concatenate([b[key] for b in blocks], axis=0)
    excluded = merged.pop("excluded")
    excluded_count = int(excluded.sum())
    if excluded_count > 0.001 * paths:
        err = BatchError(
            f"{excluded_count} of {paths} paths excluded (non-finite state or statistic); "
            "exclusion rate exceeds 0.1%"
        )
        err.excluded = excluded_count
        raise err
    keep = ~excluded
    data = {k: v[keep] for k, v in merged.items()}
    return BatchStats(
        spec=config.spec,
        grid=config.grid,
        plan=plan,
        path_count=paths,
        excluded_count=excluded_count,
        data=data,
    )


def bootstrap_seed(config: ExperimentConfig, stream: int) -> int:
    """Seed for auxiliary stream number `stream` of the run.

    Stream 0 resamples the batch's paths for every check; a check that
    draws its own sample, as check i, takes streams 2i and 2i + 1 (see
    :func:`mmlab.checks.evaluate_checks`).  Lives in a disjoint index
    namespace (offset 2^48) from path seeds.
    """
    return derive_path_seed(config.master_seed, STREAM_OFFSET + stream)

