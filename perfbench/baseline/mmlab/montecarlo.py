"""Reproducible batch execution and interval estimation.

Reproducibility contract: every number produced by a batch depends only
on (integrand spec, grid, master seed, path index).  Per-path seeds are
derived by a counter-based 64-bit avalanche, so the partition of paths
into blocks and the number of workers never changes any output bit.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtri

from .errors import BatchError, InputDomainError
from .integrands import IntegrandSpec, validate_spec
from .simulate import CollectorPlan, TimeGrid, default_checkpoints, simulate_block

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# offset namespace for auxiliary seed streams (bootstrap); path indices
# stay far below this
STREAM_OFFSET = 1 << 48

CHECK_KINDS = (
    "freedman",
    "good_lambda",
    "bdg",
    "schatten",
    "schatten_rect",
    "khintchine",
    "biane_speicher",
    "supermartingale",
)

# checks whose lhs/rhs come from simulated batches rather than closed
# forms; these enforce the minimum path count
PROBABILISTIC_KINDS = frozenset(CHECK_KINDS) - {"khintchine"}


def derive_path_seed(master: int, index: int) -> int:
    """Counter-derived 64-bit stream seed for one path.

    splitmix64 avalanche of master + (index+1) * golden-ratio constant;
    pure in (master, index), so execution order is irrelevant.
    """
    if index < 0:
        raise InputDomainError(f"path index must be >= 0, got {index}")
    z = (int(master) + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_path_seeds(master: int, start: int, stop: int) -> np.ndarray:
    """Vectorized derive_path_seed for indices start..stop-1."""
    if start < 0 or stop < start:
        raise InputDomainError(f"bad index range [{start}, {stop})")
    idx = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z = (np.uint64(int(master) & _MASK64) + idx * np.uint64(_GOLDEN)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class EstimateCI:
    """Point estimate with a confidence interval."""

    point: float
    lo: float
    hi: float
    method: str

    def __post_init__(self):
        if not (self.lo <= self.point <= self.hi):
            raise InputDomainError(
                f"interval [{self.lo}, {self.hi}] does not contain point {self.point}"
            )

    @property
    def half_width(self) -> float:
        return 0.5 * (self.hi - self.lo)


def exact_estimate(value: float) -> EstimateCI:
    return EstimateCI(point=value, lo=value, hi=value, method="exact")


def wilson_interval(successes: int, trials: int, confidence: float = 0.99) -> EstimateCI:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InputDomainError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise InputDomainError(f"successes {successes} outside [0, {trials}]")
    if not 0.0 < confidence < 1.0:
        raise InputDomainError(f"confidence must be in (0, 1), got {confidence}")
    z = float(ndtri(1.0 - 0.5 * (1.0 - confidence)))
    phat = successes / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (phat + 0.5 * z2n) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2n / (4.0 * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return EstimateCI(point=phat, lo=min(lo, phat), hi=max(hi, phat), method="wilson")


def bootstrap_ci(
    values,
    statistic=np.mean,
    resamples: int = 1000,
    confidence: float = 0.99,
    seed: int = 0,
) -> EstimateCI:
    """Percentile bootstrap interval for statistic(values).

    ``values`` is (m,) or (m, d); rows are resampled jointly.  The
    returned interval is widened (never narrowed) to contain the point
    estimate, and the resampling stream is fixed by ``seed``.
    """
    arr = np.asarray(values, dtype=np.float64)
    m = arr.shape[0]
    if m < 100:
        raise InputDomainError(f"bootstrap needs >= 100 samples, got {m}")
    if resamples < 100:
        raise InputDomainError(f"bootstrap needs >= 100 resamples, got {resamples}")
    if not 0.0 < confidence < 1.0:
        raise InputDomainError(f"confidence must be in (0, 1), got {confidence}")
    point = float(statistic(arr))
    if arr.ndim == 1 and np.all(arr == arr[0]):
        return EstimateCI(point=point, lo=point, hi=point, method="bootstrap")
    rng = np.random.default_rng(seed)
    stats = np.empty(resamples)
    for r in range(resamples):
        stats[r] = statistic(arr[rng.integers(0, m, size=m)])
    alpha = 0.5 * (1.0 - confidence)
    lo = float(np.quantile(stats, alpha))
    hi = float(np.quantile(stats, 1.0 - alpha))
    return EstimateCI(point=point, lo=min(lo, point), hi=max(hi, point), method="bootstrap")


@dataclass(frozen=True)
class CheckRequest:
    """One requested inequality check with its parameters.

    Unused parameters stay None; `t` defaults to the grid horizon.
    """

    kind: str
    u: float | None = None
    sigma2: float | None = None
    p: int | None = None
    beta: float | None = None
    t: float | None = None

    def __post_init__(self):
        if self.kind not in CHECK_KINDS:
            raise InputDomainError(
                f"unknown check kind '{self.kind}'; expected one of {CHECK_KINDS}"
            )
        if self.kind in ("freedman", "good_lambda"):
            if self.u is None or self.sigma2 is None:
                raise InputDomainError(f"{self.kind} check requires u and sigma2")
            if self.sigma2 <= 0.0:
                raise InputDomainError(f"{self.kind} check requires sigma2 > 0")
            if self.kind == "freedman" and self.u <= 0.0:
                raise InputDomainError("freedman check requires u > 0")
            if self.kind == "good_lambda" and self.u < 0.0:
                raise InputDomainError("good_lambda check requires u >= 0")
        if self.kind in ("bdg", "schatten", "schatten_rect"):
            if self.p is None or self.p < 1 or int(self.p) != self.p:
                raise InputDomainError(f"{self.kind} check requires integer p >= 1")
        if self.kind == "supermartingale" and self.beta is None:
            raise InputDomainError("supermartingale check requires beta")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a batch run depends on (reproducibility boundary)."""

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
        if any(c.kind in PROBABILISTIC_KINDS for c in self.checks) and self.paths < 100:
            raise InputDomainError("paths must be >= 100 for probabilistic checks")
        if self.paths < 1:
            raise InputDomainError(f"paths must be >= 1, got {self.paths}")
        if not 0 <= int(self.master_seed) <= _MASK64:
            raise InputDomainError("master_seed must fit in 64 bits")
        if self.bootstrap_resamples < 100:
            raise InputDomainError("bootstrap_resamples must be >= 100")
        if not 0.0 < self.confidence < 1.0:
            raise InputDomainError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.slack_factor < 0.0:
            raise InputDomainError("slack_factor must be >= 0")
        if self.block_size < 1:
            raise InputDomainError("block_size must be >= 1")
        for c in self.checks:
            if c.t is not None and not math.isclose(c.t, self.grid.horizon):
                raise InputDomainError(
                    f"check time {c.t} must equal the grid horizon {self.grid.horizon}"
                )


def plan_for_config(config: ExperimentConfig) -> CollectorPlan:
    """Map the requested checks onto engine collectors."""
    sigma2 = sorted({c.sigma2 for c in config.checks if c.sigma2 is not None})
    betas = sorted({c.beta for c in config.checks if c.kind == "supermartingale"})
    schatten_orders = sorted(
        {2.0 * c.p for c in config.checks if c.kind in ("schatten", "schatten_rect")}
    )
    quad_orders = sorted(
        {float(c.p) for c in config.checks if c.kind in ("schatten", "schatten_rect")}
    )
    return CollectorPlan(
        sigma2_levels=tuple(sigma2),
        supermartingale_betas=tuple(betas),
        checkpoints=default_checkpoints(config.grid.steps) if betas else (),
        schatten_orders=tuple(schatten_orders),
        quad_schatten_orders=tuple(quad_orders),
        sum_norm_quad=any(c.kind == "biane_speicher" for c in config.checks),
    )


@dataclass(frozen=True)
class BatchStats:
    """Per-path statistics of one simulated batch, excluded rows removed.

    ``data`` maps collector names to arrays whose first axis indexes the
    kept paths in ascending path-index order.
    """

    spec: IntegrandSpec
    grid: TimeGrid
    plan: CollectorPlan
    master_seed: int
    path_count: int
    excluded_count: int
    data: dict[str, np.ndarray] = field(repr=False)

    @property
    def kept_count(self) -> int:
        return self.path_count - self.excluded_count


def _block_task(args):
    spec, grid, seeds, plan = args
    return simulate_block(spec, grid, seeds, plan)


def run_batch(
    config: ExperimentConfig, plan: CollectorPlan | None = None, workers: int = 1
) -> BatchStats:
    """Simulate config.paths trajectories and gather per-path statistics.

    Blocks of ``config.block_size`` consecutive path indices are farmed
    out to workers; results are stitched back by index, so the output
    is identical for every worker count.  Exclusion above 0.1% of paths
    raises BatchError.
    """
    if workers < 1:
        raise InputDomainError(f"workers must be >= 1, got {workers}")
    if plan is None:
        plan = plan_for_config(config)
    paths = config.paths
    seeds = derive_path_seeds(config.master_seed, 0, paths)
    starts = list(range(0, paths, config.block_size))
    tasks = [
        (config.spec, config.grid, seeds[s : min(s + config.block_size, paths)], plan)
        for s in starts
    ]
    if workers == 1 or len(tasks) == 1:
        blocks = [_block_task(t) for t in tasks]
    else:
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=min(workers, len(tasks))) as pool:
            blocks = pool.map(_block_task, tasks)

    merged: dict[str, np.ndarray] = {}
    for key in blocks[0]:
        merged[key] = np.concatenate([b[key] for b in blocks], axis=0)
    excluded = merged.pop("excluded")
    excluded_count = int(excluded.sum())
    if excluded_count > 0.001 * paths:
        err = BatchError(
            f"{excluded_count} of {paths} paths excluded (non-finite state); "
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
        master_seed=int(config.master_seed),
        path_count=paths,
        excluded_count=excluded_count,
        data=data,
    )


def bootstrap_seed(config: ExperimentConfig, check_index: int) -> int:
    """Seed for the bootstrap stream of check number `check_index`.

    Lives in a disjoint index namespace (offset 2^48) from path seeds.
    """
    return derive_path_seed(config.master_seed, STREAM_OFFSET + check_index)


def with_paths(config: ExperimentConfig, paths: int) -> ExperimentConfig:
    return replace(config, paths=paths)
