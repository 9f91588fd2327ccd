import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ndtri

import mmlab
import mmlab.montecarlo as montecarlo
from mmlab.checks import CheckRequest
from mmlab.errors import BatchError, InputDomainError, NumericError
from mmlab.integrands import constant_spec, goe_like_spec, path_feedback_spec, time_poly_spec
from mmlab.linalg import spectral_norm
from mmlab.montecarlo import (
    EstimateCI,
    ExperimentConfig,
    BOOTSTRAP_BLOCK_ELEMENTS,
    _ndtri,
    bootstrap_ci,
    bootstrap_seed,
    derive_path_seed,
    derive_path_seeds,
    plan_for_config,
    run_batch,
    wilson_interval,
    STREAM_OFFSET,
)
from mmlab.simulate import TimeGrid

from .oracles import loop_bootstrap_ci, reference_path, summarize


def small_config(**kw):
    defaults = dict(
        spec=goe_like_spec(2, 2, seed=1),
        grid=TimeGrid(1.0, 64),
        paths=400,
        master_seed=2024,
        checks=(CheckRequest(kind="freedman", u=1.0, sigma2=4.0),),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestSeeds:
    def test_deterministic(self):
        assert derive_path_seed(42, 7) == derive_path_seed(42, 7)

    def test_no_collisions_million_pairs(self):
        a = derive_path_seeds(10**9, 0, 500_000)
        b = derive_path_seeds(10**9 + 1, 0, 500_000)
        combined = np.concatenate([a, b])
        assert len(np.unique(combined)) == 1_000_000

    def test_vectorized_matches_scalar(self):
        got = derive_path_seeds(987654321, 5, 25)
        for j, idx in enumerate(range(5, 25)):
            assert int(got[j]) == derive_path_seed(987654321, idx)

    def test_negative_index_rejected(self):
        with pytest.raises(InputDomainError):
            derive_path_seed(1, -1)

    def test_bootstrap_stream_disjoint_from_paths(self):
        config = small_config()
        assert bootstrap_seed(config, 0) == derive_path_seed(
            config.master_seed, STREAM_OFFSET
        )


class TestWilson:
    def test_zero_successes(self):
        ci = wilson_interval(0, 100, confidence=0.95)
        assert ci.lo == 0.0 and ci.point == 0.0
        assert ci.hi == pytest.approx(0.0370, abs=3e-4)

    def test_half_sample(self):
        ci = wilson_interval(50, 100, confidence=0.95)
        assert ci.lo == pytest.approx(0.404, abs=2e-3)
        assert ci.hi == pytest.approx(0.596, abs=2e-3)

    def test_all_successes(self):
        assert wilson_interval(100, 100, confidence=0.99).hi == 1.0

    def test_contains_proportion(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(0, n + 1))
            ci = wilson_interval(k, n, confidence=0.99)
            assert 0.0 <= ci.lo <= k / n <= ci.hi <= 1.0

    def test_invalid_counts(self):
        with pytest.raises(InputDomainError):
            wilson_interval(5, 4)
        with pytest.raises(InputDomainError):
            wilson_interval(-1, 4)
        with pytest.raises(InputDomainError):
            wilson_interval(1, 0)

    def test_invalid_confidence(self):
        with pytest.raises(InputDomainError):
            wilson_interval(1, 10, confidence=1.0)


class TestBootstrap:
    def test_constant_sample_degenerates(self):
        ci = bootstrap_ci(np.full(500, 3.25), seed=1)
        assert ci.lo == ci.hi == ci.point == 3.25

    def test_contains_point(self):
        # statistic(mean of a resample): identity, root mean square, and a
        # decreasing map, whose percentiles come out in reverse order
        rng = np.random.default_rng(9)
        sample = rng.lognormal(size=2000)
        cases = (
            (sample, float),
            (sample**2, lambda s: s**0.5),
            (sample, lambda s: -3.0 * s),
        )
        for values, stat in cases:
            ci = bootstrap_ci(values, stat, resamples=200, seed=3)
            assert ci.lo <= ci.point <= ci.hi
            assert ci.lo < ci.hi

    def test_coverage_of_normal_mean(self):
        # 99% intervals over 100 seeded meta-trials trap 0 at least 98 times
        rng = np.random.default_rng(7)
        contain = 0
        for trial in range(100):
            sample = rng.standard_normal(10**4)
            ci = bootstrap_ci(sample, float, resamples=1000, confidence=0.99, seed=trial)
            contain += ci.lo <= 0.0 <= ci.hi
        assert contain >= 98

    def test_width_clt_scaling(self):
        rng = np.random.default_rng(11)
        big = rng.standard_normal(4000)
        w_small = bootstrap_ci(big[:1000], float, resamples=600, seed=5).half_width
        w_big = bootstrap_ci(big, float, resamples=600, seed=6).half_width
        assert 1.5 <= w_small / w_big <= 2.5

    def test_deterministic_in_seed(self):
        sample = np.random.default_rng(2).standard_normal(300)
        a = bootstrap_ci(sample, float, seed=42)
        b = bootstrap_ci(sample, float, seed=42)
        assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_too_few_samples(self):
        with pytest.raises(InputDomainError, match=">= 100 samples"):
            bootstrap_ci(np.ones(50))

    def test_too_few_resamples(self):
        with pytest.raises(InputDomainError, match=">= 100 resamples"):
            bootstrap_ci(np.ones(200), resamples=10)

    def test_rejects_two_dimensional_sample(self):
        with pytest.raises(InputDomainError, match="1-D sample"):
            bootstrap_ci(np.ones((200, 2)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_raise_numeric_error(self, bad):
        sample = np.random.default_rng(4).standard_normal(300)
        sample[17] = bad
        with pytest.raises(NumericError, match="bdg rhs: 1 of 300 values are not finite"):
            bootstrap_ci(sample, label="bdg rhs")

    def test_non_finite_statistic_raises_numeric_error(self):
        sample = np.random.default_rng(4).lognormal(size=300)
        with pytest.raises(NumericError, match="schatten lhs: point estimate"):
            bootstrap_ci(sample, lambda s: s * 1e308 * 10.0, label="schatten lhs")

    def test_statistic_called_once_per_resample_plus_point(self):
        calls = []
        sample = np.random.default_rng(4).standard_normal(300)
        bootstrap_ci(sample, lambda s: calls.append(type(s)) or s, resamples=157)
        assert len(calls) == 158 and set(calls) == {float}

    def test_joint_statistic_called_once_per_resample_plus_point(self):
        # one statistic for a tuple of samples, called with a tuple of
        # Python floats: the count perfbench's tracer reads as resamples
        calls = []
        rng = np.random.default_rng(4)
        samples = (rng.standard_normal(300), np.full(300, 2.0), rng.lognormal(size=300))
        bootstrap_ci(samples, lambda s: calls.append(s) or s, resamples=157, label=("a", "b", "c"))
        assert len(calls) == 158
        assert {type(s) for s in calls} == {tuple}
        assert {type(v) for s in calls for v in s} == {float} and {len(s) for s in calls} == {3}

    def test_joint_returns_one_interval_per_sample(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal(400), rng.lognormal(size=400)
        lhs, rhs = bootstrap_ci((a, b), lambda s: (s[0], -2.0 * s[1]), label=("x", "y"))
        assert lhs.lo < lhs.point == float(np.mean(a)) < lhs.hi
        assert rhs.lo < rhs.point == -2.0 * float(np.mean(b)) < rhs.hi

    def test_joint_all_constant_draws_nothing(self):
        calls = []
        cis = bootstrap_ci(
            (np.full(200, 1.5), np.full(200, -2.0)),
            lambda s: calls.append(s) or s,
            label=("a", "b"),
        )
        assert calls == [(1.5, -2.0)]
        assert [(c.lo, c.point, c.hi) for c in cis] == [(1.5, 1.5, 1.5), (-2.0, -2.0, -2.0)]

    def test_joint_rejects_two_dimensional_sample(self):
        with pytest.raises(InputDomainError, match="1-D sample"):
            bootstrap_ci((np.ones(200), np.ones((200, 2))), lambda s: s, label=("a", "b"))

    def test_joint_rejects_samples_of_different_lengths(self):
        with pytest.raises(InputDomainError, match="differ in length"):
            bootstrap_ci((np.ones(200), np.ones(201)), lambda s: s, label=("a", "b"))

    @pytest.mark.parametrize("label", [("a",), "ab"])
    def test_joint_needs_one_label_per_sample(self, label):
        with pytest.raises(InputDomainError, match="one label per sample"):
            bootstrap_ci((np.ones(200), np.ones(200)), lambda s: s, label=label)

    def test_joint_statistic_gives_one_value_per_sample(self):
        with pytest.raises(InputDomainError, match="1 values for 2 samples"):
            bootstrap_ci((np.ones(200), np.ones(200)), lambda s: s[:1], label=("a", "b"))

    def test_joint_non_finite_values_name_their_sample(self):
        rng = np.random.default_rng(4)
        bad = rng.standard_normal(300)
        bad[5] = math.nan
        with pytest.raises(NumericError, match="supermartingale checkpoint 37: 1 of 300"):
            bootstrap_ci(
                (rng.standard_normal(300), bad),
                lambda s: s,
                label=("supermartingale checkpoint 0", "supermartingale checkpoint 37"),
            )

    def test_joint_non_finite_statistic_names_its_sample(self):
        rng = np.random.default_rng(4)
        samples = (rng.lognormal(size=300), rng.lognormal(size=300))
        with pytest.raises(NumericError, match="bdg rhs: point estimate"):
            bootstrap_ci(
                samples, lambda s: (s[0], s[1] * 1e308 * 10.0), label=("bdg lhs", "bdg rhs")
            )
        # finite at the point, not on every resample: named by its own label
        point = float(np.mean(samples[1]))
        with pytest.raises(NumericError, match="bdg rhs: a bootstrap resample"):
            bootstrap_ci(
                samples,
                lambda s: (s[0], s[1] if s[1] == point else math.inf),
                label=("bdg lhs", "bdg rhs"),
            )


# (elementwise transform, statistic of the mean) as the checks pass them,
# next to the statistic of the whole resample that the loop evaluated
CHECK_TRANSFORMS = {
    "mean": (lambda a: a, float, np.mean),
    "schatten_rhs": (lambda a: a, lambda s: 3.0 * s, lambda a: 3.0 * float(np.mean(a))),
    "biane_speicher_rhs": (
        np.sqrt,
        lambda s: 2.0 * math.sqrt(2.0) * s,
        lambda a: 2.0 * math.sqrt(2.0) * float(np.mean(np.sqrt(a))),
    ),
}
for _p in (1, 2, 3, 5):
    CHECK_TRANSFORMS[f"bdg_lhs_p{_p}"] = (
        lambda a, p=_p: a**p,
        lambda s, p=_p: s ** (1.0 / p),
        lambda a, p=_p: float(np.mean(a**p)) ** (1.0 / p),
    )
for _p in (1, 2, 3, 4):
    CHECK_TRANSFORMS[f"bdg_rhs_p{_p}"] = (
        lambda a, p=_p: a ** (0.5 * p),
        lambda s, p=_p: 7.3 * s ** (1.0 / p),
        lambda a, p=_p: 7.3 * float(np.mean(a ** (0.5 * p))) ** (1.0 / p),
    )


class TestBootstrapMatchesLoop:
    """The blocked bootstrap reproduces the per-resample loop bit for bit."""

    @staticmethod
    def assert_same(raw, name, resamples, seed):
        transform, stat, loop_stat = CHECK_TRANSFORMS[name]
        ci = bootstrap_ci(transform(raw), stat, resamples, 0.99, seed)
        assert (ci.point, ci.lo, ci.hi) == loop_bootstrap_ci(raw, loop_stat, resamples, 0.99, seed)

    @pytest.mark.parametrize("m", [100, 257, 1280, 5000, 20000])
    def test_sample_sizes(self, m):
        raw = np.random.default_rng(m).lognormal(size=m)
        self.assert_same(raw, "mean", 1000, 2**40 + m)

    @pytest.mark.parametrize("name", sorted(CHECK_TRANSFORMS))
    @pytest.mark.parametrize("m", [257, 1280])
    def test_check_transforms(self, name, m):
        raw = np.abs(np.random.default_rng(3 * m).standard_normal(m)) * 1.7
        self.assert_same(raw, name, 1000, 12345)

    def test_resamples_not_a_multiple_of_block_rows(self):
        m = 301
        rows = BOOTSTRAP_BLOCK_ELEMENTS // m
        resamples = 2 * rows + 7
        raw = np.random.default_rng(8).standard_normal(m)
        self.assert_same(raw, "mean", resamples, 99)

    def test_constant_sample(self):
        self.assert_same(np.full(400, 0.3), "bdg_lhs_p3", 200, 1)


def joint_bootstrap(raws, names, resamples, seed):
    """bootstrap_ci on the transformed samples under one joint statistic,
    and the loop oracle on the raw ones under the whole-resample statistics;
    both as lists of (point, lo, hi)."""
    rows = [CHECK_TRANSFORMS[name] for name in names]
    cis = bootstrap_ci(
        tuple(transform(raw) for (transform, _, _), raw in zip(rows, raws)),
        lambda means: tuple(stat(s) for (_, stat, _), s in zip(rows, means)),
        resamples,
        0.99,
        seed,
        label=tuple(names),
    )
    loop = loop_bootstrap_ci(tuple(raws), tuple(r[2] for r in rows), resamples, 0.99, seed)
    return [(ci.point, ci.lo, ci.hi) for ci in cis], list(loop)


# (lhs, rhs) transforms as the paired checks pass them
JOINT_PAIRS = [
    *((f"bdg_lhs_p{p}", f"bdg_rhs_p{p}") for p in (1, 2, 3)),
    ("mean", "schatten_rhs"),
    ("mean", "biane_speicher_rhs"),
]


class TestJointBootstrapMatchesLoop:
    """Samples that share one index stream reproduce the per-resample loop
    that gathers every sample with each resample's indices, bit for bit."""

    @pytest.mark.parametrize("m", [100, 257, 1280, 5000])
    def test_sample_sizes(self, m):
        rng = np.random.default_rng(m)
        raws = [rng.lognormal(size=m) for _ in range(3)]
        got, want = joint_bootstrap(raws, ["mean", "schatten_rhs", "bdg_lhs_p2"], 1000, 2**40 + m)
        assert got == want

    @pytest.mark.parametrize("names", JOINT_PAIRS, ids="-".join)
    @pytest.mark.parametrize("m", [257, 1280])
    def test_check_transforms(self, names, m):
        rng = np.random.default_rng(3 * m)
        raws = [np.abs(rng.standard_normal(m)) * 1.7 for _ in names]
        got, want = joint_bootstrap(raws, names, 1000, 12345)
        assert got == want

    def test_resamples_not_a_multiple_of_block_rows(self):
        m = 301
        resamples = 2 * (BOOTSTRAP_BLOCK_ELEMENTS // m) + 7
        rng = np.random.default_rng(8)
        raws = [rng.standard_normal(m), rng.lognormal(size=m)]
        got, want = joint_bootstrap(raws, ["mean", "schatten_rhs"], resamples, 99)
        assert got == want

    def test_constant_sample_mixed_in(self):
        # the constant sample is not gathered and keeps its zero-width
        # interval; the others still match the loop that gathers all
        rng = np.random.default_rng(10)
        raws = [rng.lognormal(size=400), np.full(400, 0.3), rng.lognormal(size=400)]
        got, want = joint_bootstrap(raws, ["bdg_lhs_p2", "bdg_rhs_p2", "mean"], 500, 4)
        assert got == want
        assert got[1][0] == got[1][1] == got[1][2]

    @pytest.mark.parametrize("m", [100, 1280, 5000])
    def test_sample_zero_matches_the_one_sample_call(self, m):
        # stream 0 is the one-sample call's stream: a check's lhs keeps
        # its bytes when its rhs joins the resample
        rng = np.random.default_rng(m + 1)
        lhs, rhs = rng.lognormal(size=m) ** 2, rng.lognormal(size=m)
        alone = bootstrap_ci(lhs, math.sqrt, 1000, 0.99, 77, label="lhs")
        joint = bootstrap_ci(
            (lhs, rhs), lambda s: (math.sqrt(s[0]), 5.0 * s[1]), 1000, 0.99, 77, label=("l", "r")
        )
        assert joint[0] == alone


class TestNdtri:
    def test_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(21)
        tiny = np.nextafter(0.0, 1.0)
        probs = np.concatenate(
            [
                rng.random(100_000),
                np.linspace(0.0, 1.0, 50_001)[1:-1],
                np.logspace(-320, math.log10(0.5), 50_000),
                1.0 - np.logspace(-16, math.log10(0.5), 50_000),
                [tiny, 0.5, math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)],
                np.nextafter(math.exp(-2.0), [0.0, 1.0]),
                np.nextafter(1.0 - math.exp(-2.0), [0.0, 1.0]),
                np.nextafter(math.exp(-32.0), [0.0, 1.0]),
                [1.0 - 0.5 * (1.0 - c) for c in (0.5, 0.9, 0.95, 0.99, 0.999, 1 - 1e-9)],
            ]
        )
        ours = np.array([_ndtri(p) for p in probs.tolist()])
        assert np.array_equal(ours, ndtri(probs))

    def test_edges(self):
        assert _ndtri(0.0) == -math.inf and _ndtri(1.0) == math.inf
        assert math.isnan(_ndtri(-0.1)) and math.isnan(_ndtri(1.5))
        assert math.isnan(_ndtri(math.nan))


def test_cli_import_leaves_scipy_out():
    src = str(Path(mmlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, mmlab.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestEstimateCI:
    def test_ordering_enforced(self):
        with pytest.raises(InputDomainError):
            EstimateCI(point=2.0, lo=0.0, hi=1.0)

    def test_exact_helper(self):
        ci = EstimateCI(point=1.5, lo=1.5, hi=1.5)
        assert ci.lo == ci.hi == ci.point == 1.5 and ci.half_width == 0.0


class TestCheckRequest:
    def test_unknown_kind(self):
        with pytest.raises(InputDomainError, match="unknown check kind"):
            CheckRequest(kind="markov")

    def test_freedman_requires_parameters(self):
        with pytest.raises(InputDomainError, match="requires u and sigma2"):
            CheckRequest(kind="freedman", u=1.0)
        with pytest.raises(InputDomainError, match="sigma2 > 0"):
            CheckRequest(kind="freedman", u=1.0, sigma2=0.0)
        with pytest.raises(InputDomainError, match="u > 0"):
            CheckRequest(kind="freedman", u=0.0, sigma2=1.0)

    def test_bdg_requires_integer_p(self):
        with pytest.raises(InputDomainError, match="integer p"):
            CheckRequest(kind="bdg", p=0)
        assert CheckRequest(kind="bdg", p=2).p == 2

    def test_supermartingale_requires_beta(self):
        with pytest.raises(InputDomainError, match="beta"):
            CheckRequest(kind="supermartingale")

    def test_rejects_parameters_the_kind_does_not_take(self):
        with pytest.raises(InputDomainError, match="bdg check does not take u"):
            CheckRequest(kind="bdg", p=1, u=3.0)
        with pytest.raises(InputDomainError, match="khintchine check does not take t"):
            CheckRequest(kind="khintchine", t=1.0)


class TestExperimentConfig:
    def test_minimum_paths_for_probabilistic(self):
        with pytest.raises(InputDomainError, match="paths must be >= 100"):
            small_config(paths=50)

    def test_khintchine_only_needs_100_paths(self):
        # the khintchine sample has config.paths values, and a bootstrap
        # needs 100; the config refuses it before anything is drawn
        with pytest.raises(InputDomainError, match="paths must be >= 100") as err:
            small_config(paths=10, checks=(CheckRequest(kind="khintchine"),))
        assert err.value.field == "paths"

    @pytest.mark.parametrize(
        "check, message",
        [
            (
                CheckRequest("schatten_rect", p=1),
                "schatten_rect check requires integrand.family rect_constant",
            ),
            (CheckRequest("khintchine"), "khintchine check requires a constant-in-time integrand"),
        ],
    )
    def test_check_must_apply_to_the_integrand(self, check, message):
        spec = time_poly_spec([np.eye(2)], [np.eye(2)])
        with pytest.raises(InputDomainError, match=message) as err:
            small_config(spec=spec, checks=(CheckRequest("bdg", p=1), check))
        assert err.value.field == "checks[1]"

    def test_check_time_must_match_horizon(self):
        with pytest.raises(InputDomainError, match="grid horizon"):
            small_config(checks=(CheckRequest(kind="bdg", p=1, t=2.0),))

    def test_plan_construction(self):
        cfg = small_config(
            checks=(
                CheckRequest(kind="freedman", u=1.0, sigma2=2.0),
                CheckRequest(kind="good_lambda", u=0.5, sigma2=1.0),
                CheckRequest(kind="schatten", p=2),
                CheckRequest(kind="biane_speicher"),
                CheckRequest(kind="supermartingale", beta=1.0),
            )
        )
        plan = plan_for_config(cfg)
        assert plan.sigma2_levels == (1.0, 2.0)
        assert plan.schatten_orders == (4.0,)
        assert plan.quad_schatten_orders == (2.0,)
        assert plan.sum_norm_quad
        assert plan.supermartingale_betas == (1.0,)


class TestRunBatch:
    def test_single_path_matches_reference(self):
        cfg = small_config(paths=1, checks=())
        batch = run_batch(cfg)
        s = summarize(reference_path(cfg.spec, cfg.grid, derive_path_seed(cfg.master_seed, 0)))
        assert batch.path_count == 1 and batch.excluded_count == 0
        assert batch.data["sup_spectral"][0] == pytest.approx(s.sup_spectral, rel=1e-12)
        assert batch.data["terminal_spectral"][0] == pytest.approx(
            spectral_norm(s.terminal_x), rel=1e-12
        )

    @pytest.mark.parametrize(
        "paths, block_size, workers", [(1280, 256, 2), (700, 100, 3), (300, 150, 8)]
    )
    def test_worker_count_invariance(self, paths, block_size, workers):
        cfg = small_config(paths=paths, block_size=block_size)
        one = run_batch(cfg, workers=1)
        many = run_batch(cfg, workers=workers)
        assert one.data.keys() == many.data.keys()
        for key in one.data:
            assert np.array_equal(one.data[key], many.data[key]), key

    @pytest.mark.parametrize(
        "paths, block_size, workers",
        [(1280, 256, 1), (700, 100, 1), (1280, 256, 2), (700, 100, 3), (300, 150, 8)],
    )
    def test_schedule(self, monkeypatch, paths, block_size, workers):
        # a fake context records the pool it is asked for and maps in this
        # process, so the spy on simulate_block sees every call
        calls, pools, shares = [], [], []
        real = montecarlo.simulate_block

        def spy(spec, grid, seeds, plan):
            calls.append(np.array(seeds))
            return real(spec, grid, seeds, plan)

        class FakePool:
            def __init__(self, processes):
                pools.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                out = []
                for task in tasks:
                    first = len(calls)
                    out.append(fn(task))
                    shares.append(sum(len(c) for c in calls[first:]))
                return out

        methods = []

        def get_context(method):
            methods.append(method)
            return SimpleNamespace(Pool=FakePool)

        monkeypatch.setattr(montecarlo, "simulate_block", spy)
        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        cfg = small_config(paths=paths, block_size=block_size, grid=TimeGrid(1.0, 4), checks=())
        run_batch(cfg, workers=workers)
        seeds = derive_path_seeds(cfg.master_seed, 0, paths)
        assert all(len(c) <= block_size for c in calls)
        assert np.array_equal(np.concatenate(calls), seeds)
        if workers == 1:
            assert methods == [] and pools == []
            today = [seeds[s : s + block_size] for s in range(0, paths, block_size)]
            assert len(calls) == len(today)
            assert all(np.array_equal(c, b) for c, b in zip(calls, today))
        else:
            count = min(workers, -(-paths // block_size))
            assert methods == [montecarlo.START_METHOD] and pools == [count]
            # one contiguous share per process, sizes within one path
            assert len(shares) == count and max(shares) - min(shares) <= 1
        if sys.platform.startswith("linux"):
            assert montecarlo.START_METHOD == "fork"

    def test_block_size_invariance(self):
        a = run_batch(small_config(paths=300, block_size=4096))
        b = run_batch(small_config(paths=300, block_size=37))
        for key in a.data:
            assert np.array_equal(a.data[key], b.data[key]), key

    def test_exclusion_raises_batch_error(self):
        cfg = ExperimentConfig(
            spec=path_feedback_spec(np.ones((1, 1, 1)), gamma=1e200),
            grid=TimeGrid(1.0, 8),
            paths=200,
            master_seed=5,
            checks=(),
        )
        with pytest.raises(BatchError, match="exclusion rate"):
            run_batch(cfg)

    def test_clt_width_scaling(self):
        # doubling paths should roughly halve the squared Wilson width
        spec = constant_spec(np.eye(1))
        grid = TimeGrid(1.0, 64)
        widths = {}
        for paths in (2000, 4000):
            cfg = ExperimentConfig(
                spec=spec, grid=grid, paths=paths, master_seed=77,
                checks=(CheckRequest(kind="freedman", u=1.0, sigma2=1.0),),
            )
            batch = run_batch(cfg)
            hits = int((batch.data["bridge_prefix_max"][:, 0] >= 1.0).sum())
            widths[paths] = wilson_interval(hits, batch.kept_count, 0.99).half_width
        ratio_sq = (widths[2000] / widths[4000]) ** 2
        assert 1.5 <= ratio_sq <= 2.5

    def test_rejects_bad_workers(self):
        with pytest.raises(InputDomainError):
            run_batch(small_config(), workers=0)
