"""Inequality-check operations: worked examples and invariants."""

import dataclasses
import math

import numpy as np
import pytest

from mmlab.checks import (
    BDG_CONSTANT,
    BIANE_SPEICHER_CONSTANT,
    CHECK_REGISTRY,
    CheckRequest,
    CheckResult,
    Judge,
    bdg_check,
    biane_speicher_check,
    check_hessian_lemma,
    check_trace_lemma,
    evaluate_checks,
    freedman_check,
    good_lambda_check,
    khintchine_check,
    recompute_holds,
    run_experiment_checks,
    run_lemma_suite,
    schatten_check,
    schatten_rect_check,
    supermartingale_check,
)
from mmlab.errors import InputDomainError
from mmlab.integrands import (
    constant_spec,
    diag_basis_spec,
    path_feedback_spec,
    rect_constant_spec,
    time_poly_spec,
)
from mmlab.montecarlo import (
    ExperimentConfig,
    bootstrap_seed,
    derive_path_seeds,
    run_batch,
    wilson_interval,
)
from mmlab.simulate import TimeGrid

from .oracles import grid_lambda_max, reflection_sup_tail


def settled(evaluation, judge=Judge()):
    """The result of one evaluator, its intervals resampled on ``judge``'s stream."""
    (result,) = judge.settle([evaluation])
    return result


def make_batch(spec, checks, paths, seed, steps=256):
    config = ExperimentConfig(
        spec=spec,
        grid=TimeGrid(1.0, steps),
        paths=paths,
        master_seed=seed,
        checks=tuple(checks),
    )
    return run_batch(config)


@pytest.fixture(scope="module")
def scalar_batch():
    # n=1, H=1: X_t = B_t, qv_t = t.
    return make_batch(
        constant_spec([np.eye(1)]),
        [
            CheckRequest("freedman", u=2.0, sigma2=1.0),
            CheckRequest("good_lambda", u=1.0, sigma2=1.0),
            CheckRequest("bdg", p=1),
            CheckRequest("schatten", p=1),
            CheckRequest("biane_speicher"),
            CheckRequest("supermartingale", beta=0.5),
        ],
        paths=4000,
        seed=77,
    )


@pytest.fixture(scope="module")
def eye2_batch():
    # n=2, H=I2: X_t = B_t * I2.
    return make_batch(
        constant_spec([np.eye(2)]),
        [
            CheckRequest("freedman", u=2.0, sigma2=1.0),
            CheckRequest("schatten", p=1),
            CheckRequest("schatten", p=2),
        ],
        paths=4000,
        seed=78,
    )


@pytest.fixture(scope="module")
def diag2_batch():
    return make_batch(
        diag_basis_spec(2),
        [CheckRequest("bdg", p=2), CheckRequest("bdg", p=4)],
        paths=1500,
        seed=79,
    )


@pytest.fixture(scope="module")
def rect12_batch():
    # 1x2 payload [[1, 0]]: X_t = [[B_t, 0]].
    return make_batch(
        rect_constant_spec([np.array([[1.0, 0.0]])]),
        [CheckRequest("schatten_rect", p=1), CheckRequest("schatten_rect", p=2)],
        paths=3000,
        seed=80,
    )


@pytest.fixture(scope="module")
def two_level_batch():
    return make_batch(
        constant_spec([np.eye(1)]),
        [
            CheckRequest("freedman", u=1.2, sigma2=0.5),
            CheckRequest("freedman", u=1.2, sigma2=1.0),
        ],
        paths=2000,
        seed=81,
    )


@pytest.fixture(scope="module")
def zero_batch():
    return make_batch(
        constant_spec([np.zeros((2, 2))]),
        [
            CheckRequest("freedman", u=1.0, sigma2=1.0),
            CheckRequest("good_lambda", u=1.0, sigma2=1.0),
            CheckRequest("bdg", p=1),
            CheckRequest("schatten", p=1),
            CheckRequest("biane_speicher"),
        ],
        paths=200,
        seed=82,
        steps=16,
    )


class TestTraceLemma:
    def test_diagonal_example(self):
        res = check_trace_lemma(np.eye(2), np.diag([1.0, -1.0]), q=0, r=3)
        assert res.lhs == pytest.approx(0.0, abs=1e-12)
        assert res.rhs == pytest.approx(2.0, abs=1e-12)
        assert res.holds
        assert res.lhs_ci == 0.0 and res.rhs_ci == 0.0

    def test_psd_equality(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((4, 4))
        a = c.T @ c
        for q, r in [(0, 0), (0, 3), (2, 5), (4, 4)]:
            res = check_trace_lemma(np.eye(4), a, q, r)
            assert res.lhs == pytest.approx(res.rhs, rel=1e-9)
            assert res.rhs == pytest.approx(np.trace(np.linalg.matrix_power(a, r)), rel=1e-9)
            assert res.holds

    def test_offdiagonal_example(self):
        h = np.ones((2, 2))
        res = check_trace_lemma(h, np.diag([2.0, -1.0]), q=1, r=2)
        assert res.lhs == pytest.approx(1.0, abs=1e-12)
        assert res.rhs == pytest.approx(10.0, abs=1e-12)
        assert res.holds

    def test_r_zero_is_gram_identity(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((3, 3))
        h = 0.5 * (h + h.T)
        res = check_trace_lemma(h, np.diag([1.0, 2.0, 3.0]), q=0, r=0)
        assert res.lhs == pytest.approx(np.trace(h @ h), rel=1e-12)
        assert res.lhs == pytest.approx(res.rhs, rel=1e-12)

    def test_invalid_exponents(self):
        with pytest.raises(InputDomainError):
            check_trace_lemma(np.eye(2), np.eye(2), q=3, r=2)
        with pytest.raises(InputDomainError):
            check_trace_lemma(np.eye(2), np.eye(2), q=-1, r=2)
        with pytest.raises(InputDomainError):
            check_trace_lemma(np.eye(2), np.eye(2), q=0.5, r=2)

    def test_dimension_mismatch(self):
        with pytest.raises(InputDomainError):
            check_trace_lemma(np.eye(2), np.eye(3), q=0, r=1)

    def test_asymmetric_rejected(self):
        with pytest.raises(InputDomainError):
            check_trace_lemma(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), 0, 1)


class TestHessianLemma:
    def test_zero_m_identity_h(self):
        res = check_hessian_lemma(np.zeros((3, 3)), np.eye(3))
        assert res.rhs == pytest.approx(3.0, rel=1e-12)
        assert res.lhs == pytest.approx(3.0, abs=1e-4)
        assert res.holds

    def test_zero_m_general_h(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((4, 4))
        h = 0.5 * (h + h.T)
        res = check_hessian_lemma(np.zeros((4, 4)), h)
        assert res.rhs == pytest.approx(np.trace(h @ h), rel=1e-12)
        assert res.lhs == pytest.approx(res.rhs, rel=1e-6)

    def test_closed_form_example(self):
        # f(M + sH) = 2 cosh(sqrt(1 + s^2)) gives lhs -> 2 sinh(1).
        res = check_hessian_lemma(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert res.lhs == pytest.approx(2.0 * math.sinh(1.0), abs=1e-4)
        assert res.rhs == pytest.approx(math.e + math.exp(-1.0), rel=1e-12)
        assert res.holds

    def test_step_validation(self):
        with pytest.raises(InputDomainError):
            check_hessian_lemma(np.eye(2), np.eye(2), step=1e-7)
        with pytest.raises(InputDomainError):
            check_hessian_lemma(np.eye(2), np.eye(2), step=0.5)


class TestLemmaSuite:
    def test_sweep_all_hold(self):
        results = run_lemma_suite(count=200, seed=3)
        assert len(results) == 400
        assert all(r.holds for r in results)
        assert sum(r.name == "trace_lemma" for r in results) == 200
        assert sum(r.name == "hessian_lemma" for r in results) == 200

    def test_deterministic_in_seed(self):
        a = run_lemma_suite(count=20, seed=11)
        b = run_lemma_suite(count=20, seed=11)
        assert [r.lhs for r in a] == [r.lhs for r in b]

    def test_count_validation(self):
        with pytest.raises(InputDomainError):
            run_lemma_suite(count=0)


class TestVerdictMachinery:
    def test_negative_halfwidth_rejected(self):
        with pytest.raises(InputDomainError):
            CheckResult("x", 0.0, 1.0, -0.1, 0.0, True)

    def test_ratio(self):
        assert CheckResult("x", 1.0, 4.0, 0.0, 0.0, True).ratio == 0.25
        assert CheckResult("x", 0.0, 0.0, 0.0, 0.0, True).ratio == 0.0
        assert CheckResult("x", 1.0, 0.0, 0.0, 0.0, False).ratio == math.inf

    def test_recompute_handles_bound_override(self):
        md = {"slack_factor": 0.0, "tolerance": 0.0, "bound_rhs": 5.0}
        res = CheckResult("x", 2.0, 1.0, 0.0, 0.0, True, md)
        assert recompute_holds(res) is True
        res2 = CheckResult("x", 2.0, 1.0, 0.0, 0.0, False, dict(md, bound_rhs=1.5))
        assert recompute_holds(res2) is False

    def test_recompute_skipped(self):
        res = CheckResult("x", 9.0, 0.0, 0.0, 0.0, True, {"verdict": "skipped"})
        assert recompute_holds(res) is True


class TestFreedman:
    def test_scalar_tail_example(self, scalar_batch):
        res = freedman_check(scalar_batch, u=2.0, sigma2=1.0)
        assert res.rhs == pytest.approx(math.exp(-2.0), rel=1e-15)
        # continuous-time value 2(1 - Phi(2)) ~ 0.0455; for n = 1 the bridge
        # supremum has its law exactly
        assert abs(res.lhs - reflection_sup_tail(2.0, 1.0, 1.0)) < 0.015
        assert res.lhs <= res.rhs
        assert res.holds
        assert res.metadata["u"] == 2.0 and res.metadata["sigma2"] == 1.0

    def test_dimension_doubles_rhs(self, eye2_batch):
        res = freedman_check(eye2_batch, u=2.0, sigma2=1.0)
        assert res.rhs == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)
        assert abs(res.lhs - reflection_sup_tail(2.0, 1.0, 1.0)) < 0.015
        assert res.holds

    def test_unreached_level_is_empty(self, scalar_batch):
        res = freedman_check(scalar_batch, u=50.0, sigma2=1.0)
        assert res.lhs == 0.0
        assert res.holds

    def test_monotone_in_u_and_sigma2(self, two_level_batch):
        lo_u = freedman_check(two_level_batch, u=1.2, sigma2=1.0)
        hi_u = freedman_check(two_level_batch, u=1.8, sigma2=1.0)
        assert hi_u.lhs <= lo_u.lhs
        small_s = freedman_check(two_level_batch, u=1.2, sigma2=0.5)
        assert small_s.lhs <= lo_u.lhs

    def test_bridge_removes_coarse_grid_bias(self):
        # 16 steps: the grid max undershoots the supremum by ~0.5826/4 in
        # level, far outside the interval; the bridge supremum does not
        batch = make_batch(
            constant_spec([np.eye(1)]),
            [CheckRequest("freedman", u=1.0, sigma2=1.0)],
            paths=20_000,
            seed=85,
            steps=16,
        )
        target = reflection_sup_tail(1.0, 1.0, 1.0)
        res = freedman_check(batch, u=1.0, sigma2=1.0)
        assert abs(res.lhs - target) <= res.lhs_ci
        assert batch.excluded_count == 0
        seeds = derive_path_seeds(85, 0, batch.path_count)
        _, prefix = grid_lambda_max(batch.spec, batch.grid, seeds, (1.0,))
        grid_hits = int((prefix[:, 0] >= 1.0).sum())
        grid = wilson_interval(grid_hits, batch.kept_count, 0.99)
        assert not grid.lo <= target <= grid.hi
        assert res.metadata["events"] >= grid_hits

    def test_missing_level_rejected(self, scalar_batch):
        with pytest.raises(InputDomainError):
            freedman_check(scalar_batch, u=2.0, sigma2=0.25)

    def test_zero_integrand(self, zero_batch):
        res = freedman_check(zero_batch, u=1.0, sigma2=1.0)
        assert res.lhs == 0.0
        assert res.holds


class TestGoodLambda:
    def test_scalar_example(self, scalar_batch):
        res = good_lambda_check(scalar_batch, u=1.0, sigma2=1.0)
        assert abs(res.lhs - reflection_sup_tail(2.0, 1.0, 1.0)) < 0.015
        expected_rhs = math.exp(-0.5) * reflection_sup_tail(1.0, 1.0, 1.0)
        assert abs(res.rhs - expected_rhs) < 0.02
        assert res.holds

    def test_u_zero_is_vacuous(self, scalar_batch):
        res = good_lambda_check(scalar_batch, u=0.0, sigma2=1.0)
        assert res.lhs == 1.0
        assert res.rhs == 1.0
        assert res.holds

    def test_zero_integrand(self, zero_batch):
        res = good_lambda_check(zero_batch, u=1.0, sigma2=1.0)
        assert res.lhs == 0.0
        assert res.rhs == 0.0
        assert res.holds


class TestBdg:
    def test_scalar_p1_example(self, scalar_batch):
        res = settled(bdg_check(scalar_batch, p=1))
        # qv_T = 1 on every path, so the rhs is the constant exactly
        assert res.rhs == pytest.approx(BDG_CONSTANT, rel=1e-15)
        assert res.rhs_ci == 0.0
        assert 1.1 < res.lhs < 1.35
        assert abs(res.ratio - 0.089) < 0.012
        assert res.holds

    def test_diag_basis_analytic_rhs(self, diag2_batch):
        res = settled(bdg_check(diag2_batch, p=2))
        assert res.rhs == pytest.approx(
            BDG_CONSTANT * math.sqrt(2.0 + math.log(2.0)), rel=1e-12
        )
        assert 1.0 < res.lhs < 2.0
        assert res.holds

    def test_unstable_moment_flag_present(self, diag2_batch):
        res = settled(bdg_check(diag2_batch, p=4))
        assert isinstance(res.metadata["unstable_moment"], bool)
        assert res.holds

    def test_invalid_p(self, scalar_batch):
        with pytest.raises(InputDomainError):
            settled(bdg_check(scalar_batch, p=0))

    def test_zero_integrand(self, zero_batch):
        res = settled(bdg_check(zero_batch, p=1))
        assert res.lhs == 0.0 and res.rhs == 0.0
        assert res.holds

    def test_scale_covariance(self):
        # doubling H doubles both sides exactly (power-of-two scaling)
        checks = [CheckRequest("bdg", p=1)]
        small = settled(bdg_check(make_batch(constant_spec([np.eye(1)]), checks, 500, 83), p=1))
        big = settled(bdg_check(make_batch(constant_spec([2.0 * np.eye(1)]), checks, 500, 83), p=1))
        assert big.lhs == pytest.approx(2.0 * small.lhs, rel=1e-12)
        assert big.rhs == pytest.approx(2.0 * small.rhs, rel=1e-12)
        assert big.holds == small.holds


class TestSchatten:
    def test_ito_isometry_equality(self, eye2_batch):
        res = settled(schatten_check(eye2_batch, p=1))
        assert res.rhs == pytest.approx(2.0, rel=1e-15)
        assert abs(res.lhs - 2.0) < 0.2
        assert 0.9 < res.ratio < 1.1
        assert res.holds

    def test_p2_diagonal_closed_form(self, eye2_batch):
        res = settled(schatten_check(eye2_batch, p=2))
        assert res.rhs == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-12)
        assert abs(res.lhs - math.sqrt(2.0)) < 0.15
        assert res.holds

    def test_missing_order_rejected(self, eye2_batch):
        with pytest.raises(InputDomainError):
            settled(schatten_check(eye2_batch, p=3))

    def test_zero_integrand(self, zero_batch):
        res = settled(schatten_check(zero_batch, p=1))
        assert res.lhs == 0.0 and res.rhs == 0.0
        assert res.holds


class TestSchattenRect:
    def test_scalar_reduction_p1(self, rect12_batch):
        res = settled(schatten_rect_check(rect12_batch, p=1))
        # p=1 is the Ito isometry: lhs = t = 1 and both factors coincide
        assert res.rhs == pytest.approx(1.0, rel=1e-12)
        assert res.metadata["rhs_paper"] == pytest.approx(1.0, rel=1e-12)
        assert abs(res.lhs - 1.0) < 0.15
        assert res.holds and res.metadata["holds_paper"]

    def test_scalar_reduction_p2(self, rect12_batch):
        res = settled(schatten_rect_check(rect12_batch, p=2))
        assert res.rhs == pytest.approx(3.0, rel=1e-12)
        assert res.metadata["rhs_paper"] == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert abs(res.lhs - 1.0) < 0.15
        assert res.holds and res.metadata["holds_paper"]
        assert res.metadata["rect_shape"] == (1, 2)

    def test_square_payload_reduces_to_schatten(self):
        # symmetric payloads simulated directly and through the dilation
        rng = np.random.default_rng(84)
        mats = [0.5 * (m + m.T) for m in rng.standard_normal((2, 2, 2))]
        checks_sq = [CheckRequest("schatten", p=2)]
        checks_rc = [CheckRequest("schatten_rect", p=2)]
        judge = Judge(seed=7)
        square = make_batch(constant_spec(mats), checks_sq, 2000, 85)
        rect = make_batch(rect_constant_spec(mats), checks_rc, 2000, 85)
        sq = settled(schatten_check(square, p=2, judge=judge), judge)
        rc = settled(schatten_rect_check(rect, p=2, judge=judge), judge)
        assert rc.lhs == pytest.approx(sq.lhs, rel=1e-9)
        assert rc.rhs == pytest.approx(sq.rhs, rel=1e-9)
        assert rc.holds == sq.holds

    def test_square_batch_rejected(self, eye2_batch):
        with pytest.raises(InputDomainError):
            settled(schatten_rect_check(eye2_batch, p=1))


class TestKhintchine:
    def test_identity_payload_folded_gaussian(self):
        res = khintchine_check(constant_spec([np.eye(3)]), judge=Judge(samples=40_000))
        assert abs(res.lhs - math.sqrt(2.0 / math.pi)) < 0.02
        assert res.metadata["ratio"] == pytest.approx(res.lhs, rel=1e-12)
        assert res.rhs == pytest.approx(math.sqrt(math.log(3.0)), rel=1e-12)
        assert res.metadata["bound_rhs"] > res.rhs
        assert res.holds

    def test_diag_basis_max_closed_form(self):
        res = khintchine_check(diag_basis_spec(2), judge=Judge(samples=40_000))
        assert abs(res.lhs - 2.0 / math.sqrt(math.pi)) < 0.02
        assert res.holds

    def test_n1_verdict_skipped(self):
        res = khintchine_check(constant_spec([np.eye(1)]), judge=Judge(samples=20_000))
        assert res.holds
        assert res.metadata["verdict"] == "skipped"
        assert abs(res.metadata["ratio"] - math.sqrt(2.0 / math.pi)) < 0.03

    def test_log_factor_growth(self):
        small = khintchine_check(diag_basis_spec(4), judge=Judge(samples=20_000))
        large = khintchine_check(diag_basis_spec(64), judge=Judge(samples=20_000))
        assert large.metadata["ratio"] > 1.3 * small.metadata["ratio"]

    def test_time_dependent_rejected(self):
        spec = time_poly_spec([np.eye(2)], [np.eye(2)])
        with pytest.raises(InputDomainError):
            khintchine_check(spec)
        with pytest.raises(InputDomainError):
            khintchine_check(path_feedback_spec([np.eye(2)], 0.1))


class TestBianeSpeicher:
    def test_scalar_closed_form(self, scalar_batch):
        res = settled(biane_speicher_check(scalar_batch))
        assert res.rhs == pytest.approx(BIANE_SPEICHER_CONSTANT, rel=1e-15)
        assert abs(res.lhs - math.sqrt(2.0 / math.pi)) < 0.03
        assert res.holds

    def test_zero_integrand(self, zero_batch):
        res = settled(biane_speicher_check(zero_batch))
        assert res.lhs == 0.0 and res.rhs == 0.0
        assert res.holds

    def test_requires_collector(self, eye2_batch):
        with pytest.raises(InputDomainError):
            settled(biane_speicher_check(eye2_batch))


class TestSupermartingale:
    def test_scalar_nonincreasing(self, scalar_batch):
        res = settled(supermartingale_check(scalar_batch, beta=0.5))
        assert res.holds
        assert res.metadata["initial_value"] == 1.0
        means = res.metadata["checkpoint_means"]
        assert len(means) == 8
        assert means[0] == 1.0

    def test_missing_beta_rejected(self, scalar_batch):
        with pytest.raises(InputDomainError):
            settled(supermartingale_check(scalar_batch, beta=0.25))


@pytest.fixture(scope="module")
def driver_config():
    return ExperimentConfig(
        spec=constant_spec([np.eye(1)]),
        grid=TimeGrid(1.0, 128),
        paths=3000,
        master_seed=2024,
        checks=(
            CheckRequest("freedman", u=2.0, sigma2=1.0),
            CheckRequest("bdg", p=1),
            CheckRequest("khintchine"),
            CheckRequest("supermartingale", beta=0.5),
            CheckRequest("schatten", p=1),
        ),
    )


@pytest.fixture
def bootstrap_calls(monkeypatch):
    """(label, seed) of every ``bootstrap_ci`` call the checks make."""
    import mmlab.checks as checks_module

    calls = []
    bootstrap = checks_module.bootstrap_ci

    def spy(values, statistic, resamples, confidence, seed, *, label):
        calls.append((label, seed))
        return bootstrap(values, statistic, resamples, confidence, seed, label=label)

    monkeypatch.setattr(checks_module, "bootstrap_ci", spy)
    return calls


class TestEvaluateChecks:
    def test_driver_runs_all(self, driver_config):
        batch, results = run_experiment_checks(driver_config)
        assert [r.name for r in results] == [
            "freedman",
            "bdg",
            "khintchine",
            "supermartingale",
            "schatten",
        ]
        assert all(r.holds for r in results)
        assert batch.path_count == 3000

    def test_results_recomputable(self, driver_config):
        _, results = run_experiment_checks(driver_config)
        for r in results:
            assert recompute_holds(r) == r.holds

    def test_deterministic_and_worker_invariant(self, driver_config):
        _, seq = run_experiment_checks(driver_config, workers=1)
        _, par = run_experiment_checks(driver_config, workers=2)
        for a, b in zip(seq, par):
            assert a.lhs == b.lhs and a.rhs == b.rhs
            assert a.lhs_ci == b.lhs_ci and a.rhs_ci == b.rhs_ci

    def test_rhs_multiplier_falsifies(self, driver_config):
        import dataclasses

        broken = dataclasses.replace(driver_config, rhs_multiplier=0.0)
        _, results = run_experiment_checks(broken)
        by_name = {r.name: r for r in results}
        assert not by_name["freedman"].holds
        assert not by_name["bdg"].holds
        assert not by_name["supermartingale"].holds

    def test_batchless_probabilistic_check_rejected(self, driver_config):
        with pytest.raises(InputDomainError):
            evaluate_checks(driver_config, None)

    def test_one_bootstrap_call_per_run(self, bootstrap_calls):
        # a run resamples its paths once: every bootstrap mean of every
        # check that reads the batch comes from one joint call on the
        # run's stream, and the frequency kinds make none
        config = ExperimentConfig(
            spec=path_feedback_spec([np.array([[0.8, 0.2], [0.2, 0.5]])], 0.3),
            grid=TimeGrid(1.0, 16),
            paths=200,
            master_seed=5,
            checks=(
                CheckRequest("freedman", u=1.0, sigma2=1.0),
                CheckRequest("good_lambda", u=0.5, sigma2=1.0),
                CheckRequest("bdg", p=2),
                CheckRequest("schatten", p=1),
                CheckRequest("biane_speicher"),
                CheckRequest("supermartingale", beta=0.5),
            ),
        )
        run_experiment_checks(config)
        ((labels, seed),) = bootstrap_calls
        assert seed == bootstrap_seed(config, 0)
        checkpoints = [label for label in labels if label.startswith("supermartingale")]
        assert labels == (
            "bdg lhs",
            "bdg rhs",
            "schatten lhs",
            "schatten rhs",
            "biane_speicher lhs",
            "biane_speicher rhs",
            *checkpoints,
        )
        assert len(checkpoints) == 8

    def test_khintchine_keeps_its_own_stream(self, bootstrap_calls):
        # khintchine draws its own sample, of config.paths values, and
        # resamples it on its own stream: check i's bootstrap_seed 2i
        spec = constant_spec([np.array([[1.0, 0.3], [0.3, -0.5]])])
        config = ExperimentConfig(
            spec=spec,
            grid=TimeGrid(1.0, 16),
            paths=300,
            master_seed=9,
            checks=(
                CheckRequest("bdg", p=1),
                CheckRequest("freedman", u=1.0, sigma2=1.0),
                CheckRequest("khintchine"),
            ),
        )
        _, results = run_experiment_checks(config)
        stream, sample = bootstrap_seed(config, 4), bootstrap_seed(config, 5)
        assert bootstrap_calls[0] == ("khintchine lhs", stream)
        assert [seed for _, seed in bootstrap_calls] == [stream, bootstrap_seed(config, 0)]
        own = Judge(samples=300, seed=stream, sample_seed=sample)
        assert results[2] == khintchine_check(spec, own)

    def test_khintchine_only_needs_no_batch(self):
        config = ExperimentConfig(
            spec=constant_spec([np.eye(2)]),
            grid=TimeGrid(1.0, 16),
            paths=5000,
            master_seed=1,
            checks=(CheckRequest("khintchine"),),
        )
        batch, results = run_experiment_checks(config)
        assert batch is None
        assert results[0].name == "khintchine"
        assert results[0].holds


# one request per kind, with a positive lhs on diag_basis n = 2 (on a 1x2
# rectangular payload for schatten_rect); a new kind needs a row here
SETTINGS_CHECKS = {
    "freedman": CheckRequest("freedman", u=1.0, sigma2=2.0),
    "good_lambda": CheckRequest("good_lambda", u=0.5, sigma2=2.0),
    "bdg": CheckRequest("bdg", p=2),
    "schatten": CheckRequest("schatten", p=1),
    "schatten_rect": CheckRequest("schatten_rect", p=1),
    "khintchine": CheckRequest("khintchine"),
    "biane_speicher": CheckRequest("biane_speicher"),
    "supermartingale": CheckRequest("supermartingale", beta=0.5),
}


@pytest.mark.parametrize("kind", list(CHECK_REGISTRY))
def test_every_kind_takes_the_config_settings(kind):
    rect = kind == "schatten_rect"
    config = ExperimentConfig(
        spec=rect_constant_spec([np.array([[1.0, 0.0]])]) if rect else diag_basis_spec(2),
        grid=TimeGrid(1.0, 32),
        paths=400,
        master_seed=5,
        checks=(SETTINGS_CHECKS[kind],),
    )
    batch = run_batch(config) if CHECK_REGISTRY[kind].needs_batch else None

    def judged(**settings):
        (result,) = evaluate_checks(dataclasses.replace(config, **settings), batch)
        return result

    base = judged()
    assert base.lhs > 0.0 and base.lhs_ci > 0.0 and base.holds
    assert not judged(rhs_multiplier=0.0).holds
    assert judged(confidence=0.8).lhs_ci < base.lhs_ci


@pytest.mark.parametrize("kind", [k for k, v in CHECK_REGISTRY.items() if v.needs_batch])
def test_all_excluded_batch_is_refused(kind):
    # a batch whose every path was excluded has no sample: the interval
    # layer refuses it, the Wilson interval for 0 trials and the bootstrap
    # for fewer than 100 samples
    config = ExperimentConfig(
        spec=rect_constant_spec([np.array([[1.0, 0.0]])]),
        grid=TimeGrid(1.0, 8),
        paths=100,
        master_seed=5,
        checks=(SETTINGS_CHECKS[kind],),
    )
    batch = run_batch(config)
    empty = dataclasses.replace(
        batch,
        excluded_count=batch.path_count,
        data={name: values[:0] for name, values in batch.data.items()},
    )
    with pytest.raises(InputDomainError, match="trials must be >= 1, got 0|>= 100 samples, got 0"):
        evaluate_checks(config, empty)
