import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.random import SeedSequence
from numpy.random.bit_generator import ISeedSequence

import mmlab.ceilings as ceilings_module
import mmlab.simulate as simulate_module
from mmlab.config import parse_settings
from mmlab.errors import InputDomainError, PathBlowupError
from mmlab.integrands import (
    constant_spec,
    diag_basis_spec,
    goe_like_spec,
    path_feedback_spec,
    time_poly_spec,
)
from mmlab.linalg import spectral_norm, symmetrize
from mmlab.montecarlo import derive_path_seeds, plan_for_config
from mmlab.simulate import (
    CollectorPlan,
    EulerScheme,
    TimeGrid,
    bridge_exponentials,
    brownian_increments,
    default_checkpoints,
    exact_constant_spectral_norms,
    simulate_block,
    simulate_path,
    supermartingale_series,
    Trajectory,
)

from .oracles import (
    EvalContext,
    evaluate_integrand,
    exact_constant_path,
    grid_lambda_max,
    loewner_leq,
    reference_increments,
    reference_path,
    always_solve_block,
    schatten_norm,
    summarize,
)

GRID = TimeGrid(horizon=1.0, steps=256)


def family_zoo(n=2, seed=99):
    """One spec of each family, with payloads drawn from `seed`."""
    rng = np.random.default_rng(seed)
    a = symmetrize(rng.standard_normal((2, n, n)))
    b = symmetrize(rng.standard_normal((2, n, n)))
    return [
        constant_spec(a),
        time_poly_spec(a, b),
        path_feedback_spec(a, gamma=0.2),
        diag_basis_spec(n),
        goe_like_spec(n, 2, seed=7),
    ]


class TestTimeGrid:
    def test_dt_and_endpoint(self):
        g = TimeGrid(horizon=2.0, steps=8)
        assert g.dt == 0.25
        t = g.times()
        assert t[0] == 0.0 and t[-1] == 2.0 and len(t) == 9

    def test_validation(self):
        with pytest.raises(InputDomainError):
            TimeGrid(horizon=0.0, steps=4)
        with pytest.raises(InputDomainError):
            TimeGrid(horizon=1.0, steps=0)
        with pytest.raises(InputDomainError):
            TimeGrid(horizon=math.inf, steps=4)


class TestBrownianIncrements:
    def test_deterministic(self):
        a = brownian_increments(GRID, 3, [12345, 7])
        b = brownian_increments(GRID, 3, [12345, 7])
        assert np.array_equal(a, b)

    def test_shape(self):
        assert brownian_increments(GRID, 5, [1, 2]).shape == (2, 256, 5)
        assert brownian_increments(GRID, 5, []).shape == (0, 256, 5)

    def test_moments(self):
        g = TimeGrid(horizon=1.0, steps=10**6)
        inc = brownian_increments(g, 1, [2024])[0]
        assert abs(inc.mean()) < 4.0 * math.sqrt(g.dt / 10**6)
        assert inc.var() == pytest.approx(g.dt, rel=0.01)

    def test_distinct_seeds_differ(self):
        inc = brownian_increments(GRID, 1, [0, 1])
        assert not np.array_equal(inc[0], inc[1])

    def test_matches_default_rng_stream(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        inc = brownian_increments(GRID, 2, seeds)
        for j, seed in enumerate(seeds):
            assert np.array_equal(inc[j], reference_increments(GRID, 2, seed))


class TestSimulatePath:
    def test_zero_integrand(self):
        traj = simulate_path(constant_spec(np.zeros((2, 2))), GRID, seed=3)
        assert np.array_equal(traj.x, np.zeros((257, 2, 2)))
        assert np.array_equal(traj.qv, np.zeros((257, 2, 2)))

    def test_scalar_unit_integrand_partial_sums(self):
        spec = constant_spec(np.ones((1, 1, 1)))
        inc = brownian_increments(GRID, 1, [11])[0]
        traj = simulate_path(spec, GRID, seed=11)
        sums = np.concatenate([[0.0], np.cumsum(inc[:, 0])])
        assert np.array_equal(traj.x[:, 0, 0], sums)
        # qv accumulates dt exactly; grid times are exact binary multiples
        assert np.array_equal(traj.qv[:, 0, 0], traj.times)

    def test_trajectory_invariants_all_families(self):
        for spec in family_zoo(3):
            traj = simulate_path(spec, TimeGrid(1.0, 32), seed=5)
            assert np.array_equal(traj.x, np.swapaxes(traj.x, -1, -2))
            assert np.array_equal(traj.qv, np.swapaxes(traj.qv, -1, -2))
            # qv is Loewner-nondecreasing along the path
            for k in range(32):
                assert loewner_leq(traj.qv[k], traj.qv[k + 1], tol=1e-12)

    def test_ito_isometry_constant_identity(self):
        # E Tr X_T^2 = Tr <X>_T: Tr X^2 is the squared Schatten-2 norm, and
        # Tr <X>_T the quadrature of ||sum_i H_i^2||_1
        spec = constant_spec(np.eye(2))
        plan = CollectorPlan(schatten_orders=(2.0,), quad_schatten_orders=(1.0,))
        out = simulate_block(spec, GRID, np.arange(20000), plan)
        trace_x2 = out["schatten_terminal"][:, 0] ** 2
        se = trace_x2.std() / math.sqrt(len(trace_x2))
        assert out["quad_schatten"][0, 0] == pytest.approx(2.0)
        assert abs(trace_x2.mean() - 2.0) < 4.0 * se

    def test_blowup_raises(self):
        spec = path_feedback_spec(np.ones((1, 1, 1)), gamma=1e200)
        with pytest.raises(PathBlowupError, match=r"at step \d+$") as oracle:
            reference_path(spec, TimeGrid(1.0, 8), seed=1)
        with pytest.raises(PathBlowupError) as engine:
            simulate_path(spec, TimeGrid(1.0, 8), seed=1)
        assert str(engine.value) == str(oracle.value)

    def test_deterministic_qv_overflow_raises(self):
        # the shared qv of a time-only integrand overflows at the first step
        spec = constant_spec([[1e160]])
        with pytest.raises(PathBlowupError, match="at step 1$"):
            simulate_path(spec, TimeGrid(1.0, 8), seed=1)

    def test_increment_shape_mismatch(self):
        spec = constant_spec(np.eye(2))
        with pytest.raises(InputDomainError, match="increments shape"):
            next(EulerScheme(spec, GRID).steps(np.zeros((1, 10, 1))))

    def test_matches_oracle_euler_all_families(self):
        # the engine's trajectory against the per-matrix Euler scheme
        grid = TimeGrid(1.0, 64)
        for spec in family_zoo(3):
            for seed in (5, 6):
                got = simulate_path(spec, grid, seed)
                ref = reference_path(spec, grid, seed)
                for name in ("x", "qv"):
                    a, b = getattr(got, name), getattr(ref, name)
                    for k in range(grid.steps + 1):
                        err = np.max(np.abs(a[k] - b[k]))
                        assert err <= 1e-12 * np.max(np.abs(b[k])), (spec.family, name, k)


class TestSummaries:
    def test_summary_fields(self):
        spec = goe_like_spec(3, 2, seed=4)
        traj = simulate_path(spec, TimeGrid(1.0, 64), seed=9)
        s = summarize(traj)
        assert s.sup_spectral >= spectral_norm(s.terminal_x) - 1e-15
        assert s.sup_spectral >= s.sup_lambda_max
        assert np.all(np.diff(s.qv_norm_series) >= -1e-15)
        assert s.schatten_terminal(2.0) == pytest.approx(schatten_norm(s.terminal_x, 2.0))


class TestSupermartingaleSeries:
    def test_starts_at_dimension(self):
        for spec in family_zoo(3):
            traj = simulate_path(spec, TimeGrid(1.0, 16), seed=21)
            s = supermartingale_series(traj, beta=1.0)
            assert s[0] == 3.0
            assert np.all(s > 0)

    def test_beta_zero_constant(self):
        traj = simulate_path(goe_like_spec(4, 2, seed=1), TimeGrid(1.0, 16), seed=3)
        assert np.array_equal(supermartingale_series(traj, 0.0), np.full(17, 4.0))

    def test_overflow_raises(self):
        times = np.array([0.0, 1.0])
        x = np.zeros((2, 1, 1))
        x[1, 0, 0] = 800.0
        traj = Trajectory(times=times, x=x, qv=np.zeros((2, 1, 1)))
        with pytest.raises(PathBlowupError, match="overflow"):
            supermartingale_series(traj, 1.0)


class TestExactConstantPath:
    def test_zero_matrices(self):
        out = exact_constant_path(np.zeros((3, 2, 2)), 1.0, seed=5)
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_deterministic_in_seed(self):
        h = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        assert np.array_equal(
            exact_constant_path(h, 0.5, seed=9), exact_constant_path(h, 0.5, seed=9)
        )

    def test_scalar_second_moment(self):
        # X_1 ~ N(0, 1): mean of X^2 over 1e6 draws within 1% of 1
        samples = exact_constant_spectral_norms(np.ones((1, 1, 1)), seed=31, count=10**6)
        assert np.mean(samples**2) == pytest.approx(1.0, rel=0.01)

    def test_entrywise_covariance_structure(self):
        # cov(vec X) = t * sum_i vec(H_i) vec(H_i)^T for constant integrands
        t = 0.8
        h = np.stack([np.array([[1.0, 0.5], [0.5, 0.0]]), np.diag([0.0, 2.0])])
        draws = np.stack(
            [exact_constant_path(h, t, seed=s).ravel() for s in range(6000)]
        )
        emp = np.cov(draws.T, bias=True)
        expected = t * sum(np.outer(m.ravel(), m.ravel()) for m in h)
        assert np.max(np.abs(emp - expected)) < 0.1

    def test_diagonal_fast_path_matches_general(self):
        # both routes draw the first sample's normals first, as the single
        # exact sample does; a rotated copy of the payload takes the dense route
        mats = np.stack([np.diag([1.0, -2.0]), np.diag([0.5, 0.5])])
        c, s = math.cos(0.3), math.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        dense = symmetrize(rot @ mats @ rot.T)
        fast = exact_constant_spectral_norms(mats, seed=8, count=500)
        general = exact_constant_spectral_norms(dense, seed=8, count=500)
        single = spectral_norm(exact_constant_path(mats, 1.0, seed=8))
        assert fast[0] == pytest.approx(single, rel=1e-12)
        assert np.allclose(fast, general, rtol=1e-12)

    def test_overflowing_samples_never_reach_lapack(self):
        # 3x3 takes LAPACK: a sample with a non-finite entry gets an
        # infinite norm, and the finite ones are solved one by one
        mats = np.array([[[1e308, 1e308, 0.0], [1e308, 1e308, 0.0], [0.0, 0.0, 1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = exact_constant_spectral_norms(mats, seed=3, count=64)
        g = np.random.default_rng(3).standard_normal((64, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.einsum("si,ikl->skl", g, mats)
        finite = np.isfinite(x).all(axis=(1, 2))
        assert 0 < finite.sum() < 64
        assert np.isinf(norms[~finite]).all()
        for got, xm in zip(norms[finite], x[finite]):
            assert got == np.abs(np.linalg.eigvalsh(xm)).max()

    def test_negative_time_rejected(self):
        with pytest.raises(InputDomainError):
            exact_constant_path(np.eye(2), -1.0, seed=0)


class TestCheckpoints:
    def test_default_256(self):
        cps = default_checkpoints(256)
        assert len(cps) == 8 and cps[0] == 0 and cps[-1] == 256

    def test_small_grid_dedup(self):
        assert default_checkpoints(2) == (0, 1, 2)

    def test_validation(self):
        with pytest.raises(InputDomainError):
            default_checkpoints(0)


class TestSimulateBlock:
    def test_matches_reference_path(self):
        grid = TimeGrid(1.0, 64)
        plan = CollectorPlan(
            sigma2_levels=(0.5, 2.0),
            supermartingale_betas=(0.5, 1.0),
            schatten_orders=(2.0, 4.0),
        )
        for spec in family_zoo(3):
            seeds = np.arange(40, 44, dtype=np.uint64)
            out = simulate_block(spec, grid, seeds, plan)
            for j, seed in enumerate(seeds):
                s = summarize(reference_path(spec, grid, seed))
                rel = max(1.0, s.sup_spectral)
                assert abs(out["sup_spectral"][j] - s.sup_spectral) < 1e-12 * rel
                assert out["bridge_sup"][j] >= s.sup_lambda_max - 1e-12 * rel
                assert abs(
                    out["terminal_spectral"][j] - spectral_norm(s.terminal_x)
                ) < 1e-12 * rel
                assert abs(
                    out["terminal_qv_norm"][j] - spectral_norm(s.terminal_qv)
                ) < 1e-11 * max(1.0, spectral_norm(s.terminal_qv))
                for oi, order in enumerate(plan.schatten_orders):
                    ref = s.schatten_terminal(order)
                    assert abs(out["schatten_terminal"][j, oi] - ref) < 1e-11 * max(1.0, ref)
                for bi, beta in enumerate(plan.supermartingale_betas):
                    series = supermartingale_series(s.trajectory, beta)
                    got = out["supermart"][j, bi]
                    ref = series[list(default_checkpoints(grid.steps))]
                    assert np.max(np.abs(got - ref)) < 1e-10 * max(1.0, ref.max())

    def test_prefix_max_encodes_joint_event(self):
        # the grid prefix max (oracles.grid_lambda_max) is the max of
        # lambda_max over the joint event set; the engine's bridge prefix
        # max over the same steps is at least that
        grid = TimeGrid(1.0, 64)
        levels = (0.25, 0.75, 10.0)
        for spec in family_zoo(2):
            seeds = np.arange(100, 120, dtype=np.uint64)
            out = simulate_block(spec, grid, seeds, CollectorPlan(sigma2_levels=levels))
            _, prefix = grid_lambda_max(spec, grid, seeds, levels)
            for j, seed in enumerate(seeds):
                s = summarize(reference_path(spec, grid, seed))
                lam = s.lambda_max_series
                for li, lvl in enumerate(levels):
                    ok = s.qv_norm_series <= lvl
                    brute = lam[ok].max() if ok.any() else -math.inf
                    # index 0 is always in the event set (both processes start at 0)
                    assert ok[0]
                    assert prefix[j, li] == pytest.approx(max(brute, 0.0), abs=1e-12)
                    assert out["bridge_prefix_max"][j, li] >= max(brute, 0.0) - 1e-12

    def test_bridge_max_dominates_grid_max(self):
        grid = TimeGrid(1.0, 64)
        levels = (0.25, 0.75, 10.0)
        for spec in family_zoo(2) + [constant_spec(np.eye(1))]:
            seeds = np.arange(200, 240, dtype=np.uint64)
            out = simulate_block(spec, grid, seeds, CollectorPlan(sigma2_levels=levels))
            sup, prefix = grid_lambda_max(spec, grid, seeds, levels)
            assert np.all(out["bridge_prefix_max"] >= prefix)
            assert np.all(out["bridge_sup"] >= sup)
            assert np.all(out["bridge_sup"] >= out["bridge_prefix_max"].max(axis=1))
            assert np.all(np.isfinite(out["bridge_sup"]))

    def test_bridge_max_equals_grid_max_for_zero_integrand(self):
        spec = constant_spec(np.zeros((2, 2)))
        out = simulate_block(spec, GRID, np.arange(8), CollectorPlan(sigma2_levels=(1.0,)))
        sup, prefix = grid_lambda_max(spec, GRID, np.arange(8), (1.0,))
        assert np.array_equal(out["bridge_prefix_max"], prefix)
        assert np.array_equal(out["bridge_sup"], sup)

    def test_bridge_max_matches_trajectory_reference(self):
        grid = TimeGrid(1.0, 40)
        levels = (0.25, 0.75, 10.0)
        seeds = np.arange(300, 308, dtype=np.uint64)
        draws = bridge_exponentials(seeds, range(grid.steps))
        # at n = 3 the engine takes the peaks on the certified route, and
        # the reference is the only check of its arithmetic that does not
        # share settle with it
        for spec in family_zoo(2) + family_zoo(3):
            out = simulate_block(spec, grid, seeds, CollectorPlan(sigma2_levels=levels))
            for j, seed in enumerate(seeds):
                traj = reference_path(spec, grid, seed)
                s = summarize(traj)
                hs = [
                    evaluate_integrand(spec, EvalContext(t, x, q))
                    for t, x, q in zip(traj.times[:-1], traj.x[:-1], traj.qv[:-1])
                ]
                var = np.array([spectral_norm(np.einsum("ikl,ilm->km", h, h)) for h in hs])
                lo, hi = s.lambda_max_series[:-1], s.lambda_max_series[1:]
                spread = 2.0 * grid.dt * var * draws[:, j]
                peak = 0.5 * (lo + hi + np.sqrt((hi - lo) ** 2 + spread))
                assert out["bridge_sup"][j] == pytest.approx(peak.max(), rel=1e-9)
                for li, lvl in enumerate(levels):
                    # step k is admitted when ||qv|| <= level at its right end
                    ok = s.qv_norm_series[1:] <= lvl
                    ref = peak[ok].max() if ok.any() else 0.0
                    got = out["bridge_prefix_max"][j, li]
                    assert got == pytest.approx(max(ref, 0.0), rel=1e-9)

    def test_bridge_draws_independent_of_step_batching(self, monkeypatch):
        grid = TimeGrid(1.0, 37)
        plan = CollectorPlan(sigma2_levels=(0.3, 5.0))
        seeds = np.arange(10, 22, dtype=np.uint64)
        for spec in family_zoo(2):
            ref = simulate_block(spec, grid, seeds, plan)
            for batch in (1, 5):
                monkeypatch.setattr(simulate_module, "_BRIDGE_STEPS", batch)
                out = simulate_block(spec, grid, seeds, plan)
                for key in ("bridge_prefix_max", "bridge_sup"):
                    assert np.array_equal(out[key], ref[key]), (spec.family, batch, key)
            monkeypatch.undo()

    def test_non_finite_bridge_statistic_excluded(self):
        # finite states whose per-step variance overflows float64
        spec = constant_spec([[1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = simulate_block(
                spec, TimeGrid(1.0, 8), [1, 2], CollectorPlan(sigma2_levels=(1.0,))
            )
        assert out["excluded"].all()

    def test_bridge_exponentials_counter_stream(self):
        seeds = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
        steps = [0, 1, 2**40, 2**64 - 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = bridge_exponentials(seeds, steps)
        assert e.shape == (4, 3)
        assert np.all(np.isfinite(e)) and np.all(e >= 0.0)
        # pure in (seed, step): a draw does not depend on its batch
        assert np.array_equal(e[2:3], bridge_exponentials(seeds, [2**40]))
        assert np.array_equal(e[:, 1:2], bridge_exponentials(seeds[1:2], steps))
        assert len(np.unique(e)) == e.size
        draws = bridge_exponentials(np.arange(20_000, dtype=np.uint64), [3])
        assert abs(draws.mean() - 1.0) < 0.05

    def test_partition_invariance(self):
        spec = goe_like_spec(2, 2, seed=3)
        seeds = np.arange(30, dtype=np.uint64)
        plan = CollectorPlan(sigma2_levels=(1.0,), schatten_orders=(2.0,))
        whole = simulate_block(spec, GRID, seeds, plan)
        first = simulate_block(spec, GRID, seeds[:13], plan)
        second = simulate_block(spec, GRID, seeds[13:], plan)
        for key in whole:
            stitched = np.concatenate([first[key], second[key]])
            assert np.array_equal(whole[key], stitched), key

    def test_quadratures_constant_family(self):
        rng = np.random.default_rng(55)
        a = symmetrize(rng.standard_normal((3, 4, 4)))
        spec = constant_spec(a)
        s2 = np.einsum("ikl,ilm->km", a, a)
        s1 = a.sum(axis=0)
        plan = CollectorPlan(quad_schatten_orders=(1.0, 2.0), sum_norm_quad=True)
        out = simulate_block(spec, GRID, [0, 1], plan)
        for j, order in enumerate((1.0, 2.0)):
            assert out["quad_schatten"][0, j] == pytest.approx(
                schatten_norm(symmetrize(s2), order), rel=1e-12
            )
        assert out["sum_norm_quad"][0] == pytest.approx(spectral_norm(s1) ** 2, rel=1e-12)

    def test_quadratures_feedback_gamma_zero_match_constant(self):
        rng = np.random.default_rng(56)
        a = symmetrize(rng.standard_normal((2, 3, 3)))
        plan = CollectorPlan(quad_schatten_orders=(2.0,), sum_norm_quad=True)
        const = simulate_block(constant_spec(a), GRID, [5], plan)
        fb = simulate_block(path_feedback_spec(a, 0.0), GRID, [5], plan)
        assert fb["quad_schatten"][0, 0] == pytest.approx(
            const["quad_schatten"][0, 0], rel=1e-9
        )
        assert fb["sum_norm_quad"][0] == pytest.approx(const["sum_norm_quad"][0], rel=1e-9)

    def test_blowup_marks_excluded(self):
        spec = path_feedback_spec(np.ones((1, 1, 1)), gamma=1e200)
        out = simulate_block(spec, TimeGrid(1.0, 8), [1, 2])
        assert out["excluded"].all()

    def test_zero_payload_never_blows_up(self):
        # A_i = 0 keeps X = 0 whatever gamma, so N * gamma^2 overflowing
        # must not turn the zero X @ X term into nan
        spec = path_feedback_spec(np.zeros((2, 3, 3)), gamma=1e200)
        grid = TimeGrid(1.0, 8)
        plan = CollectorPlan(sigma2_levels=(1.0,), schatten_orders=(2.0,), sum_norm_quad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = simulate_block(spec, grid, np.arange(200), plan)
            traj = simulate_path(spec, grid, seed=1)
        assert not out["excluded"].any()
        assert not np.any(traj.x) and not np.any(traj.qv)

    def test_checkpoint_zero_is_dimension(self):
        spec = constant_spec(np.eye(3))
        plan = CollectorPlan(supermartingale_betas=(0.5, 2.0))
        out = simulate_block(spec, GRID, [7], plan)
        assert np.all(out["supermart"][:, :, 0] == 3.0)

    def test_eigen_solve_budget(self, monkeypatch):
        # every collector on, 10 paths in chunks of 4, 4 and 2, 16 steps
        # with 7 supermartingale checkpoints after t = 0, two betas.  When
        # every spectrum was solved on every path at every step:
        # - time-only families solved qv (17 matrices), s2 and sum_i H_i
        #   (16 each) once on the whole grid; then per chunk x at each step
        #   and one solve per beta per checkpoint
        # - path_feedback solved x, qv, s2 and sum_i H_i per step, plus
        #   the checkpoints; ||<X>_T|| reuses the last step's qv spectrum
        # At n = 3 the stepper solves X_T, one call per chunk solves the
        # states kept for the lower bounds, and the replay makes at most one
        # call per batch of 16 steps, on the states that the sharper
        # ceilings do not rule out; on path_feedback qv is solved only where
        # its bracket straddles a level.  So the calls may exceed the old
        # count by one per chunk and no more, and the matrices must stay
        # below the budget of the per-path Weyl bounds of the engine before
        # (323, 336 and 641).  The counts are pinned for these seeds.  The
        # kept states are rebuilt from their coefficients, and the replay
        # solves the Euler states there again: (54, 254), (52, 255) and
        # (158, 554) when the bound pass kept the Euler states and the
        # replay reused their spectra.  With one call per step and
        # the Wolkowicz-Styan ceilings alone they were (78, 284), (68, 276)
        # and (177, 577).
        grid = TimeGrid(1.0, 16)
        plan = CollectorPlan(
            sigma2_levels=(0.5, 2.0),
            supermartingale_betas=(0.5, 1.0),
            schatten_orders=(2.0,),
            quad_schatten_orders=(1.0, 2.0),
            sum_norm_quad=True,
        )
        zoo = family_zoo(3)
        every_solve = {
            "goe_like": (3 + 3 * (16 + 14), 49 + 10 * (16 + 14)),
            "time_poly": (3 + 3 * (16 + 14), 49 + 10 * (16 + 14)),
            "path_feedback": (3 * (4 * 16 + 14), 10 * (4 * 16 + 14)),
        }
        certificates = {"goe_like": 323, "time_poly": 336, "path_feedback": 641}
        budget = {"goe_like": (54, 295), "time_poly": (54, 301), "path_feedback": (158, 601)}
        solve = simulate_module.stacked_eigenvalues
        monkeypatch.setattr(simulate_module, "_CHUNK", 4)
        for spec in (s for s in zoo if s.family in budget):
            calls, matrices = [0], [0]

            def counted(a):
                calls[0] += 1
                matrices[0] += math.prod(a.shape[:-2])
                return solve(a)

            monkeypatch.setattr(simulate_module, "stacked_eigenvalues", counted)
            simulate_block(spec, grid, np.arange(10, dtype=np.uint64), plan)
            assert (calls[0], matrices[0]) == budget[spec.family], spec.family
            assert matrices[0] < certificates[spec.family]
            assert calls[0] <= every_solve[spec.family][0] + 3

    def test_x_solves_per_path_step_at_benchmark_shape(self, monkeypatch):
        # one 256-path block of the shipped GOE config: the x rows solved,
        # lower bounds and X_T included, stay at most 0.12 per path-step
        # (0.081 with the sharper ceilings, 0.307 with the Wolkowicz-Styan
        # ceilings alone, 0.517 with the per-path Weyl bounds before, 1
        # when every path is solved)
        root = Path(simulate_module.__file__).resolve().parents[2]
        text = (root / "configs" / "verify_goe.cfg").read_text()
        exp = parse_settings(text, overrides={"paths": "256"}).experiment
        seeds = derive_path_seeds(exp.master_seed, 0, 256)
        solve, rows, other = simulate_module.stacked_eigenvalues, [0], [False]

        def counted(a):
            if not other[0]:
                rows[0] += math.prod(a.shape[:-2])
            return solve(a)

        def not_x(method):
            def wrapped(*args):
                other[0] = True
                try:
                    return method(*args)
                finally:
                    other[0] = False

            return wrapped

        # the supermartingale exponents and the path-free grid spectra
        # are the only other solves of a time-only family
        monkeypatch.setattr(simulate_module, "stacked_eigenvalues", counted)
        for cls, name in ((simulate_module._Supermartingale, "update"), (simulate_module._Spectra, "path_free")):
            monkeypatch.setattr(cls, name, not_x(getattr(cls, name)))
        simulate_block(exp.spec, exp.grid, seeds, plan_for_config(exp))
        assert rows[0] <= 0.12 * 256 * exp.grid.steps

    def test_working_memory_is_a_few_states_per_path(self):
        # the memory the engine owns at its peak, traced by tracemalloc, on
        # one 1024-path chunk at n = 16 with four drivers, 64 steps, every
        # collector on and a level that stops admitting steps about halfway.
        # On goe_like: at most the increments plus 8 states per path,
        # 18 MiB.  It read about 5.7 states per path beyond the increments;
        # a (steps, paths, n) float64 array alone adds 4, and a copy of
        # every state of the chunk 64.  On path_feedback, whose stepper
        # carries x, qv and sum_i H_i^2 per path and whose collectors solve
        # qv and sum_i H_i: at most 12 states per path, 25 MiB.  It read
        # about 9.9; keeping a window of states and the kept states whole
        # instead of their coefficients read 19.1
        a = symmetrize(np.random.default_rng(1).standard_normal((4, 16, 16))) / 6
        budgets = ((goe_like_spec(16, 4, seed=1), 8), (path_feedback_spec(a, gamma=0.3), 12))
        grid = TimeGrid(1.0, 64)
        plan = CollectorPlan(
            sigma2_levels=(1.0,),
            supermartingale_betas=(0.5,),
            schatten_orders=(2.0,),
            quad_schatten_orders=(1.0,),
            sum_norm_quad=True,
        )
        seeds = np.arange(simulate_module._CHUNK, dtype=np.uint64)
        assert len(seeds) == 1024
        for spec, budget in budgets:
            simulate_block(spec, grid, seeds[:8], plan)
            tracemalloc.start()
            try:
                simulate_block(spec, grid, seeds, plan)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            increments, state = grid.steps * spec.drivers * 8, spec.n * spec.n * 8
            assert peak <= len(seeds) * (increments + budget * state), spec.family

    def test_ties_and_nans_reach(self):
        # a ceiling equal to the lower bound may be the step that attains
        # it, and a nan on either side certifies nothing
        reaches = ceilings_module.reaches
        ceiling = np.array([1.0, 0.0, np.nan, 1.0, 0.5])
        floor = np.array([1.0, 0.0, 1.0, np.nan, 1.0])
        assert reaches(ceiling, floor).tolist() == [True, True, True, True, False]

    def test_nonfinite_bound_forces_a_solve(self, monkeypatch):
        # a nan or infinite ceiling certifies nothing, and a nan voids no
        # offer.  Path 0's norm ceiling is made nan at every state but the
        # one its tracker keeps, and path 1's lambda_max ceiling infinite
        # from grid index 5 on, in the coefficient ceilings on goe_like and
        # on path_feedback.  Path 0 still keeps that state, so its norm
        # floor is the unpoisoned one, and every other state of it is
        # flagged; every bridge step of path 1 that ends at index 5 or
        # later is a candidate.  The outputs still match the engine that
        # solves every path
        a = np.array([[0.8, 0.2, 0.1], [0.2, 0.5, -0.3], [0.1, -0.3, 0.4]])
        specs = (goe_like_spec(3, 2, seed=7), path_feedback_spec(a, 0.3))
        grid = TimeGrid(1.0, 32)
        plan = CollectorPlan(sigma2_levels=(1.0,))
        seeds = np.arange(4, dtype=np.uint64)
        coefficients = ceilings_module.Coefficients
        norms, bridge = simulate_module._Norms, simulate_module._BridgeTail
        ceilings, lower, lower_bridge = coefficients.ceilings, norms.lower, bridge.lower
        seen = {}

        def poisoned_ceilings(self, c, size, k, growth=None):
            # c holds the states at grid indices up to k
            norm, top = ceilings(self, c, size, k, growth)
            grid_index = np.arange(k - len(c) + 1, k + 1)
            norm[(grid_index != seen["kept"]) & (grid_index > 0), 0] = np.nan
            top[grid_index >= 5, 1] = np.inf
            return norm, top

        def recording_lower(self):
            lower(self)
            seen["floor"] = self.floor.copy()
            seen["need"] = self.need.copy()
            seen.setdefault("kept", self.best.index[0, 0])

        def recording_lower_bridge(self):
            lower_bridge(self)
            seen["candidates"] = self.cand.copy()

        for spec in specs:
            seen.clear()
            monkeypatch.setattr(norms, "lower", recording_lower)
            monkeypatch.setattr(bridge, "lower", recording_lower_bridge)
            simulate_block(spec, grid, seeds, plan)
            clean = dict(seen)
            assert not clean["need"][:, 0].all() and not clean["candidates"][4:, 1].all()
            monkeypatch.setattr(coefficients, "ceilings", poisoned_ceilings)
            out = simulate_block(spec, grid, seeds, plan)
            assert seen["floor"][0] == clean["floor"][0]
            # need row k flags X_{k+1}
            others = np.arange(1, grid.steps + 1) != clean["kept"]
            assert seen["need"][others, 0].all()
            assert seen["candidates"][4:, 1].all()
            monkeypatch.undo()
            ref = always_solve_block(spec, grid, seeds, plan)
            assert not ref["excluded"].any()
            for key, values in ref.items():
                assert np.array_equal(out[key], values), (spec.family, key)

    @pytest.mark.parametrize(
        "replay_bytes", [simulate_module._REPLAY_BYTES, 1], ids=["batch", "step"]
    )
    @pytest.mark.parametrize("family", ["goe_like", "time_poly"])
    def test_recertified_batches_match_always_solve(self, monkeypatch, family, replay_bytes):
        # the solve pass re-certifies and solves x one batch of 16 steps at
        # a time.  x after a batch's last step is also the left end of the
        # next batch's first step, whose bridge candidacy that batch has not
        # re-decided yet.  On 33 steps batches end at 16 and 32 and the last
        # is one step long; every collector is on, with levels that stop
        # admitting steps inside batches, in chunks of 4, 4 and 4 paths.
        # With _REPLAY_BYTES at 1 each step is a span of its own.  Every
        # output equals that of the engine that solves every path at every
        # step, bit for bit
        spec = next(s for s in family_zoo(4) if s.family == family)
        grid = TimeGrid(1.0, 33)
        plan = CollectorPlan(
            sigma2_levels=(1.5, 4.0, 8.0),
            supermartingale_betas=(0.5,),
            schatten_orders=(2.0,),
            quad_schatten_orders=(1.0,),
            sum_norm_quad=True,
        )
        seeds = np.arange(12, dtype=np.uint64)
        monkeypatch.setattr(simulate_module, "_CHUNK", 4)
        monkeypatch.setattr(simulate_module, "_REPLAY_BYTES", replay_bytes)
        out = simulate_block(spec, grid, seeds, plan)
        ref = always_solve_block(spec, grid, seeds, plan)
        assert not ref["excluded"].any()
        for key, values in ref.items():
            assert np.array_equal(out[key], values), key

    @pytest.mark.parametrize("payload", ["one_driver", "reflection", "two_drivers"])
    def test_qv_bracket_holds_the_solved_spectrum(self, monkeypatch, payload):
        # on path_feedback the Weyl bracket must hold lambda_max(<X>) from
        # below and ||<X>|| from above after every step, on every path, to
        # the last bit, and a level it settles must be admitted as a solve
        # would admit it.  With one driver every H commutes with <X>; a
        # reflection with gamma = 0 (A^2 = I up to rounding) makes both ends
        # tight; two drivers that do not commute turn <X> away from
        # sum_i H_i^2
        a = np.array([[0.8, 0.2, 0.1], [0.2, 0.5, -0.3], [0.1, -0.3, 0.4]])
        gamma = 0.3
        if payload == "reflection":
            q = np.linalg.qr(a)[0]
            a, gamma = q @ np.diag([1.0, -1.0, 1.0]) @ q.T, 0.0
        if payload == "two_drivers":
            a = np.stack([a, np.diag([0.6, -0.1, 0.3])])
        spec = path_feedback_spec(a, gamma=gamma)
        norm, solve = simulate_module._norm, simulate_module.stacked_eigenvalues
        held = []
        inside = simulate_module._BridgeTail._inside

        def checked_inside(self, spectra, s2):
            admits = inside(self, spectra, s2)
            if not spectra.last:
                eigs = solve(spectra.step.qv)
                exact = np.less_equal.outer(norm(eigs), self.levels)
                held.append(
                    (self.qv_floor <= eigs[:, -1])
                    & (self.qv_ceil >= norm(eigs))
                    & (admits == exact).all(axis=1)
                )
            return admits

        monkeypatch.setattr(simulate_module._BridgeTail, "_inside", checked_inside)
        plan = CollectorPlan(sigma2_levels=(0.3,))
        simulate_block(spec, TimeGrid(1.0, 32), np.arange(16, dtype=np.uint64), plan)
        assert len(held) == 31
        assert np.all(held)


class TestEngineSeeding:
    def test_one_stream_call_per_chunk(self, monkeypatch):
        # the Brownian streams of a chunk come from one call, and no path
        # is seeded through default_rng or a SeedSequence of its own
        calls = []
        real = simulate_module.brownian_increments
        real_pcg64 = np.random.PCG64

        def spy(grid, drivers, seeds):
            calls.append(len(seeds))
            return real(grid, drivers, seeds)

        def forbidden(*args, **kwargs):
            raise AssertionError("the engine seeded a path on its own")

        def pcg64(seed):
            assert isinstance(seed, ISeedSequence) and not isinstance(seed, SeedSequence)
            return real_pcg64(seed)

        monkeypatch.setattr(simulate_module, "brownian_increments", spy)
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        monkeypatch.setattr(np.random, "SeedSequence", forbidden)
        monkeypatch.setattr(np.random, "PCG64", pcg64)
        chunk = simulate_module._CHUNK
        seeds = np.arange(2 * chunk + 7, dtype=np.uint64)
        simulate_block(constant_spec(np.ones((1, 1, 1))), TimeGrid(1.0, 4), seeds)
        assert calls == [chunk, chunk, 7]

    def test_import_and_one_worker_verify_leave_modules_unloaded(self, tmp_path):
        # importing the CLI must not import numpy.random, and a one-worker
        # verify must not import multiprocessing
        root = Path(simulate_module.__file__).resolve().parents[2]
        code = textwrap.dedent(
            f"""
            import sys
            from mmlab.cli import main
            assert "numpy.random" not in sys.modules
            try:
                main(["verify", "--config", {str(root / "configs" / "verify_scalar.cfg")!r},
                      "--out", {str(tmp_path)!r}, "--set", "paths=200"])
            except SystemExit as done:
                assert done.code == 0, done.code
            assert "numpy.random" in sys.modules
            assert "multiprocessing" not in sys.modules
            """
        )
        env = {k: v for k, v in os.environ.items() if not k.startswith("MMLAB_")}
        env["PYTHONPATH"] = str(root / "src")
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
