import numpy as np
import pytest

from mmlab.errors import InputDomainError, SpecValidationError
from mmlab.integrands import (
    IntegrandSpec,
    aggregates,
    constant_spec,
    deterministic_sum,
    deterministic_sum_squares,
    diag_basis_spec,
    feedback_sum,
    feedback_sum_squares,
    goe_like_spec,
    is_path_dependent,
    is_time_dependent,
    path_feedback_spec,
    rect_constant_spec,
    time_poly_spec,
    validate_spec,
)
from mmlab.linalg import symmetrize

from .oracles import EvalContext, evaluate_integrand


def ctx_at(t, n):
    return EvalContext(time=t, x_current=np.zeros((n, n)), qv_current=np.zeros((n, n)))


class TestValidation:
    def test_identity_constant_valid(self):
        spec = constant_spec(np.eye(2))
        assert spec.family == "constant" and spec.n == 2 and spec.drivers == 1

    def test_asymmetric_rejected(self):
        with pytest.raises(SpecValidationError, match="not symmetric"):
            constant_spec(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_asymmetric_names_offender(self):
        mats = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(SpecValidationError, match="matrix 1"):
            constant_spec(mats)

    def test_zero_drivers_rejected(self):
        spec = IntegrandSpec(family="constant", n=2, drivers=0, matrices=np.zeros((0, 2, 2)))
        with pytest.raises(SpecValidationError, match="at least one driver"):
            validate_spec(spec)

    def test_unknown_family(self):
        spec = IntegrandSpec(family="levy", n=1, drivers=1, matrices=np.zeros((1, 1, 1)))
        with pytest.raises(SpecValidationError, match="unknown integrand family"):
            validate_spec(spec)

    def test_diag_basis_structure(self):
        spec = diag_basis_spec(4)
        assert spec.drivers == 4
        for i in range(4):
            e = np.zeros((4, 4))
            e[i, i] = 1.0
            assert np.array_equal(spec.matrices[i], e)

    def test_diag_basis_wrong_driver_count(self):
        spec = IntegrandSpec(family="diag_basis", n=3, drivers=2, matrices=np.zeros((2, 3, 3)))
        with pytest.raises(SpecValidationError, match="N = n"):
            validate_spec(spec)

    def test_non_finite_rejected(self):
        with pytest.raises(SpecValidationError, match="non-finite"):
            constant_spec(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_payload_immutable(self):
        spec = constant_spec(np.eye(2))
        with pytest.raises(ValueError):
            spec.matrices[0, 0, 0] = 5.0

    def test_slopes_only_for_time_poly(self):
        spec = IntegrandSpec(
            family="constant", n=2, drivers=1, matrices=np.eye(2)[None], slopes=np.eye(2)[None]
        )
        with pytest.raises(SpecValidationError, match="slope"):
            validate_spec(spec)


class TestEvaluate:
    def test_constant_returns_payload(self):
        mats = np.stack([np.eye(2), 2.0 * np.eye(2)])
        spec = constant_spec(mats)
        out = evaluate_integrand(spec, ctx_at(0.7, 2))
        assert np.array_equal(out, mats)

    def test_time_poly_at_zero(self):
        spec = time_poly_spec(np.zeros((2, 2)), np.eye(2))
        out = evaluate_integrand(spec, ctx_at(0.0, 2))
        assert np.array_equal(out, np.zeros((1, 2, 2)))

    def test_time_poly_linear_in_time(self):
        spec = time_poly_spec(np.eye(2), np.diag([1.0, -2.0]))
        out = evaluate_integrand(spec, ctx_at(0.5, 2))
        assert np.allclose(out[0], np.diag([1.5, 0.0]))

    def test_path_feedback_zero_gamma_is_constant(self):
        a = symmetrize(np.arange(4.0).reshape(2, 2))
        spec = path_feedback_spec(a, gamma=0.0)
        ctx = EvalContext(time=0.3, x_current=np.full((2, 2), 9.0), qv_current=np.zeros((2, 2)))
        assert np.array_equal(evaluate_integrand(spec, ctx), a[None])

    def test_path_feedback_uses_state(self):
        spec = path_feedback_spec(np.zeros((2, 2)), gamma=0.5)
        x = np.diag([2.0, 4.0])
        ctx = EvalContext(time=0.0, x_current=x, qv_current=np.zeros((2, 2)))
        assert np.allclose(evaluate_integrand(spec, ctx)[0], 0.5 * x)

    def test_adaptedness_same_context_same_output(self):
        spec = path_feedback_spec(np.eye(3), gamma=0.2)
        x = symmetrize(np.random.default_rng(3).standard_normal((3, 3)))
        c1 = EvalContext(time=0.4, x_current=x, qv_current=np.eye(3))
        c2 = EvalContext(time=0.4, x_current=x.copy(), qv_current=np.eye(3))
        assert np.array_equal(evaluate_integrand(spec, c1), evaluate_integrand(spec, c2))

    def test_dimension_mismatch(self):
        spec = constant_spec(np.eye(2))
        with pytest.raises(InputDomainError, match="dimension"):
            evaluate_integrand(spec, ctx_at(0.0, 3))

    def test_negative_time_rejected(self):
        with pytest.raises(InputDomainError, match=">= 0"):
            ctx_at(-1.0, 2)

    def test_outputs_symmetric_all_families(self):
        rng = np.random.default_rng(10)
        a = symmetrize(rng.standard_normal((2, 3, 3)))
        b = symmetrize(rng.standard_normal((2, 3, 3)))
        x = symmetrize(rng.standard_normal((3, 3)))
        specs = [
            constant_spec(a),
            time_poly_spec(a, b),
            path_feedback_spec(a, gamma=0.3),
            diag_basis_spec(3),
            goe_like_spec(3, 2, seed=5),
        ]
        ctx = EvalContext(time=0.7, x_current=x, qv_current=np.eye(3))
        for spec in specs:
            out = evaluate_integrand(spec, ctx)
            assert np.array_equal(out, np.swapaxes(out, -1, -2))
            assert np.all(np.isfinite(out))


class TestGoeLike:
    def test_frozen_by_seed(self):
        a = goe_like_spec(4, 3, seed=11)
        b = goe_like_spec(4, 3, seed=11)
        c = goe_like_spec(4, 3, seed=12)
        assert np.array_equal(a.matrices, b.matrices)
        assert not np.array_equal(a.matrices, c.matrices)

    def test_entry_variances(self):
        # var 1/n off-diagonal, 2/n diagonal, estimated over many draws
        n, reps = 4, 4000
        diag_vals, off_vals = [], []
        for s in range(reps):
            m = goe_like_spec(n, 1, seed=s).matrices[0]
            diag_vals.extend(np.diag(m))
            off_vals.extend(m[np.triu_indices(n, 1)])
        assert np.var(diag_vals) == pytest.approx(2.0 / n, rel=0.1)
        assert np.var(off_vals) == pytest.approx(1.0 / n, rel=0.1)
        assert abs(np.mean(diag_vals)) < 0.05 and abs(np.mean(off_vals)) < 0.05


class TestRectPayloads:
    def test_dilation_block_structure(self):
        spec = rect_constant_spec(np.array([[1.0, 2.0]]))
        assert spec.n == 3 and spec.rect_shape == (1, 2)
        expected = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        assert np.array_equal(spec.matrices[0], expected)

    def test_multiple_payloads(self):
        rng = np.random.default_rng(2)
        spec = rect_constant_spec(rng.standard_normal((3, 2, 4)))
        assert spec.drivers == 3 and spec.n == 6 and spec.rect_shape == (2, 4)


class TestAggregates:
    def test_diag_basis_sums_to_identity(self):
        agg = aggregates(diag_basis_spec(5))
        assert np.array_equal(agg.sum_sq_base, np.eye(5))
        assert np.array_equal(agg.sum_base, np.eye(5))

    def test_deterministic_sum_squares_matches_reference(self):
        rng = np.random.default_rng(21)
        a = symmetrize(rng.standard_normal((3, 4, 4)))
        b = symmetrize(rng.standard_normal((3, 4, 4)))
        spec = time_poly_spec(a, b)
        times = np.array([0.0, 0.25, 1.0])
        fast = deterministic_sum_squares(spec, times)
        for j, t in enumerate(times):
            h = evaluate_integrand(spec, ctx_at(t, 4))
            ref = np.einsum("ikl,ilm->km", h, h)
            assert np.max(np.abs(fast[j] - ref)) < 1e-12

    def test_deterministic_sum_matches_reference(self):
        rng = np.random.default_rng(22)
        a = symmetrize(rng.standard_normal((2, 3, 3)))
        spec = constant_spec(a)
        out = deterministic_sum(spec, np.array([0.0, 5.0]))
        assert np.allclose(out[0], a.sum(axis=0))
        assert np.allclose(out[1], a.sum(axis=0))

    def test_feedback_kernels_match_reference(self):
        rng = np.random.default_rng(23)
        a = symmetrize(rng.standard_normal((3, 4, 4)))
        spec = path_feedback_spec(a, gamma=0.3)
        agg = aggregates(spec)
        x = symmetrize(rng.standard_normal((6, 4, 4)))
        got_sq = feedback_sum_squares(spec, x, agg)
        got_sum = feedback_sum(spec, x, agg)
        for b in range(6):
            ctx = EvalContext(time=0.1, x_current=x[b], qv_current=np.eye(4))
            h = evaluate_integrand(spec, ctx)
            assert np.max(np.abs(got_sq[b] - np.einsum("ikl,ilm->km", h, h))) < 1e-12
            assert np.max(np.abs(got_sum[b] - h.sum(axis=0))) < 1e-12

    def test_overflowed_coefficient_times_zero_is_zero(self):
        # at t = 0 and X = 0 the expanded terms are absent from the
        # per-matrix sums, even when their coefficient left float64 range
        a = np.array([[[1.0, 0.5], [0.5, 2.0]], [[0.0, 1.0], [1.0, 0.0]]])
        at_zero = np.einsum("ikl,ilm->km", a, a)
        spec = time_poly_spec(a, np.full((2, 2, 2), 1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            squares = deterministic_sum_squares(spec, np.array([0.0, 0.5]))
        assert np.array_equal(squares[0], at_zero)
        assert not np.isfinite(squares[1]).any()
        spec = time_poly_spec(a, np.full((2, 2, 2), 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            sums = deterministic_sum(spec, np.array([0.0]))
        assert np.array_equal(sums[0], a.sum(axis=0))
        spec = path_feedback_spec(a, gamma=1e200)
        agg = aggregates(spec)
        x = np.zeros((3, 2, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            squares = feedback_sum_squares(spec, x, agg)
        assert np.array_equal(squares, np.broadcast_to(at_zero, x.shape))
        spec = path_feedback_spec(a, gamma=1e308)
        agg = aggregates(spec)
        with np.errstate(over="ignore", invalid="ignore"):
            sums = feedback_sum(spec, x, agg)
        assert np.array_equal(sums, np.broadcast_to(a.sum(axis=0), x.shape))

    def test_path_dependent_rejects_deterministic_kernel(self):
        spec = path_feedback_spec(np.eye(2), gamma=0.1)
        with pytest.raises(InputDomainError, match="path-dependent"):
            deterministic_sum_squares(spec, np.array([0.0]))

    def test_flags(self):
        assert is_path_dependent(path_feedback_spec(np.eye(2), 0.1))
        assert not is_path_dependent(constant_spec(np.eye(2)))
        assert is_time_dependent(time_poly_spec(np.eye(2), np.eye(2)))
        assert not is_time_dependent(diag_basis_spec(2))
