import math

import numpy as np
import pytest

from mmlab.errors import InputDomainError, NumericError
from mmlab.linalg import (
    has_closed_form,
    hermitian_dilation,
    matrix_abs,
    matrix_exp_sym,
    schatten_from_eigenvalues,
    spectral_norm,
    stacked_eigenvalues,
    sym_eigen,
    symmetrize,
    trace_exp,
)

from .oracles import (
    jacobi_eigenvalues,
    lambda_max,
    loewner_leq,
    reconstruct,
    schatten_norm,
    schatten_norm_rect,
    singular_values,
)


def random_sym(rng, n):
    return symmetrize(rng.standard_normal((n, n)))


class TestSymEigen:
    def test_diagonal(self):
        spec = sym_eigen(np.diag([3.0, -4.0]))
        assert np.allclose(spec.eigenvalues, [3.0, -4.0])

    def test_2x2_closed_form(self):
        spec = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(spec.eigenvalues, [3.0, 1.0])

    def test_descending_order(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = sym_eigen(random_sym(rng, 7)).eigenvalues
            assert np.all(np.diff(w) <= 0)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a = random_sym(rng, 6)
            mine = sym_eigen(a, with_basis=False).eigenvalues
            ref = jacobi_eigenvalues(a)
            assert np.max(np.abs(mine - ref)) < 1e-9

    def test_reconstruction_and_trace(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 8):
            a = random_sym(rng, n)
            spec = sym_eigen(a)
            norm = spectral_norm(a)
            assert np.max(np.abs(reconstruct(spec) - a)) <= 1e-10 * max(norm, 1e-300)
            assert np.max(np.abs(spec.basis.T @ spec.basis - np.eye(n))) <= 1e-10
            tr = np.trace(a)
            assert abs(spec.eigenvalues.sum() - tr) <= 1e-10 * abs(tr) + 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(InputDomainError, match="not symmetric"):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(InputDomainError, match="non-finite"):
            sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(InputDomainError):
            sym_eigen(np.zeros((2, 3)))

    def test_eigenvalues_immutable(self):
        spec = sym_eigen(np.eye(2))
        with pytest.raises(ValueError):
            spec.eigenvalues[0] = 9.0


class TestStackedEigenvalues:
    def test_n1(self):
        a = np.array([[[2.0]], [[-3.0]]])
        assert np.allclose(stacked_eigenvalues(a), [[2.0], [-3.0]])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9])
    def test_rows_do_not_depend_on_the_rest_of_the_stack(self, n):
        # the engine solves gathered subsets of a stack and relies on every
        # matrix getting the eigenvalues the whole stack would give it
        rng = np.random.default_rng(7 * n)
        stack = symmetrize(rng.standard_normal((300, n, n)) * rng.lognormal(size=(300, 1, 1)))
        whole = stacked_eigenvalues(stack)
        for size in (1, 5, 77):
            rows = np.sort(rng.choice(300, size=size, replace=False))
            assert np.array_equal(stacked_eigenvalues(stack[rows]), whole[rows])
        assert has_closed_form(n) == (n <= 2)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_per_matrix_solver(self, n):
        rng = np.random.default_rng(100 + n)
        stack = symmetrize(rng.standard_normal((40, n, n)))
        got = stacked_eigenvalues(stack)
        for k in range(40):
            ref = np.sort(sym_eigen(stack[k], with_basis=False).eigenvalues)
            assert np.max(np.abs(np.sort(got[k]) - ref)) < 1e-12 * max(1.0, np.abs(ref).max())

    def test_2x2_near_degenerate(self):
        a = np.array([[[1.0, 1e-9], [1e-9, 1.0]]])
        w = stacked_eigenvalues(a)
        assert np.allclose(w, [[1.0 - 1e-9, 1.0 + 1e-9]])


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -4.0])) == 4.0

    def test_zero(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_norm_sandwich(self):
        # ||A|| <= ||A||_p <= n^(1/p) ||A||
        rng = np.random.default_rng(77)
        for _ in range(10):
            a = random_sym(rng, 5)
            op = spectral_norm(a)
            for p in (1.0, 2.0, 4.0):
                sp = schatten_norm(a, p)
                assert op <= sp + 1e-12
                assert sp <= 5 ** (1.0 / p) * op + 1e-12

    def test_lambda_max_signed(self):
        assert lambda_max(np.diag([-1.0, -5.0])) == -1.0
        assert spectral_norm(np.diag([-1.0, -5.0])) == 5.0


class TestSchattenNorm:
    def test_diagonal_p1(self):
        assert schatten_norm(np.diag([3.0, -4.0]), 1.0) == pytest.approx(7.0)

    def test_identity_p2(self):
        assert schatten_norm(np.eye(3), 2.0) == pytest.approx(math.sqrt(3.0))

    def test_p3_matches_trace_of_abs_cubed(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = random_sym(rng, 5)
            absa = matrix_abs(a)
            ref = np.trace(absa @ absa @ absa) ** (1.0 / 3.0)
            assert schatten_norm(a, 3.0) == pytest.approx(ref, abs=1e-9)

    def test_rejects_p_below_one(self):
        with pytest.raises(InputDomainError, match=">= 1"):
            schatten_norm(np.eye(2), 0.5)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(303)
        for _ in range(20):
            a = random_sym(rng, 4)
            b = random_sym(rng, 4)
            for p in (1.0, 2.0, 3.5, 7.0):
                lhs = schatten_norm(a + b, p)
                assert lhs <= schatten_norm(a, p) + schatten_norm(b, p) + 1e-9

    def test_large_p_no_overflow(self):
        # scaling keeps |eig|^p away from inf even for extreme p
        val = schatten_from_eigenvalues(np.array([1e200, -1e200]), 400.0)
        assert val == pytest.approx(1e200 * 2.0 ** (1.0 / 400.0))

    def test_zero_matrix(self):
        assert schatten_norm(np.zeros((4, 4)), 3.0) == 0.0


class TestSchattenRect:
    def test_unit_row(self):
        for p in (1.0, 2.0, 7.0):
            assert schatten_norm_rect(np.array([[1.0, 0.0]]), p) == pytest.approx(1.0)

    def test_diagonal_singular_values(self):
        a = np.array([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
        assert schatten_norm_rect(a, 2.0) == pytest.approx(5.0)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_dilation_cross_check(self, p):
        # dilation has singular values of A twice, so norms differ by 2^(1/p)
        rng = np.random.default_rng(51)
        a = rng.standard_normal((4, 7))
        lhs = schatten_norm(hermitian_dilation(a), p)
        assert lhs == pytest.approx(2.0 ** (1.0 / p) * schatten_norm_rect(a, p), rel=1e-10)

    def test_singular_values_descending_nonnegative(self):
        rng = np.random.default_rng(6)
        s = singular_values(rng.standard_normal((3, 6)))
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 0)
        assert s.shape == (3,)


class TestMatrixAbs:
    def test_diagonal(self):
        assert np.allclose(matrix_abs(np.diag([3.0, -4.0])), np.diag([3.0, 4.0]))

    def test_psd_fixed_point(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((4, 4))
        a = symmetrize(g @ g.T)
        assert np.max(np.abs(matrix_abs(a) - a)) <= 1e-10 * spectral_norm(a)

    def test_square_matches(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            a = random_sym(rng, 5)
            absa = matrix_abs(a)
            assert np.max(np.abs(absa @ absa - a @ a)) < 1e-9

    def test_psd_and_commutes(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a = random_sym(rng, 5)
            absa = matrix_abs(a)
            assert np.linalg.eigvalsh(absa)[0] >= -1e-12
            assert np.linalg.norm(absa @ a - a @ absa) <= 1e-9


class TestTraceExp:
    def test_zero_matrix(self):
        for n in (1, 2, 5):
            assert trace_exp(3.0 * np.zeros((n, n))) == pytest.approx(float(n))

    def test_diagonal(self):
        assert trace_exp(np.diag([1.0, -1.0])) == pytest.approx(math.e + 1.0 / math.e)

    def test_off_diagonal(self):
        got = trace_exp(2.0 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert got == pytest.approx(2.0 * math.cosh(2.0))

    def test_overflow_raises(self):
        with pytest.raises(NumericError, match="overflow"):
            trace_exp(np.diag([800.0, 0.0]))

    def test_overflow_negative_beta(self):
        with pytest.raises(NumericError, match="overflow"):
            trace_exp(-1.0 * np.diag([-800.0, 0.0]))

    def test_strictly_positive(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            assert trace_exp(0.7 * random_sym(rng, 4)) > 0.0

    def test_matrix_exp_consistency(self):
        rng = np.random.default_rng(14)
        a = random_sym(rng, 4)
        assert np.trace(matrix_exp_sym(a)) == pytest.approx(trace_exp(a), rel=1e-12)


class TestHermitianDilation:
    def test_scalar(self):
        d = hermitian_dilation(np.array([[1.0]]))
        assert np.array_equal(d, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(sym_eigen(d).eigenvalues, [1.0, -1.0])

    def test_norm_equals_top_singular_value(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((3, 5))
        # oracle route: top singular value from the Jacobi eigensolver on A A^T
        top_sv = math.sqrt(jacobi_eigenvalues(a @ a.T)[0])
        assert spectral_norm(hermitian_dilation(a)) == pytest.approx(top_sv, abs=1e-10)

    def test_square_is_block_diagonal(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((2, 4))
        d2 = hermitian_dilation(a) @ hermitian_dilation(a)
        expected = np.zeros((6, 6))
        expected[:2, :2] = a @ a.T
        expected[2:, 2:] = a.T @ a
        assert np.max(np.abs(d2 - expected)) < 1e-12

    def test_spectrum_symmetric_about_zero(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((3, 3))
        w = sym_eigen(hermitian_dilation(a), with_basis=False).eigenvalues
        assert np.max(np.abs(w + w[::-1])) < 1e-10


class TestLoewnerLeq:
    def test_scalar_shift(self):
        assert loewner_leq(np.eye(3), 2.0 * np.eye(3))

    def test_incomparable(self):
        assert not loewner_leq(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert not loewner_leq(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))

    def test_psd_by_construction(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            a = random_sym(rng, 4)
            g = rng.standard_normal((4, 4))
            assert loewner_leq(a, a + symmetrize(g @ g.T))

    def test_reflexive_under_roundoff(self):
        a = np.eye(3)
        assert loewner_leq(a, a)

    def test_dimension_mismatch(self):
        with pytest.raises(InputDomainError, match="mismatch"):
            loewner_leq(np.eye(2), np.eye(3))
