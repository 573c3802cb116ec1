from math import comb

import numpy as np
import pytest

from rbfstudy.polybasis import MonomialBasis, basis_matrix, is_determining_set


class TestMonomialBasis:
    def test_empty_basis_for_cpd_order_zero(self):
        basis = MonomialBasis.for_cpd_order(2, 0)
        assert basis.size == 0
        assert basis.exponents == ()

    def test_graded_lex_order_2d(self):
        basis = MonomialBasis(2, 2)
        assert basis.exponents == (
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
        )

    @pytest.mark.parametrize("dim,m", [(1, 1), (1, 3), (2, 2), (3, 2), (2, 4)])
    def test_size_is_binomial(self, dim, m):
        basis = MonomialBasis.for_cpd_order(dim, m)
        assert basis.size == comb(dim + m - 1, dim)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            MonomialBasis(1, -2)
        with pytest.raises(ValueError):
            MonomialBasis(0, 1)


class TestDerivative:
    def test_rule_of_a_quadratic_basis(self):
        basis = MonomialBasis(2, 2)  # 1, x, y, x^2, xy, y^2
        assert basis.derivative_rule((2, 0)) == [None, None, None, ((2, 1), (0, 0)), None, None]
        assert basis.derivative_rule((1, 0)) == [
            None, ((1,), (0, 0)), None, ((2,), (1, 0)), ((1,), (0, 1)), None]
        assert basis.derivative_rule((0, 0))[4] == ((), (1, 1))

    def test_derivatives_of_a_cubic(self):
        # p = 1 + 3x^2 - xy + 2x^3 in 2D; p_x = 6x - y + 6x^2, p_xx = 6 + 12x
        basis = MonomialBasis(2, 3)
        coeffs = np.zeros(basis.size)
        for expo, c in {(0, 0): 1.0, (2, 0): 3.0, (1, 1): -1.0, (3, 0): 2.0}.items():
            coeffs[basis.exponents.index(expo)] = c
        x = np.array([[0.5, 2.0], [-1.0, 0.25]])
        assert np.array_equal(basis.evaluate_derivative(coeffs, (1, 0), x), [2.5, -0.25])
        assert np.array_equal(basis.evaluate_derivative(coeffs, (2, 0), x), [12.0, -6.0])
        assert np.array_equal(basis.evaluate_derivative(coeffs, (3, 0), x), [12.0, 12.0])
        zero = basis.evaluate_derivative(coeffs, (0, 2), x)
        assert isinstance(zero, float) and zero == 0.0


class TestBasisMatrix:
    def test_constants_column(self):
        basis = MonomialBasis.for_cpd_order(1, 1)
        mat = basis_matrix(basis, np.array([[0.3], [0.7]]))
        assert mat.shape == (2, 1)
        assert np.array_equal(mat, [[1.0], [1.0]])

    def test_linear_basis_1d(self):
        basis = MonomialBasis.for_cpd_order(1, 2)
        mat = basis_matrix(basis, np.array([[0.0], [2.0]]))
        assert np.array_equal(mat, [[1.0, 0.0], [1.0, 2.0]])

    def test_linear_basis_2d_graded_lex(self):
        basis = MonomialBasis.for_cpd_order(2, 2)
        mat = basis_matrix(basis, np.array([[1.0, 2.0]]))
        assert np.array_equal(mat, [[1.0, 1.0, 2.0]])

    def test_empty_matrix_for_m_zero(self):
        basis = MonomialBasis.for_cpd_order(2, 0)
        mat = basis_matrix(basis, np.array([[1.0, 2.0], [0.0, 0.5]]))
        assert mat.shape == (2, 0)

    def test_dimension_mismatch(self):
        basis = MonomialBasis.for_cpd_order(2, 1)
        with pytest.raises(ValueError):
            basis_matrix(basis, np.array([[1.0], [2.0]]))


class TestDeterminingSet:
    def test_m_zero_vacuous(self):
        assert is_determining_set(np.zeros((0, 1)).reshape(0, 1), 0, 1)
        assert is_determining_set(np.array([[0.3]]), 0, 1)

    def test_single_point_not_determining_for_lines(self):
        # p(x) = x vanishes on {0} but is not zero
        assert not is_determining_set(np.array([[0.0]]), 2, 1)

    def test_two_points_determine_a_line(self):
        assert is_determining_set(np.array([[0.0], [1.0]]), 2, 1)

    def test_collinear_points_fail_in_2d(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        assert not is_determining_set(pts, 2, 2)
        pts = np.vstack([pts, [[0.3, 0.9]]])
        assert is_determining_set(pts, 2, 2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.random((6, 2))
        for _ in range(5):
            perm = rng.permutation(len(pts))
            assert is_determining_set(pts[perm], 2, 2) == is_determining_set(pts, 2, 2)

    def test_adding_a_point_preserves_determining(self):
        rng = np.random.default_rng(4)
        for m in (1, 2, 3):
            pts = rng.random((m + 2, 1))
            if is_determining_set(pts, m, 1):
                extended = np.vstack([pts, rng.random((1, 1))])
                assert is_determining_set(extended, m, 1)

    def test_1d_combinatorial_oracle(self):
        # in one dimension a set determines degree <= m-1 iff it has >= m
        # distinct points
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            n_distinct = int(rng.integers(1, 7))
            base = rng.choice(20, size=n_distinct, replace=False).astype(float)
            pts = base.reshape(-1, 1)
            assert is_determining_set(pts, m, 1) == (n_distinct >= m)
