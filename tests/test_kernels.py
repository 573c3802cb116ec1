import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from rbfstudy import kernels as kernels_module
from rbfstudy.kernels import (
    EVAL_BLOCK_PAIRS,
    Kernel,
    KernelFamily,
    MAX_DERIVATIVE_ORDER,
    UnsupportedOrderError,
    Workspace,
    _differentiate_terms,
    derivative_terms,
)

from conftest import central_difference, multi_indices_up_to, order_lists


def sample_kernels():
    return [
        Kernel.gaussian(1.0, 1),
        Kernel.gaussian(2.5, 2),
        Kernel.multiquadric(1.0, 1.0, 1),
        Kernel.multiquadric(-1.0, 0.7, 2),
        Kernel.multiquadric(3.0, 0.5, 2),
    ]


class TestConstruction:
    def test_mq_rejects_nonnegative_even_beta(self):
        for beta in (0.0, 2.0, 4.0):
            with pytest.raises(ValueError):
                Kernel.multiquadric(beta, 1.0, 1)
        # nearby non-integer values are fine
        Kernel.multiquadric(2.0 + 1e-9, 1.0, 1)
        Kernel.multiquadric(-2.0, 1.0, 1)

    def test_mq_requires_positive_c(self):
        with pytest.raises(ValueError):
            Kernel.multiquadric(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            Kernel.multiquadric(1.0, -1.0, 1)

    def test_gaussian_requires_positive_beta(self):
        with pytest.raises(ValueError):
            Kernel.gaussian(0.0, 1)
        with pytest.raises(ValueError):
            Kernel.gaussian(-1.0, 1)

    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError):
            Kernel.gaussian(1.0, 0)

    def test_dict_round_trip(self):
        for kernel in sample_kernels():
            assert Kernel.from_dict(kernel.to_dict()) == kernel


class TestCpdOrder:
    def test_mq_positive_beta(self):
        assert Kernel.multiquadric(1.0, 1.0, 1).cpd_order == 1
        assert Kernel.multiquadric(3.0, 1.0, 1).cpd_order == 2
        assert Kernel.multiquadric(2.5, 1.0, 1).cpd_order == 2

    def test_mq_negative_beta(self):
        assert Kernel.multiquadric(-1.0, 1.0, 1).cpd_order == 0

    def test_gaussian(self):
        assert Kernel.gaussian(2.0, 1).cpd_order == 0


class TestEvaluate:
    def test_gaussian_at_origin(self):
        assert Kernel.gaussian(1.0, 1).evaluate([0.0]) == 1.0

    def test_gaussian_unit_point(self):
        value = Kernel.gaussian(1.0, 2).evaluate([1.0, 0.0])
        assert value == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_mq_origin_gamma_prefactor(self):
        # gamma(-1/2) = -2 sqrt(pi), checked against a high-precision oracle
        value = Kernel.multiquadric(1.0, 1.0, 1).evaluate([0.0])
        oracle = float(mpmath.gamma(mpmath.mpf("-0.5")))
        assert value == pytest.approx(oracle, rel=1e-14)
        assert value == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-14)
        assert value < 0.0

    def test_rejects_nonfinite_input(self):
        with pytest.raises(ValueError):
            Kernel.gaussian(1.0, 1).evaluate([math.inf])

    def test_batch_shape(self):
        kernel = Kernel.multiquadric(1.0, 0.8, 2)
        pts = np.random.default_rng(0).normal(size=(7, 3, 2))
        assert kernel.evaluate(pts).shape == (7, 3)


class TestEvaluateDerivative:
    def test_zero_alpha_reduces_to_evaluate(self):
        rng = np.random.default_rng(1)
        for kernel in sample_kernels():
            x = rng.normal(size=kernel.dim)
            zero = (0,) * kernel.dim
            assert kernel.evaluate_derivative(zero, x) == pytest.approx(
                kernel.evaluate(x), rel=1e-15
            )

    def test_gaussian_first_derivative_at_origin(self):
        assert Kernel.gaussian(1.0, 1).evaluate_derivative((1,), [0.0]) == 0.0

    def test_gaussian_second_derivative_at_origin(self):
        # (4x^2 - 2) exp(-x^2) at x = 0
        kernel = Kernel.gaussian(1.0, 1)
        assert kernel.evaluate_derivative((2,), [0.0]) == pytest.approx(-2.0, rel=1e-14)
        fd = central_difference(lambda x: kernel.evaluate(x), (2,), np.array([0.0]))
        assert abs(fd - (-2.0)) < 1e-6

    def test_order_cap(self):
        kernel = Kernel.gaussian(1.0, 1)
        with pytest.raises(UnsupportedOrderError):
            kernel.evaluate_derivative((MAX_DERIVATIVE_ORDER + 1,), [0.3])

    def test_multi_index_validation(self):
        kernel = Kernel.gaussian(1.0, 2)
        with pytest.raises(ValueError):
            kernel.evaluate_derivative((1,), [0.1, 0.2])
        with pytest.raises(ValueError):
            kernel.evaluate_derivative((-1, 0), [0.1, 0.2])


def _seed_tensor_value(kernel, diffs):
    """Kernel value on an (..., dim) difference tensor, summed with np.sum."""
    t = np.sum(diffs * diffs, axis=-1)
    if kernel.family is KernelFamily.GAUSSIAN:
        return np.exp(-kernel.beta * t)
    half = kernel.beta / 2.0
    return math.gamma(-half) * (kernel.c**2 + t) ** half


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize(
    "make",
    [
        lambda dim: Kernel.multiquadric(1.0, 0.3, dim),
        lambda dim: Kernel.multiquadric(-1.0, 0.3, dim),
        lambda dim: Kernel.gaussian(2.5, dim),
    ],
)
def test_values_bit_identical_to_tensor_formula(dim, make):
    kernel = make(dim)
    rng = np.random.default_rng(11 + dim)
    points = rng.uniform(-1.0, 1.0, size=(60, dim))
    centers = rng.uniform(-1.0, 1.0, size=(45, dim))
    assert np.array_equal(kernel.evaluate(points), _seed_tensor_value(kernel, points))
    assert np.array_equal(
        kernel.gram(points), _seed_tensor_value(kernel, points[:, None, :] - points)
    )
    assert np.array_equal(
        kernel.cross((0,) * dim, points, centers),
        _seed_tensor_value(kernel, points[:, None, :] - centers),
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gram_blocks_same_bits_as_one_cross(dim, monkeypatch):
    rng = np.random.default_rng(20 + dim)
    points = rng.uniform(-1.0, 1.0, size=(50, dim))
    kernels = [Kernel.multiquadric(1.0, 0.3, dim), Kernel.gaussian(2.5, dim)]
    expected = [kernel.cross((0,) * dim, points, points) for kernel in kernels]
    # Blocks of 7 rows: the last block holds a single row.
    monkeypatch.setattr(kernels_module, "EVAL_BLOCK_PAIRS", 7 * 50 + 3)
    for kernel, full in zip(kernels, expected):
        assert np.array_equal(kernel.gram(points), full)


def test_gram_memory_is_the_result_plus_a_block():
    kernel = Kernel.multiquadric(1.0, 0.1, 2)
    points = np.random.default_rng(21).random((2000, 2))
    tracemalloc.start()
    try:
        gram = kernel.gram(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram.shape == (2000, 2000)
    # The result takes 32 MB and each block temporary 1 MB; one unblocked
    # cross over all pairs peaked near 122 MB.
    assert peak < 48 * 2**20


def test_cross_memory_is_the_result_plus_a_block():
    kernel = Kernel.multiquadric(1.0, 0.1, 2)
    rng = np.random.default_rng(22)
    x, centers = rng.random((2000, 2)), rng.random((1000, 2))
    tracemalloc.start()
    try:
        cross = kernel.cross((1, 0), x, centers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cross.shape == (2000, 1000)
    # The result takes 15 MB and the block's workspace about 2 MB; one
    # unblocked pass over all pairs peaked near 76 MB.
    assert peak < 24 * 2**20


# The allocating kernel core that the workspace core replaced, kept as the
# reference: every step makes a fresh array. The workspace core must repeat
# its operations in the same order and give the same bits.

def _seed_profile_deriv(kernel, j, t):
    if kernel.family is KernelFamily.GAUSSIAN:
        out = np.exp(-kernel.beta * t)
        out *= (-kernel.beta) ** j
        return out
    half = kernel.beta / 2.0
    coeff = math.gamma(-half)
    for i in range(j):
        coeff *= half - i
    out = t ** (half - j)
    out *= coeff
    return out


def _seed_eval_poly(poly, planes):
    out = None
    for expo, coeff in poly.items():
        term = coeff
        for plane, e in zip(planes, expo):
            if e:
                term = term * plane**e
        out = term if out is None else out + term
    return out


def _seed_on_planes(kernel, alpha, planes):
    t = planes[0] * planes[0]
    for plane in planes[1:]:
        t += plane * plane
    t += kernel.c**2 if kernel.family is KernelFamily.MULTIQUADRIC else 0.0
    out = None
    for term in derivative_terms(kernel.dim, alpha):
        value = _seed_profile_deriv(kernel, term.deriv_order, t)
        if term.poly != {(0,) * kernel.dim: 1.0}:
            value *= _seed_eval_poly(term.poly, planes)
        out = value if out is None else out + value
    return out


def _seed_cross(kernel, alpha, x, centers):
    planes = [x[:, i, None] - centers[None, :, i] for i in range(kernel.dim)]
    return _seed_on_planes(kernel, alpha, planes)


def _seed_at_points(kernel, alpha, x):
    return _seed_on_planes(kernel, alpha, [x[..., i] for i in range(kernel.dim)])


def _workspace_kernels(dim):
    # beta = 1 takes the sqrt fast path of ** 0.5; beta = 3 takes t**1.5.
    return [
        Kernel.multiquadric(1.0, 0.3, dim),
        Kernel.multiquadric(-1.0, 0.3, dim),
        Kernel.multiquadric(3.0, 0.4, dim),
        Kernel.gaussian(2.5, dim),
    ]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_workspace_core_bit_identical_to_allocating_core(dim):
    rng = np.random.default_rng(30 + dim)
    points = rng.uniform(-1.0, 1.0, size=(40, dim))
    centers = rng.uniform(-1.0, 1.0, size=(33, dim))
    grid = rng.uniform(-1.0, 1.0, size=(6, 5, dim))
    zero = (0,) * dim
    for kernel in _workspace_kernels(dim):
        assert np.array_equal(kernel.gram(points), _seed_cross(kernel, zero, points, points))
        assert np.array_equal(kernel.evaluate(points), _seed_at_points(kernel, zero, points))
        assert np.array_equal(kernel.evaluate(grid), _seed_at_points(kernel, zero, grid))
        for alpha in [zero] + multi_indices_up_to(dim, 2):
            assert np.array_equal(
                kernel.cross(alpha, points, centers), _seed_cross(kernel, alpha, points, centers)
            )
            assert np.array_equal(
                kernel.evaluate_derivative(alpha, points), _seed_at_points(kernel, alpha, points)
            )
            assert np.array_equal(
                kernel.evaluate_derivative(alpha, grid), _seed_at_points(kernel, alpha, grid)
            )


def test_workspace_core_bit_identical_at_higher_orders():
    # Orders 3 and 4 reach the polynomial roles that orders up to 2 leave
    # unused: a power of a later factor and a sum of several monomials.
    rng = np.random.default_rng(35)
    points = rng.uniform(-1.0, 1.0, size=(25, 2))
    centers = rng.uniform(-1.0, 1.0, size=(19, 2))
    for kernel in _workspace_kernels(2):
        for alpha in [(3, 0), (1, 2), (2, 2), (0, 4), (1, 3)]:
            assert np.array_equal(
                kernel.cross(alpha, points, centers), _seed_cross(kernel, alpha, points, centers)
            )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_one_workspace_across_full_partial_and_full_blocks(dim):
    rng = np.random.default_rng(40 + dim)
    centers = rng.uniform(-1.0, 1.0, size=(17, dim))
    blocks = [rng.uniform(-1.0, 1.0, size=(rows, dim)) for rows in (11, 4, 11)]
    for kernel in _workspace_kernels(dim):
        for alpha in [(0,) * dim] + multi_indices_up_to(dim, 2):
            work = Workspace(11, (17,))
            for block in blocks:
                got = kernel._cross([alpha], block, centers, work)[0]
                assert got.shape == (len(block), 17)
                assert np.array_equal(got, _seed_cross(kernel, alpha, block, centers))


def test_single_point_has_the_bits_it_has_in_a_batch():
    rng = np.random.default_rng(45)
    for kernel in _workspace_kernels(2):
        points = rng.uniform(-1.0, 1.0, size=(30, 2))
        for alpha in [(0, 0), (1, 0), (1, 1)]:
            batch = kernel.evaluate_derivative(alpha, points)
            single = [kernel.evaluate_derivative(alpha, point) for point in points]
            assert all(isinstance(value, float) for value in single)
            assert np.array_equal(np.array(single), batch)


def test_workspace_cross_allocates_nothing_of_block_size():
    kernel = Kernel.multiquadric(1.0, 0.1, 2)
    rng = np.random.default_rng(46)
    centers = rng.random((441, 2))
    rows = EVAL_BLOCK_PAIRS // len(centers)
    x = rng.random((rows, 2))
    work = Workspace(rows, (len(centers),))
    # The first call allocates the workspace's arrays; a later block reuses them.
    kernel._cross([(1, 0)], x, centers, work)
    tracemalloc.start()
    try:
        kernel._cross([(1, 0)], x, centers, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Only arrays of a row or a center count may be allocated: any array of
    # the block's size would take 20 times this bound.
    assert peak < 0.05 * rows * len(centers) * 8


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_multi_order_core_bit_identical_to_allocating_core(dim):
    rng = np.random.default_rng(50 + dim)
    centers = rng.uniform(-1.0, 1.0, size=(13, dim))
    # Blocks of 9 rows share one workspace: full, partial, a single row, full.
    blocks = [rng.uniform(-1.0, 1.0, size=(rows, dim)) for rows in (9, 4, 1, 9)]
    for kernel in _workspace_kernels(dim):
        for orders in order_lists(dim):
            work = Workspace(9, (13,))
            for block in blocks:
                got = kernel._cross(orders, block, centers, work)
                assert len(got) == len(orders)
                for alpha, matrix in zip(orders, got):
                    assert np.array_equal(matrix, _seed_cross(kernel, alpha, block, centers))


def test_multi_order_core_bit_identical_at_higher_orders():
    # Orders of total order 4 have three terms, so their sum shows the term order.
    rng = np.random.default_rng(55)
    points = rng.uniform(-1.0, 1.0, size=(25, 2))
    centers = rng.uniform(-1.0, 1.0, size=(19, 2))
    orders = [(2, 2), (4, 0), (1, 0), (1, 3), (3, 0), (0, 0), (0, 4)]
    for kernel in _workspace_kernels(2):
        got = kernel._cross(orders, points, centers, Workspace(25, (19,)))
        for alpha, matrix in zip(orders, got):
            assert np.array_equal(matrix, _seed_cross(kernel, alpha, points, centers))


def test_workspace_multi_order_cross_allocates_nothing_of_block_size():
    kernel = Kernel.multiquadric(1.0, 0.1, 2)
    rng = np.random.default_rng(47)
    centers = rng.random((441, 2))
    rows = EVAL_BLOCK_PAIRS // len(centers)
    x = rng.random((rows, 2))
    work = Workspace(rows, (len(centers),))
    orders = [(0, 0)] + multi_indices_up_to(2, 2)
    kernel._cross(orders, x, centers, work)
    tracemalloc.start()
    try:
        kernel._cross(orders, x, centers, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * rows * len(centers) * 8


def test_cross_derivative_matches_difference_tensor():
    rng = np.random.default_rng(12)
    for kernel in sample_kernels():
        points = rng.normal(size=(30, kernel.dim))
        centers = rng.normal(size=(17, kernel.dim))
        for alpha in multi_indices_up_to(kernel.dim, 3):
            assert np.array_equal(
                kernel.cross(alpha, points, centers),
                kernel.evaluate_derivative(alpha, points[:, None, :] - centers),
            )


def test_cross_checks_points_and_centers():
    kernel = Kernel.gaussian(1.0, 2)
    good = np.zeros((3, 2))
    with pytest.raises(ValueError, match="finite"):
        kernel.cross((0, 0), good, [[0.0, math.nan]])
    with pytest.raises(ValueError, match="dimension"):
        kernel.cross((0, 0), np.zeros((3, 3)), good)


def test_evenness():
    rng = np.random.default_rng(7)
    for kernel in sample_kernels():
        x = rng.normal(size=(50, kernel.dim))
        plus = kernel.evaluate(x)
        minus = kernel.evaluate(-x)
        assert np.allclose(plus, minus, rtol=1e-14, atol=0.0)


def test_derivative_parity():
    rng = np.random.default_rng(8)
    for kernel in sample_kernels():
        x = rng.normal(size=(20, kernel.dim))
        for alpha in multi_indices_up_to(kernel.dim, 3):
            sign = (-1.0) ** sum(alpha)
            plus = kernel.evaluate_derivative(alpha, x)
            minus = kernel.evaluate_derivative(alpha, -x)
            assert np.allclose(minus, sign * plus, rtol=1e-12, atol=1e-13)


def test_finite_difference_oracle():
    # analytic derivatives vs central differences, all |alpha| <= 3
    rng = np.random.default_rng(9)
    for kernel in sample_kernels():
        points = rng.uniform(-1.2, 1.2, size=(100, kernel.dim))
        for alpha in multi_indices_up_to(kernel.dim, 3):
            analytic = np.atleast_1d(kernel.evaluate_derivative(alpha, points))
            for i in range(len(points)):
                fd = central_difference(
                    lambda x: kernel.evaluate(x), alpha, points[i]
                )
                assert abs(analytic[i] - fd) <= 1e-5 * (1.0 + abs(analytic[i]))


def test_mixed_partial_symmetry():
    # differentiation order through the term recursion does not matter
    rng = np.random.default_rng(10)
    start = {0: {(0, 0): 1.0}}
    xy_order = _differentiate_terms(_differentiate_terms(start, 0), 1)
    yx_order = _differentiate_terms(_differentiate_terms(start, 1), 0)
    for kernel in (Kernel.gaussian(1.5, 2), Kernel.multiquadric(1.0, 0.9, 2)):
        for x in rng.normal(size=(20, 2)):
            t = (kernel.c**2 if kernel.family is KernelFamily.MULTIQUADRIC else 0.0) + x @ x

            def eval_terms(terms):
                total = 0.0
                for j, poly in terms.items():
                    for expo, coeff in poly.items():
                        profile = kernel._profile_deriv(j, np.asarray(t), np.empty(()))
                        total += coeff * x[0] ** expo[0] * x[1] ** expo[1] * profile
                return total

            a, b = eval_terms(xy_order), eval_terms(yx_order)
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_term_cache_is_shared():
    first = derivative_terms(2, (1, 1))
    second = derivative_terms(2, (1, 1))
    assert first is second
    # terms are family-independent: one list serves every kernel of that dim
    assert derivative_terms(1, (2,)) is derivative_terms(1, (2,))


def test_profile_term_orders_bounded_by_total():
    for alpha in [(2,), (3,), (1, 2)]:
        dim = len(alpha)
        for term in derivative_terms(dim, alpha):
            assert 0 <= term.deriv_order <= sum(alpha)
            assert all(len(expo) == dim for expo in term.poly)
