import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

from rbfstudy import interpolant as interpolant_module
from rbfstudy import kernels as kernels_module
from rbfstudy.geometry import CubeDomain, PointSet, generate_points
from rbfstudy.interpolant import (
    RESOLVED_COND,
    InterpolationProblem,
    Interpolant,
    KernelExpansion,
    SingularSystemError,
    assemble_system,
    interpolate_expansion,
    residual_expansion,
    solve,
)
from rbfstudy.kernels import MAX_DERIVATIVE_ORDER, Kernel, UnsupportedOrderError
from rbfstudy.polybasis import MonomialBasis

from conftest import central_difference, multi_indices_up_to, order_lists


def _random_expansion(kernel, rng, n_centers=5, domain_side=1.0):
    """Moment-feasible random expansion with unit-ish weights."""
    centers = generate_points(
        CubeDomain(kernel.dim, (0.0,) * kernel.dim, domain_side),
        "random",
        count=n_centers,
        seed=int(rng.integers(2**31)),
    )
    weights = rng.standard_normal(n_centers)
    m = kernel.cpd_order
    if m >= 1:
        basis = MonomialBasis.for_cpd_order(kernel.dim, m)
        pmat = basis.evaluate(centers.points)
        proj, *_ = np.linalg.lstsq(pmat, weights, rcond=None)
        weights = weights - pmat @ proj
    return KernelExpansion(kernel, centers, weights)


class TestSolveExamples:
    def test_single_gaussian_center(self):
        kernel = Kernel.gaussian(1.0, 1)
        interp = solve(InterpolationProblem(kernel, PointSet.from_array([[0.0]]), [2.0]))
        assert interp.weights == pytest.approx([2.0])
        assert interp.poly_coeffs.size == 0
        assert interp.evaluate([0.0]) == pytest.approx(2.0)

    def test_two_point_gaussian_by_hand(self):
        # [[1, e^-1], [e^-1, 1]] c = (1, 0)
        kernel = Kernel.gaussian(1.0, 1)
        interp = solve(
            InterpolationProblem(kernel, PointSet.from_array([[0.0], [1.0]]), [1.0, 0.0])
        )
        e = math.exp(-1.0)
        expected = np.array([1.0, -e]) / (1.0 - e * e)
        assert interp.weights == pytest.approx(expected, rel=1e-12)
        dense = np.linalg.solve([[1.0, e], [e, 1.0]], [1.0, 0.0])
        assert interp.weights == pytest.approx(dense, rel=1e-12)

    def test_mq_reproduces_constants(self):
        kernel = Kernel.multiquadric(1.0, 1.0, 1)
        interp = solve(
            InterpolationProblem(kernel, PointSet.from_array([[0.0], [1.0]]), [5.0, 5.0])
        )
        assert interp.weights == pytest.approx([0.0, 0.0], abs=1e-10)
        assert interp.poly_coeffs == pytest.approx([5.0], rel=1e-12)
        assert interp.evaluate([0.37]) == pytest.approx(5.0, rel=1e-10)

    def test_non_determining_nodes_rejected(self):
        # order-2 multiquadric needs nodes spanning linear polynomials
        kernel = Kernel.multiquadric(3.0, 1.0, 2)
        collinear = PointSet.from_array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        with pytest.raises(SingularSystemError, match="determining") as info:
            solve(InterpolationProblem(kernel, collinear, [1.0, 2.0, 3.0]))
        assert info.value.cond_estimate == float("inf")

    def test_condition_limit_enforced(self):
        kernel = Kernel.gaussian(1.0, 1)
        prob = InterpolationProblem(kernel, PointSet.from_array([[0.0], [1.0]]), [1.0, 0.0])
        with pytest.raises(SingularSystemError) as info:
            solve(prob, cond_limit=1.0)
        assert info.value.cond_estimate > 1.0

    def test_same_bits_as_three_symmetric_solves(self):
        # One LDL^T factorization reused for the solve and both refinement
        # steps gives what three separate symmetric solves gave, with each
        # residual taken as solve takes it: dsymv on the upper triangle.
        kernel = Kernel.multiquadric(1.0, 0.2, 2)
        nodes = generate_points(CubeDomain.unit(2), "halton", count=120)
        values = np.random.default_rng(5).standard_normal(len(nodes))
        system, basis = assemble_system(kernel, nodes)
        rhs = np.concatenate([values, np.zeros(basis.size)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            expected = scipy.linalg.solve(system, rhs, assume_a="sym")
            for _ in range(2):
                product = scipy.linalg.blas.dsymv(1.0, system.T, expected, lower=1)
                expected = expected + scipy.linalg.solve(
                    system, rhs - product, assume_a="sym"
                )
        interp = solve(InterpolationProblem(kernel, nodes, values))
        assert np.array_equal(interp.weights, expected[: len(nodes)])
        assert np.array_equal(interp.poly_coeffs, expected[len(nodes):])

    def test_cond_estimate_is_two_norm_condition(self):
        kernel = Kernel.gaussian(20.0, 2)
        nodes = generate_points(CubeDomain.unit(2), "halton", count=30)
        interp = solve(InterpolationProblem(kernel, nodes, np.ones(30)))
        system, _ = assemble_system(kernel, nodes)
        expected = np.linalg.cond(system)
        assert expected < 1e6
        assert interp.cond_estimate == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("count", [2, 3])
    def test_exactly_singular_system_rejected(self, count):
        # exp(-1e-20 * t) rounds to 1 on the unit interval: the system is
        # all ones. Two nodes give an exactly zero eigenvalue; with three
        # the eigenvalues read about 1e-17 and the LDL^T factor D has a
        # zero pivot.
        kernel = Kernel.gaussian(1e-20, 1)
        nodes = PointSet.from_array(np.linspace(0.0, 1.0, count)[:, None])
        with pytest.raises(SingularSystemError) as info:
            solve(InterpolationProblem(kernel, nodes, np.ones(count)))
        if count == 2:
            assert info.value.cond_estimate == math.inf

    def test_non_finite_system_rejected(self, monkeypatch):
        # Nodes 1e155 apart: their squared difference overflows, so the far
        # node's row and column are infinite. Checked in blocks of one row,
        # the system is refused before it is factored.
        monkeypatch.setattr(interpolant_module, "EVAL_BLOCK_PAIRS", 5)
        monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", lambda *a, **k: pytest.fail("factored"))
        kernel = Kernel.multiquadric(1.0, 1.0, 1)
        nodes = PointSet.from_array([[0.0], [0.5], [1.0], [1e155]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SingularSystemError) as info:
                solve(InterpolationProblem(kernel, nodes, np.ones(4)))
        assert info.value.cond_estimate == math.inf

    def test_duplicated_node_reports_eigenvalue_reading(self):
        # Two nodes 1e-9 apart, far from the others: the Gaussian cannot
        # tell them apart (between them it rounds to 1, towards every other
        # node it underflows to 0), so their rows are duplicates. The LDL^T
        # factor D gets an exactly zero pivot, and the condition is read
        # from the eigenvalues of the triangle that still holds the system.
        kernel = Kernel.gaussian(10.0, 1)
        points = list(np.linspace(0.0, 1.0, 12))
        points.insert(3, 30.0)
        points.insert(8, 30.0 + 1e-9)
        nodes = PointSet.from_array(np.array(points)[:, None])
        system, _ = assemble_system(kernel, nodes)
        assert scipy.linalg.lapack.dsytrf(system)[2] > 0
        expected = interpolant_module._condition_2norm(system)
        assert math.isfinite(expected)
        with pytest.raises(SingularSystemError, match="exactly singular") as info:
            solve(InterpolationProblem(kernel, nodes, np.ones(len(nodes))))
        assert info.value.cond_estimate == expected

    def test_solve_holds_one_system_array(self):
        # Assembly, factorization, refinement and the condition estimate
        # share one (n+q)^2 array: a copy of the system anywhere in solve
        # (np.block, or an f2py copy of a C-ordered argument) would double
        # the peak.
        kernel = Kernel.multiquadric(1.0, 0.1, 2)
        nodes = generate_points(CubeDomain.unit(2), "halton", count=1000)
        problem = InterpolationProblem(kernel, nodes, np.sin(3.0 * nodes.points).sum(axis=1))
        size = len(nodes) + MonomialBasis.for_cpd_order(2, kernel.cpd_order).size
        tracemalloc.start()
        try:
            solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * size**2

    def test_value_count_mismatch(self):
        kernel = Kernel.gaussian(1.0, 1)
        with pytest.raises(ValueError):
            InterpolationProblem(kernel, PointSet.from_array([[0.0], [1.0]]), [1.0])

    def test_node_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            Interpolant(Kernel.gaussian(1.0, 2), PointSet.from_array([[0.0]]), [1.0], [])


class TestConditionEstimate:
    """Lanczos on the system and its LDL^T factors against all eigenvalues."""

    @staticmethod
    def _halton_case(kernel, count):
        nodes = generate_points(CubeDomain.unit(kernel.dim), "halton", count=count)
        values = np.sin(3.0 * nodes.points).sum(axis=1)
        system, _ = assemble_system(kernel, nodes)
        return InterpolationProblem(kernel, nodes, values), system

    @pytest.mark.parametrize(
        "kernel,count",
        [
            (Kernel.multiquadric(1.0, 0.1, 2), 250),
            (Kernel.multiquadric(1.0, 0.1, 2), 500),
            (Kernel.multiquadric(1.0, 0.1, 2), 1000),
            (Kernel.gaussian(20.0, 2), 100),
        ],
    )
    def test_matches_eigenvalue_condition(self, kernel, count):
        problem, system = self._halton_case(kernel, count)
        cond = solve(problem).cond_estimate
        assert cond <= RESOLVED_COND
        assert cond == pytest.approx(interpolant_module._condition_2norm(system), rel=1e-6)

    def test_same_bits_on_every_call(self):
        problem, _ = self._halton_case(Kernel.multiquadric(1.0, 0.1, 2), 250)
        first, second = solve(problem).cond_estimate, solve(problem).cond_estimate
        assert np.float64(first).tobytes() == np.float64(second).tobytes()

    def test_saturated_system_reports_eigenvalue_reading(self):
        # The finest level of the small Gaussian study in test_study.py: its
        # true condition is about 1e20. Lanczos on the factors reads 3.7e18,
        # above the default limit, where the eigenvalues read 3.4e16.
        kernel = Kernel.gaussian(40.0, 1)
        nodes = generate_points(CubeDomain.unit(1), "grid", spacing=0.03125)
        system, _ = assemble_system(kernel, nodes)
        factors, pivots, info = scipy.linalg.lapack.dsytrf(system)
        assert info == 0
        lanczos = interpolant_module._lanczos_max_abs(
            lambda v: system @ v, len(system)
        ) * interpolant_module._lanczos_max_abs(
            lambda v: scipy.linalg.lapack.dsytrs(factors, pivots, v)[0], len(system)
        )
        assert lanczos > RESOLVED_COND
        values = np.cos(nodes.points[:, 0])
        interp = solve(InterpolationProblem(kernel, nodes, values))
        # solve reads the eigenvalues in place, from the triangle of its
        # factored array that still holds the system: the same bits as
        # from a fresh copy.
        assert interp.cond_estimate == interpolant_module._condition_2norm(system)
        # At a true condition of 1e20 the nodal residual reads about 1e-5.
        assert np.max(np.abs(interp.evaluate(nodes.points) - values)) < 1e-4

    def test_overflowing_inverse_reports_eigenvalue_reading(self):
        # Entries near 1e-161: products with the inverse overflow in double,
        # and the reading falls back to the eigenvalues without a warning.
        kernel = Kernel.multiquadric(-121.0, 100.0, 1)
        nodes = PointSet.from_array(np.linspace(0.0, 1.0, 3)[:, None])
        system, _ = assemble_system(kernel, nodes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            interp = solve(InterpolationProblem(kernel, nodes, np.ones(3)))
        assert interp.cond_estimate == interpolant_module._condition_2norm(system)
        assert interp.cond_estimate < 1e6


def _solve_well_conditioned(kernel, rng, count, cond_limit=1e8, attempts=60):
    """Draw random problems until one is below the condition limit."""
    for _ in range(attempts):
        nodes = generate_points(
            CubeDomain.unit(kernel.dim), "random", count=count, seed=int(rng.integers(2**31))
        )
        values = rng.standard_normal(len(nodes))
        try:
            return solve(InterpolationProblem(kernel, nodes, values), cond_limit=cond_limit), values
        except SingularSystemError:
            continue
    raise RuntimeError("no well-conditioned instance found; loosen the parameters")


class TestEvaluation:
    def test_nodal_exactness_and_moment_residual(self):
        rng = np.random.default_rng(21)
        kernels = [
            Kernel.gaussian(30.0, 1),
            Kernel.gaussian(12.0, 2),
            Kernel.multiquadric(1.0, 0.2, 1),
            Kernel.multiquadric(3.0, 0.2, 2),
            Kernel.multiquadric(-1.0, 0.3, 2),
        ]
        for kernel in kernels:
            count = 10 if kernel.dim == 1 else 25
            interp, values = _solve_well_conditioned(kernel, rng, count=count)
            resid = np.max(
                np.abs(np.atleast_1d(interp.evaluate(interp.centers.points)) - values)
            )
            assert resid <= 1e-8 * (1.0 + np.max(np.abs(values)))
            assert interp.moment_residual() <= 1e-8 * (1e-30 + np.linalg.norm(interp.weights))

    def test_zero_data_gives_zero_function(self):
        kernel = Kernel.gaussian(5.0, 1)
        nodes = generate_points(CubeDomain.unit(1), "random", count=12, seed=3)
        interp = solve(InterpolationProblem(kernel, nodes, np.zeros(12)))
        probes = np.random.default_rng(4).random((100, 1))
        assert np.max(np.abs(interp.evaluate(probes))) <= 1e-12

    @pytest.mark.parametrize("beta,m", [(1.0, 1), (3.0, 2)])
    def test_polynomial_reproduction(self, beta, m):
        rng = np.random.default_rng(30 + m)
        kernel = Kernel.multiquadric(beta, 0.5, 2)
        assert kernel.cpd_order == m
        basis = MonomialBasis.for_cpd_order(2, m)
        coeffs = rng.standard_normal(basis.size)
        nodes = generate_points(CubeDomain.unit(2), "halton", count=20)
        values = basis.evaluate(nodes.points) @ coeffs
        interp = solve(InterpolationProblem(kernel, nodes, values))
        grid = np.stack(
            np.meshgrid(np.linspace(0, 1, 10), np.linspace(0, 1, 10), indexing="ij"),
            axis=-1,
        ).reshape(-1, 2)
        target = basis.evaluate(grid) @ coeffs
        sup = np.max(np.abs(np.atleast_1d(interp.evaluate(grid)) - target))
        assert sup <= 1e-7 * (1.0 + np.max(np.abs(target)))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(40)
        kernel = Kernel.multiquadric(1.0, 0.1, 1)
        interp, values = _solve_well_conditioned(kernel, rng, count=15, cond_limit=1e6)
        nodes = interp.centers
        perm = rng.permutation(15)
        shuffled = solve(
            InterpolationProblem(kernel, PointSet.from_array(nodes.points[perm]), values[perm])
        )
        probes = rng.random((50, 1))
        diff = np.abs(
            np.atleast_1d(interp.evaluate(probes)) - np.atleast_1d(shuffled.evaluate(probes))
        )
        assert np.max(diff) <= 1e-10


class TestDerivatives:
    def test_zero_alpha_matches_evaluate(self):
        kernel = Kernel.gaussian(4.0, 2)
        nodes = generate_points(CubeDomain.unit(2), "halton", count=10)
        interp = solve(
            InterpolationProblem(kernel, nodes, np.random.default_rng(0).random(10))
        )
        probes = np.random.default_rng(1).random((20, 2))
        assert np.allclose(
            interp.evaluate_derivative((0, 0), probes), interp.evaluate(probes), rtol=1e-14
        )

    def test_single_center_derivatives_at_origin(self):
        beta = 1.7
        kernel = Kernel.gaussian(beta, 1)
        interp = Interpolant(kernel, PointSet.from_array([[0.0]]), [1.0], [])
        assert interp.evaluate_derivative((1,), [0.0]) == pytest.approx(0.0, abs=1e-15)
        assert interp.evaluate_derivative((2,), [0.0]) == pytest.approx(-2.0 * beta, rel=1e-13)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(55)
        for kernel in (Kernel.gaussian(6.0, 2), Kernel.multiquadric(1.0, 0.5, 2)):
            nodes = generate_points(CubeDomain.unit(2), "halton", count=15)
            interp = solve(InterpolationProblem(kernel, nodes, rng.standard_normal(15)))
            probes = rng.uniform(0.1, 0.9, size=(50, 2))
            for alpha in multi_indices_up_to(2, 2):
                analytic = np.atleast_1d(interp.evaluate_derivative(alpha, probes))
                for i in range(len(probes)):
                    fd = central_difference(lambda x: interp.evaluate(x), alpha, probes[i])
                    assert abs(analytic[i] - fd) <= 1e-4 * (1.0 + abs(analytic[i]))


def _tensor_derivative(f, alpha, x):
    """D^alpha f at points x (..., dim) from one full difference tensor."""
    x = np.asarray(x, dtype=float)
    diffs = x[..., None, :] - f.centers.points
    out = f.kernel.evaluate_derivative(alpha, diffs) @ f.weights
    if f.basis.size:
        out = out + f.basis.evaluate_derivative(f.poly_coeffs, alpha, x)
    return out


class TestBlockedEvaluation:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_full_tensor(self, dim, monkeypatch):
        rng = np.random.default_rng(90 + dim)
        # beta = 5 has cpd order 3, so D^alpha scales monomials of p by 2.
        kernels = [Kernel.multiquadric(3.0, 0.4, dim), Kernel.gaussian(3.0, dim),
                   Kernel.multiquadric(5.0, 0.4, dim)]
        alphas = [(0,) * dim] + multi_indices_up_to(dim, 2)
        # 4 probes of the 9 centers per block, so 23 probes end in a partial block.
        monkeypatch.setattr(kernels_module, "EVAL_BLOCK_PAIRS", 4 * 9 + 3)
        for kernel in kernels:
            f = _random_expansion(kernel, rng, n_centers=9)
            f = KernelExpansion(kernel, f.centers, f.weights, rng.standard_normal(f.basis.size))
            batch = rng.uniform(-0.2, 1.2, size=(23, dim))
            grid = rng.uniform(-0.2, 1.2, size=(5, 3, dim))
            for alpha in alphas:
                for x in (batch, grid, batch[0]):
                    expected = _tensor_derivative(f, alpha, x)
                    got = f.evaluate_derivative(alpha, x)
                    assert np.shape(got) == np.shape(expected)
                    np.testing.assert_allclose(
                        got, expected, rtol=1e-13, atol=1e-13 * np.max(np.abs(expected))
                    )
            single = f.evaluate(batch[0])
            assert isinstance(single, float)
            assert single == pytest.approx(float(_tensor_derivative(f, (0,) * dim, batch[0])),
                                           rel=1e-13)
            if dim == 1:
                assert f.evaluate(0.3) == pytest.approx(f.evaluate([0.3]), rel=1e-15)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_all_orders_in_one_pass_have_the_bits_of_one_order(self, dim, monkeypatch):
        rng = np.random.default_rng(100 + dim)
        # 4 probes of the 9 centers per block, so 23 probes end in a partial block.
        monkeypatch.setattr(kernels_module, "EVAL_BLOCK_PAIRS", 4 * 9 + 3)
        kernels = [
            Kernel.multiquadric(1.0, 0.4, dim),
            Kernel.multiquadric(-1.0, 0.4, dim),
            Kernel.multiquadric(3.0, 0.4, dim),
            Kernel.gaussian(3.0, dim),
        ]
        for kernel in kernels:
            f = _random_expansion(kernel, rng, n_centers=9)
            f = KernelExpansion(kernel, f.centers, f.weights, rng.standard_normal(f.basis.size))
            batch = rng.uniform(-0.2, 1.2, size=(23, dim))
            grid = rng.uniform(-0.2, 1.2, size=(5, 3, dim))
            for alphas in order_lists(dim):
                for x in (batch, grid, batch[0]):
                    got = f.evaluate_derivatives(alphas, x)
                    expected = [f.evaluate_derivative(alpha, x) for alpha in alphas]
                    assert len(got) == len(expected)
                    for a, b in zip(got, expected):
                        assert type(a) is type(b) and np.shape(a) == np.shape(b)
                        assert np.array_equal(a, b)

    def test_block_partition_does_not_depend_on_the_orders(self, monkeypatch):
        kernel = Kernel.multiquadric(1.0, 0.4, 2)
        f = _random_expansion(kernel, np.random.default_rng(105), n_centers=9)
        probes = np.random.default_rng(106).random((23, 2))
        monkeypatch.setattr(kernels_module, "EVAL_BLOCK_PAIRS", 4 * 9 + 3)
        blocks = []
        cross = Kernel._cross

        def recording(self, program, x, centers, work):
            blocks.append(len(x))
            return cross(self, program, x, centers, work)

        monkeypatch.setattr(Kernel, "_cross", recording)
        f.evaluate_derivative((1, 0), probes)
        one = list(blocks)
        blocks.clear()
        f.evaluate_derivatives(multi_indices_up_to(2, 2), probes)
        assert one == [4] * 5 + [3] and blocks == one

    def test_no_orders_walk_no_block(self, monkeypatch):
        kernel = Kernel.multiquadric(1.0, 0.4, 2)
        f = _random_expansion(kernel, np.random.default_rng(107), n_centers=7)
        probes = np.random.default_rng(108).random((50, 2))
        monkeypatch.setattr(kernels_module, "EVAL_BLOCK_PAIRS", 14)
        blocks = []
        cross = Kernel._cross

        def recording(self, program, x, centers, work):
            blocks.append(len(x))
            return cross(self, program, x, centers, work)

        monkeypatch.setattr(Kernel, "_cross", recording)
        assert f.evaluate_derivatives([], probes) == []
        assert blocks == []
        f.evaluate_derivatives([(1, 0)], probes)
        assert blocks == [2] * 25

    @pytest.mark.parametrize("bad", [(7, 0), (-1, 0), (1,)])
    @pytest.mark.parametrize("count", [0, 3])
    def test_rejects_bad_orders_whatever_the_probe_count(self, bad, count):
        f = KernelExpansion(Kernel.gaussian(1.0, 2), PointSet.from_array([[0.0, 0.0]]), [1.0])
        probes = np.zeros((count, 2))
        error = UnsupportedOrderError if sum(bad) > MAX_DERIVATIVE_ORDER else ValueError
        with pytest.raises(error):
            f.evaluate_derivative(bad, probes)
        with pytest.raises(error):
            f.evaluate_derivatives([(1, 0), bad], probes)

    def test_rejects_bad_points(self):
        f = KernelExpansion(Kernel.gaussian(1.0, 2), PointSet.from_array([[0.0, 0.0]]), [1.0])
        with pytest.raises(ValueError, match="finite"):
            f.evaluate([[0.0, math.inf]])
        with pytest.raises(ValueError, match="dimension"):
            f.evaluate(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="dimension"):
            f.evaluate(0.5)
        with pytest.raises(ValueError, match="finite"):
            f.evaluate_derivatives([], [[0.0, math.nan]])

    def test_memory_bounded_independently_of_probe_count(self):
        kernel = Kernel.multiquadric(1.0, 0.1, 2)
        f = _random_expansion(kernel, np.random.default_rng(95), n_centers=500)
        probes = np.random.default_rng(96).random((200_000, 2))
        tracemalloc.start()
        try:
            f.evaluate_derivative((1, 0), probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("dim", [1, 2])
    def test_no_centers_leaves_the_polynomial_part(self, dim):
        none = PointSet(dim, np.zeros((0, dim)))
        probes = np.random.default_rng(97).random((7, dim))
        first = (1,) + (0,) * (dim - 1)
        # Multiquadric beta = 1: a constant polynomial part and no kernel part.
        f = KernelExpansion(Kernel.multiquadric(1.0, 1.0, dim), none, [], [3.5])
        assert f.basis.size == 1
        assert np.array_equal(f.evaluate(probes), np.full(7, 3.5))
        assert f.evaluate(probes[0]) == 3.5
        assert np.array_equal(f.evaluate_derivative(first, probes), np.zeros(7))
        assert f.native_norm() == 0.0
        # Gaussian: no polynomial part either, so the expansion is zero.
        g = KernelExpansion(Kernel.gaussian(1.0, dim), none, [])
        assert np.array_equal(g.evaluate(probes), np.zeros(7))
        assert np.array_equal(g.evaluate_derivative(first, probes), np.zeros(7))
        assert g.native_norm() == 0.0


class TestNativeNorm:
    def test_single_center_gaussian(self):
        kernel = Kernel.gaussian(1.0, 1)
        f = KernelExpansion(kernel, PointSet.from_array([[0.0]]), [1.0])
        assert f.native_norm() == pytest.approx(1.0, rel=1e-14)

    def test_zero_weights_polynomial_only(self):
        kernel = Kernel.multiquadric(1.0, 1.0, 1)
        f = KernelExpansion(kernel, PointSet.from_array([[0.0]]), [0.0], [3.5])
        assert f.native_norm() == 0.0

    def test_two_center_quadratic_form_by_hand(self):
        kernel = Kernel.gaussian(1.0, 1)
        f = KernelExpansion(kernel, PointSet.from_array([[0.0], [1.0]]), [1.0, -1.0])
        assert f.native_norm() == pytest.approx(math.sqrt(2.0 - 2.0 * math.exp(-1.0)), rel=1e-14)

    def test_moment_violation_rejected(self):
        kernel = Kernel.multiquadric(1.0, 1.0, 1)  # needs sum of weights = 0
        f = KernelExpansion(kernel, PointSet.from_array([[0.0], [1.0]]), [1.0, 1.0])
        with pytest.raises(ValueError, match="moment"):
            f.native_norm()

    def test_norm_is_nonnegative_across_kernels(self):
        rng = np.random.default_rng(60)
        for kernel in (
            Kernel.gaussian(2.0, 2),
            Kernel.multiquadric(1.0, 0.6, 2),
            Kernel.multiquadric(3.0, 0.6, 2),
            Kernel.multiquadric(-1.0, 0.6, 2),
        ):
            for _ in range(10):
                f = _random_expansion(kernel, rng)
                assert f.native_norm() >= 0.0


class TestResidualExpansion:
    def test_self_interpolation_cancels(self):
        kernel = Kernel.gaussian(1.0, 1)
        nodes = PointSet.from_array([[0.0], [0.5], [1.0]])
        f = KernelExpansion(kernel, nodes, [0.3, -0.8, 0.5])
        interp = interpolate_expansion(f, nodes)
        resid = residual_expansion(f, interp)
        assert np.max(np.abs(resid.weights)) <= 1e-8

    def test_kernel_mismatch_rejected(self):
        f = KernelExpansion(Kernel.gaussian(1.0, 1), PointSet.from_array([[0.0]]), [1.0])
        other = Interpolant(Kernel.gaussian(2.0, 1), PointSet.from_array([[0.0]]), [1.0], [])
        with pytest.raises(ValueError, match="kernel"):
            residual_expansion(f, other)

    def test_norm_laws_and_pythagoras(self):
        rng = np.random.default_rng(70)
        kernels = [Kernel.gaussian(20.0, 1), Kernel.multiquadric(1.0, 0.25, 1)]
        for kernel in kernels:
            accepted = 0
            while accepted < 8:
                f = _random_expansion(kernel, rng, n_centers=4)
                nodes = generate_points(
                    CubeDomain.unit(1), "random", count=10, seed=int(rng.integers(2**31))
                )
                try:
                    interp = interpolate_expansion(f, nodes, cond_limit=1e8)
                except SingularSystemError:
                    continue
                accepted += 1
                norm_f = f.native_norm()
                norm_s = interp.native_norm()
                norm_res = residual_expansion(f, interp).native_norm()
                assert norm_s <= norm_f * (1.0 + 1e-9)
                assert norm_res <= norm_f * (1.0 + 1e-9)
                pythagoras = abs(norm_f**2 - norm_s**2 - norm_res**2)
                assert pythagoras <= 1e-6 * max(norm_f**2, 1e-30)
