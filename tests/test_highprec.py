"""The mp measurement path against the plain per-entry formulas it replaced.

The reference functions below are the straightforward per-entry mp
evaluation (one kernel derivative, one monomial, one expansion at a time).
``MpCore`` must return the very same ``mpf`` values, and ``lu_solve`` the
very same ``mpf`` values as ``mp.lu_solve``, so rows recorded by a study
do not depend on how the work is shared.
"""

from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf

from rbfstudy.geometry import generate_points
from rbfstudy.highprec import MpCore, lu_solve
from rbfstudy.interpolant import SingularSystemError
from rbfstudy.kernels import Kernel, KernelFamily, derivative_terms
from rbfstudy.polybasis import MonomialBasis
from rbfstudy.study import StudyConfig, build_approximand

FIXTURES = Path(__file__).parent / "fixtures"
DPS = 50


def _profile_deriv_mp(kernel, j, t):
    if kernel.family is KernelFamily.GAUSSIAN:
        return (-mpf(kernel.beta)) ** j * mp.exp(-mpf(kernel.beta) * t)
    half = mpf(kernel.beta) / 2
    coeff = mp.gamma(-half)
    for i in range(j):
        coeff *= half - i
    return coeff * t ** (half - j)


def _shift_mp(kernel):
    return mpf(kernel.c) ** 2 if kernel.family is KernelFamily.MULTIQUADRIC else mpf(0)


def _kernel_deriv_mp(kernel, alpha, diff):
    t = _shift_mp(kernel) + sum(v * v for v in diff)
    total = mpf(0)
    for profile_term in derivative_terms(kernel.dim, alpha):
        poly_val = mpf(0)
        for expo, coeff in profile_term.poly.items():
            term = mpf(coeff)
            for axis, e in enumerate(expo):
                if e:
                    term *= diff[axis] ** e
            poly_val += term
        total += poly_val * _profile_deriv_mp(kernel, profile_term.deriv_order, t)
    return total


def _monomial_deriv_mp(expo, alpha, x):
    factor = mpf(1)
    for e, a in zip(expo, alpha):
        if a > e:
            return mpf(0)
        for i in range(a):
            factor *= e - i
    for axis, (e, a) in enumerate(zip(expo, alpha)):
        if e - a:
            factor *= x[axis] ** (e - a)
    return factor


def _expansion_deriv_mp(kernel, centers, weights, basis, poly_coeffs, alpha, x):
    total = mpf(0)
    for center, weight in zip(centers, weights):
        diff = [xv - cv for xv, cv in zip(x, center)]
        total += weight * _kernel_deriv_mp(kernel, alpha, diff)
    for expo, coeff in zip(basis.exponents, poly_coeffs):
        total += coeff * _monomial_deriv_mp(expo, alpha, x)
    return total


def _same(a, b):
    return a._mpf_ == b._mpf_


KERNELS = [
    pytest.param(lambda dim: Kernel.gaussian(3.0, dim), id="gaussian"),
    pytest.param(lambda dim: Kernel.multiquadric(1.0, 0.7, dim), id="mq1"),
    pytest.param(lambda dim: Kernel.multiquadric(-1.0, 0.7, dim), id="mq-1"),
    pytest.param(lambda dim: Kernel.multiquadric(3.0, 0.7, dim), id="mq3"),
]
ALPHAS = {1: ((1,), (2,)), 2: ((1, 0), (0, 1), (1, 1), (2, 0))}


def _mp_points(rng, count, dim):
    return [[mpf(v) for v in row] for row in rng.uniform(-1.0, 1.0, (count, dim))]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("make_kernel", KERNELS)
def test_core_matches_per_entry_formulas(make_kernel, dim):
    kernel = make_kernel(dim)
    alphas = ALPHAS[dim]
    rng = np.random.default_rng(dim)
    with mp.workdps(DPS):
        core = MpCore(kernel, alphas)
        basis = MonomialBasis.for_cpd_order(dim, kernel.cpd_order)
        centers, points = _mp_points(rng, 4, dim), _mp_points(rng, 5, dim)
        weights = [mpf(v) / 3 for v in rng.normal(size=4)]
        poly = [mpf(v) / 7 for v in rng.normal(size=basis.size)]
        for x in points + [[mpf(0)] * dim]:
            got = core.kernel(x, len(core.orders))
            for alpha, value in zip(core.orders, got):
                assert _same(value, _kernel_deriv_mp(kernel, alpha, x)), alpha
            # every count gives the same leading orders
            assert all(_same(a, b) for a, b in zip(core.kernel(x, 1), got))
            got = core.expansion(centers, weights, poly, x, len(core.orders))
            for alpha, value in zip(core.orders, got):
                expected = _expansion_deriv_mp(kernel, centers, weights, basis, poly, alpha, x)
                assert _same(value, expected), alpha


def _reference_system(kernel, nodes, f):
    """The level system and right-hand side assembled entry by entry."""
    zero = (0,) * kernel.dim
    basis = MonomialBasis.for_cpd_order(kernel.dim, kernel.cpd_order)
    mp_nodes = [[mpf(v) for v in row] for row in nodes]
    centers = [[mpf(v) for v in row] for row in f.centers.points]
    weights, poly = [mpf(v) for v in f.weights], [mpf(v) for v in f.poly_coeffs]
    n, q = len(mp_nodes), basis.size
    system = [[mpf(0)] * (n + q) for _ in range(n + q)]
    for i in range(n):
        for j in range(i, n):
            diff = [a - b for a, b in zip(mp_nodes[i], mp_nodes[j])]
            system[i][j] = system[j][i] = _kernel_deriv_mp(kernel, zero, diff)
        for k, expo in enumerate(basis.exponents):
            system[i][n + k] = system[n + k][i] = _monomial_deriv_mp(expo, zero, mp_nodes[i])
    rhs = [_expansion_deriv_mp(kernel, centers, weights, basis, poly, zero, x) for x in mp_nodes]
    return system, rhs + [mpf(0)] * q


def _assert_matches_mpmath(system, rhs):
    x, factors, pivots = lu_solve(system, rhs, 1.0)
    expected = mp.lu_solve(mp.matrix(system), mp.matrix(rhs))
    assert len(x) == expected.rows
    assert all(_same(a, expected[i]) for i, a in enumerate(x))
    with mp.workprec(mp.prec + 10):
        lu, p = mp.LU_decomp(mp.matrix(system))
    assert pivots == p
    n = len(system)
    assert all(_same(factors[i][j], lu[i, j]) for i in range(n) for j in range(n))


@pytest.mark.parametrize("pilot", ["pilot_mq", "pilot_gaussian"])
def test_lu_solve_matches_mpmath_on_pilot_levels(pilot):
    config = StudyConfig.load_json(FIXTURES / f"{pilot}.json")
    f = build_approximand(config)
    with mp.workdps(config.solver_dps):
        for spacing in config.spacings:
            nodes = generate_points(config.domain, "grid", spacing=spacing).points
            _assert_matches_mpmath(*_reference_system(config.kernel, nodes, f))


@pytest.mark.parametrize("n", [3, 7, 20])
def test_lu_solve_matches_mpmath_on_random_matrices(n):
    rng = np.random.default_rng(n)
    with mp.workdps(DPS):
        system = [[mpf(v) / 3 for v in row] for row in rng.normal(size=(n, n))]
        rhs = [mpf(v) / 7 for v in rng.normal(size=n)]
        _assert_matches_mpmath(system, rhs)


@pytest.mark.parametrize("rows", [
    [[1, 2], [2, 4]],
    [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
])
def test_lu_solve_rejects_singular_matrix(rows):
    with mp.workdps(DPS):
        system = [[mpf(v) for v in row] for row in rows]
        with pytest.raises(SingularSystemError) as info:
            lu_solve(system, [mpf(1)] * len(rows), 4.5e40)
    assert info.value.cond_estimate == 4.5e40
