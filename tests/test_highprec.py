"""The mp measurement path against the plain per-entry formulas it replaced.

The reference functions below are the straightforward per-entry mp
evaluation (one kernel derivative, one monomial, one expansion at a time).
``MpCore`` must return the very same values, memoized or not, and
``lu_solve`` the very same values as ``mp.lu_solve``, so rows recorded by a
study do not depend on how the work is shared. The module passes raw
``_mpf_`` tuples and (signed mantissa, exponent) pairs; the helpers
``_kernel``, ``_expansion`` and ``_lu_solve`` convert ``mpf`` lists at
their boundary, exactly.
"""

import contextlib
import dataclasses
import gc
import itertools
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath.libmp import (dps_to_prec, fone, from_man_exp, fzero, mpf_add, mpf_gt, mpf_mul,
                          mpf_neg, mpf_sub, round_nearest)

from rbfstudy.geometry import CubeDomain, generate_points, uniform_grid
from rbfstudy.highprec import (MpCore, _axpy, _dot, _pair, _raw, approximand_on_probes, lu_solve,
                               measure_level)
from rbfstudy.interpolant import SingularSystemError
from rbfstudy.kernels import Kernel, KernelFamily, derivative_terms
from rbfstudy.polybasis import MonomialBasis
from rbfstudy.study import (ApproximandSpec, StudyConfig, _inner_probe_mask, build_approximand,
                            run_study)

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


def _mp(pair):
    return mp.make_mpf(_raw(*pair))


def _expansion(core, centers, weights, poly, x, count):
    """``core.expansion`` on mpf centers (rows), weights, coefficients and
    point, as mpf."""
    axes = [[c[axis]._mpf_ for c in centers] for axis in range(len(x))]
    got = core.expansion(axes, [_pair(w._mpf_) for w in weights], [_pair(c._mpf_) for c in poly],
                         [v._mpf_ for v in x], count)
    return [_mp(v) for v in got]


def _kernel(core, diff, count):
    """The first ``count`` orders of the kernel at the mpf difference
    ``diff``: an expansion of one center at the origin, weight 1 and a zero
    polynomial part, whose sums add only exact no-ops."""
    zero = [mpf(0)] * len(diff)
    return _expansion(core, [zero], [mpf(1)], [mpf(0)] * core.basis.size, diff, count)


def _lu_solve(system, rhs, cond_estimate=1.0):
    """``lu_solve`` on mpf lists at the working precision, as mpf."""
    x, factors, pivots = lu_solve([[_pair(v._mpf_) for v in row] for row in system],
                                  [_pair(v._mpf_) for v in rhs], mp.prec, cond_estimate)
    return [_mp(v) for v in x], [[mp.make_mpf(v) for v in row] for row in factors], pivots


KERNELS = [
    pytest.param(lambda dim: Kernel.gaussian(3.0, dim), id="gaussian"),
    pytest.param(lambda dim: Kernel.multiquadric(1.0, 0.7, dim), id="mq1"),
    pytest.param(lambda dim: Kernel.multiquadric(-1.0, 0.7, dim), id="mq-1"),
    pytest.param(lambda dim: Kernel.multiquadric(3.0, 0.7, dim), id="mq3"),
    # cpd order 3: p is quadratic, so D^alpha scales some monomials by 2
    pytest.param(lambda dim: Kernel.multiquadric(5.0, 0.7, dim), id="mq5"),
]
ALPHAS = {1: ((1,), (2,)), 2: ((1, 0), (0, 1), (1, 1), (2, 0))}


def _mp_points_of(points):
    return [[mpf(v) for v in row] for row in points]


def _mp_points(rng, count, dim):
    return [[mpf(v) for v in row] for row in rng.uniform(-1.0, 1.0, (count, dim))]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("make_kernel", KERNELS)
def test_core_matches_per_entry_formulas(make_kernel, dim):
    kernel = make_kernel(dim)
    alphas = ALPHAS[dim]
    rng = np.random.default_rng(dim)
    with mp.workdps(DPS):
        core = MpCore(kernel, alphas, DPS)
        basis = MonomialBasis.for_cpd_order(dim, kernel.cpd_order)
        centers, points = _mp_points(rng, 4, dim), _mp_points(rng, 5, dim)
        weights = [mpf(v) / 3 for v in rng.normal(size=4)]
        poly = [mpf(v) / 7 for v in rng.normal(size=basis.size)]
        for x in points + [[mpf(0)] * dim]:
            got = _kernel(core, x, len(core.orders))
            for alpha, value in zip(core.orders, got):
                assert _same(value, _kernel_deriv_mp(kernel, alpha, x)), alpha
            # every count gives the same leading orders
            assert all(_same(a, b) for a, b in zip(_kernel(core, x, 1), got))
            got = _expansion(core, centers, weights, poly, x, len(core.orders))
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
    x, factors, pivots = _lu_solve(system, rhs)
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
            _lu_solve(system, [mpf(1)] * len(rows), 4.5e40)
    assert info.value.cond_estimate == 4.5e40


def test_lu_solve_matches_mpmath_at_depth():
    """The 81-node Gaussian pilot system (a fifth pilot level) at dps 200.

    ``mp.lu_solve`` is ``LU_decomp``, ``L_solve`` and ``U_solve`` at 10 more
    bits; they are called directly so that mpmath factors the system once."""
    config = StudyConfig.load_json(FIXTURES / "pilot_gaussian.json")
    nodes = generate_points(config.domain, "grid", spacing=0.0125).points
    assert len(nodes) == 81
    with mp.workdps(200):
        system, rhs = _reference_system(config.kernel, nodes, build_approximand(config))
        x, factors, pivots = _lu_solve(system, rhs)
        with mp.workprec(mp.prec + 10):
            lu, p = mp.LU_decomp(mp.matrix(system))
            expected = mp.U_solve(lu, mp.L_solve(lu, mp.matrix(rhs), p))
    assert pivots == p
    assert all(_same(factors[i][j], lu[i, j]) for i in range(81) for j in range(81))
    assert all(_same(a, expected[i]) for i, a in enumerate(x))


class _Pilot:
    """One pilot fixture's (or a given config's) config, approximand, probes
    and f in mp."""

    def __init__(self, source):
        self.config = config = (source if isinstance(source, StudyConfig)
                                else StudyConfig.load_json(FIXTURES / f"{source}.json"))
        self.f = build_approximand(config)
        self.probes = uniform_grid(config.domain, config.probe_resolution)
        self.inner_mask = _inner_probe_mask(config.domain, self.probes, config.delta)
        self.core = self.new_core()
        self.f_mp = self.f_on_probes(self.core)
        self._f_reference = {}

    def new_core(self):
        return MpCore(self.config.kernel, self.config.deriv_orders, self.config.solver_dps)

    def f_on_probes(self, core):
        return approximand_on_probes(core, self.f, self.probes, self.inner_mask)

    def f_reference(self):
        """f at every probe (and each order at inner probes) by the per-entry
        formulas, at the working precision."""
        if mp.prec not in self._f_reference:
            config, f = self.config, self.f
            kernel, orders = config.kernel, ((0,) * config.kernel.dim,) + config.deriv_orders
            basis = MonomialBasis.for_cpd_order(kernel.dim, kernel.cpd_order)
            centers = _mp_points_of(f.centers.points)
            weights, poly = [mpf(v) for v in f.weights], [mpf(v) for v in f.poly_coeffs]
            self._f_reference[mp.prec] = [
                [_expansion_deriv_mp(kernel, centers, weights, basis, poly, alpha, x)
                 for alpha in (orders if inner else orders[:1])]
                for x, inner in zip(_mp_points_of(self.probes), self.inner_mask)]
        return self._f_reference[mp.prec]

    def nodes(self, level):
        return generate_points(self.config.domain, "grid",
                               spacing=self.config.spacings[level]).points

    def measure(self, level, core, f_mp=None):
        """``measure_level``'s sups and stats for one level."""
        config = self.config
        return measure_level(config.kernel, self.f.centers.points, self.f.weights,
                             self.f.poly_coeffs, self.nodes(level), self.probes,
                             self.probes[self.inner_mask], config.deriv_orders,
                             self.f_mp if f_mp is None else f_mp, 1.0, core)


@pytest.fixture(scope="module", params=["pilot_mq", "pilot_gaussian"])
def pilot(request):
    return _Pilot(request.param)


@pytest.fixture(scope="module")
def mq_pilot():
    return _Pilot("pilot_mq")


def _reference_sups(pilot, nodes):
    """A level's sups by ``_reference_system``, ``mp.lu_solve`` and a sweep
    of ``_expansion_deriv_mp`` for f and s, at the working precision."""
    kernel = pilot.config.kernel
    orders = ((0,) * kernel.dim,) + pilot.config.deriv_orders
    basis = MonomialBasis.for_cpd_order(kernel.dim, kernel.cpd_order)
    system, rhs = _reference_system(kernel, nodes, pilot.f)
    solution = mp.lu_solve(mp.matrix(system), mp.matrix(rhs))
    n = len(nodes)
    coeffs, sol_poly = solution[:n], solution[n:]
    mp_nodes = _mp_points_of(nodes)
    worst = [mpf(0)] * len(orders)
    for x, f_values in zip(_mp_points_of(pilot.probes), pilot.f_reference()):
        for k, (alpha, fv) in enumerate(zip(orders, f_values)):
            sv = _expansion_deriv_mp(kernel, mp_nodes, coeffs, basis, sol_poly, alpha, x)
            worst[k] = max(worst[k], abs(fv - sv))
    return worst


@pytest.mark.parametrize("level", [0, 1, 2])
def test_level_matches_plain_reference(pilot, level):
    with mp.workdps(pilot.config.solver_dps):
        expected = _reference_sups(pilot, pilot.nodes(level))
    got, _ = pilot.measure(level, pilot.core)
    assert len(got) == len(expected)
    assert all(_same(a, b) for a, b in zip(got, expected))


def _scattered_level_matches_plain_reference(config):
    """The first level of a config whose scheme is not a grid, by
    ``measure_level`` and by ``_reference_sups``, bit for bit."""
    pilot = _Pilot(config)
    nodes = generate_points(config.domain, config.refinement_scheme, count=config.counts[0],
                            seed=config.seed).points
    with mp.workdps(config.solver_dps):
        expected = _reference_sups(pilot, nodes)
    got, stats = measure_level(config.kernel, pilot.f.centers.points, pilot.f.weights,
                               pilot.f.poly_coeffs, nodes, pilot.probes,
                               pilot.probes[pilot.inner_mask], config.deriv_orders, pilot.f_mp,
                               1.0, pilot.core)
    assert stats["dps"] == config.solver_dps
    assert len(got) == len(expected) == 1 + len(config.deriv_orders)
    assert all(_same(a, b) for a, b in zip(got, expected))


def test_halton_2d_level_matches_plain_reference():
    # beta 3: a linear polynomial part, whose derivatives enter the tail
    _scattered_level_matches_plain_reference(StudyConfig(
        Kernel.multiquadric(3.0, 0.7, 2), CubeDomain(2, (0.0, 0.0), 1.0),
        approximand=ApproximandSpec(centers_scheme="explicit",
                                    centers_points=((-0.5, 0.3), (1.4, 1.2), (0.2, -0.6),
                                                    (1.3, -0.2), (-0.4, 1.5), (0.6, 1.6))),
        refinement_scheme="halton", counts=(12,), deriv_orders=((1, 0), (0, 1), (1, 1)),
        smoothness_order=3, probe_resolution=9, solver_dps=DPS))


def test_random_level_at_dps_100_matches_plain_reference():
    config = StudyConfig.load_json(FIXTURES / "pilot_mq.json")
    _scattered_level_matches_plain_reference(dataclasses.replace(
        config, refinement_scheme="random", spacings=None, counts=(9,), probe_resolution=41,
        solver_dps=100))


def _exact_diff(a, b):
    return tuple(Fraction(u) - Fraction(v) for u, v in zip(a, b))


def _fraction(raw):
    sign, man, exp, _ = raw
    return (-1) ** sign * man * Fraction(2) ** exp


def _abs_diffs(points, others):
    return {tuple(abs(v) for v in _exact_diff(a, b)) for a in points for b in others}


def test_memo_evaluates_each_absolute_difference_once_per_study(mq_pilot, monkeypatch):
    pilot = mq_pilot
    config = pilot.config
    centers = pilot.f.centers.points
    expected = _abs_diffs(pilot.probes, centers)
    for level in range(config.levels):
        nodes = pilot.nodes(level)
        expected |= _abs_diffs(nodes, nodes) | _abs_diffs(nodes, centers)
        expected |= _abs_diffs(pilot.probes, nodes)

    evaluated = []
    uncached = MpCore._evaluate

    def counted(self, key):
        evaluated.append(tuple(_fraction((0,) + v) for v in key))
        return uncached(self, key)

    monkeypatch.setattr(MpCore, "_evaluate", counted)
    result = run_study(config)
    # f and every level share one memo, and no key is evaluated twice
    assert len(evaluated) == len(set(evaluated)) == len(expected)
    assert set(evaluated) == expected
    stats = [record.mp for record in result.levels]
    assert [record.level for record in result.levels] == list(range(config.levels))
    f_distinct = stats[0]["memo_size"] - stats[0]["distinct"]
    assert f_distinct == len(_abs_diffs(pilot.probes, centers))
    assert f_distinct + sum(s["distinct"] for s in stats) == stats[-1]["memo_size"]
    assert stats[-1]["memo_size"] == len(expected)
    for level, s in enumerate(stats):
        n = len(pilot.nodes(level))
        assert s["pairs"] == n * (n + 1) // 2 + n * len(centers) + len(pilot.probes) * n
        assert s["dps"] == config.solver_dps


def test_study_leaves_no_core_behind(monkeypatch):
    cores = []
    build = MpCore.__init__

    def tracked(self, *args):
        build(self, *args)
        cores.append(weakref.ref(self))

    monkeypatch.setattr(MpCore, "__init__", tracked)
    run_study(StudyConfig.load_json(FIXTURES / "pilot_gaussian.json"))
    gc.collect()
    assert len(cores) == 1 and cores[0]() is None


FOLD_ALPHAS = {
    1: ((1,), (2,), (3,)),
    2: ((1, 0), (0, 1), (1, 1), (2, 1), (0, 2)),
    3: ((1, 0, 1), (1, 0, 0), (0, 2, 1)),
}


def _reflections(diff):
    """``diff`` with each subset of its axes negated (zeros stay zero)."""
    return [[-v if flip else v for v, flip in zip(diff, flips)]
            for flips in itertools.product((False, True), repeat=len(diff))]


@pytest.mark.parametrize("value_first", [True, False], ids=["value-first", "orders-first"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("make_kernel", KERNELS)
def test_folded_core_matches_reference_under_reflections(make_kernel, dim, value_first):
    kernel = make_kernel(dim)
    rng = np.random.default_rng(10 + dim)
    with mp.workdps(DPS):
        core = MpCore(kernel, FOLD_ALPHAS[dim], DPS)
        full = len(core.orders)
        base = rng.uniform(0.05, 0.9, (3, dim))
        base[1, 0] = 0.0
        base[2, -1] = 0.0
        diffs = [d for row in _mp_points_of(base) for d in _reflections(row)]
        diffs.append([mpf(0)] * dim)
        counts = (1, full) if value_first else (full, 1)
        for count in counts:
            for diff in diffs:
                got = _kernel(core, diff, count)
                assert len(got) == count
                for alpha, value in zip(core.orders, got):
                    assert _same(value, _kernel_deriv_mp(kernel, alpha, diff)), (alpha, diff)
        # the reflections of one difference share a memo entry
        assert len(core.memo) == len({tuple(row) for row in base} | {(0.0,) * dim})
        basis = MonomialBasis.for_cpd_order(dim, kernel.cpd_order)
        expansion_core = MpCore(kernel, FOLD_ALPHAS[dim], DPS)
        weights = [mpf(v) / 3 for v in rng.normal(size=len(diffs))]
        poly = [mpf(v) / 7 for v in rng.normal(size=basis.size)]
        for count in counts:
            for x in [[mpf(0)] * dim] + diffs[:2 ** dim]:
                got = _expansion(expansion_core, diffs, weights, poly, x, count)
                for alpha, value in zip(core.orders, got):
                    expected = _expansion_deriv_mp(kernel, diffs, weights, basis, poly, alpha, x)
                    assert _same(value, expected), (alpha, x)


@pytest.mark.parametrize("make_kernel", KERNELS)
def test_memoized_core_matches_reference_on_2d_grid(make_kernel):
    kernel = make_kernel(2)
    alphas = ((1, 0), (0, 1), (1, 1))
    points = generate_points(CubeDomain.unit(2), "grid", spacing=0.5).points
    rng = np.random.default_rng(5)
    with mp.workdps(DPS):
        core = MpCore(kernel, alphas, DPS)
        grid = _mp_points_of(points)
        # every difference and, later, its negation; many repeat
        diffs = [[a - b for a, b in zip(x, y)] for x in grid for y in grid]
        for diff in diffs:
            for alpha, value in zip(core.orders, _kernel(core, diff, len(core.orders))):
                assert _same(value, _kernel_deriv_mp(kernel, alpha, diff)), (alpha, diff)
        assert len(core.memo) < core.lookups == len(diffs)
        basis = MonomialBasis.for_cpd_order(2, kernel.cpd_order)
        weights = [mpf(v) / 3 for v in rng.normal(size=len(grid))]
        poly = [mpf(v) / 7 for v in rng.normal(size=basis.size)]
        for x in grid:
            got = _expansion(core, grid, weights, poly, x, len(core.orders))
            for alpha, value in zip(core.orders, got):
                expected = _expansion_deriv_mp(kernel, grid, weights, basis, poly, alpha, x)
                assert _same(value, expected), alpha


def test_measure_level_leaves_no_shared_state(monkeypatch):
    pilot = _Pilot("pilot_gaussian")
    cores = []
    build = MpCore.__init__

    def tracked(self, *args):
        build(self, *args)
        cores.append(weakref.ref(self))

    monkeypatch.setattr(MpCore, "__init__", tracked)
    result, first = pilot.measure(0, pilot.new_core())
    pilot.measure(1, pilot.new_core())
    again_result, again = pilot.measure(0, pilot.new_core())
    assert again_result == result
    assert first["distinct"] == again["distinct"] and first["pairs"] == again["pairs"]
    gc.collect()
    assert len(cores) == 3 and all(ref() is None for ref in cores)


@contextlib.contextmanager
def _rounding_down():
    """mpmath's context rounding set to 'd' (toward zero) for the block."""
    rounding = mp._prec_rounding[1]
    mp._prec_rounding[1] = "d"
    try:
        yield
    finally:
        mp._prec_rounding[1] = rounding


def test_core_is_bound_to_its_precision():
    """A core computes at the dps it was built at, whatever the caller's."""
    kernel = Kernel.multiquadric(1.0, 0.7, 1)
    diff = [mpf(0.25)]
    with mp.workdps(DPS):
        core = MpCore(kernel, ((1,),), DPS)
        expected = [_kernel_deriv_mp(kernel, a, diff) for a in core.orders]
        got = _kernel(core, diff, 2)
    assert all(_same(a, b) for a, b in zip(got, expected))
    for dps in (DPS - 20, DPS + 30):
        with mp.workdps(dps):
            assert all(_same(a, b) for a, b in zip(_kernel(core, diff, 2), expected)), dps
            fine = MpCore(kernel, ((1,),), dps)
            got = _kernel(fine, diff, 2)
            assert all(_same(v, _kernel_deriv_mp(kernel, a, diff))
                       for a, v in zip(fine.orders, got)), dps


def test_core_is_bound_to_round_to_nearest():
    """A core built or called under caller rounding 'd' still rounds to
    nearest, and leaves the caller's rounding as it found it."""
    kernel = Kernel.multiquadric(1.0, 0.7, 1)
    diff = [mpf(-0.25)]
    with mp.workdps(DPS):
        core = MpCore(kernel, ((1,),), DPS)
        expected = [_kernel_deriv_mp(kernel, a, diff) for a in core.orders]
        shifted = expected[0] + 1
        with _rounding_down():
            built_down = MpCore(kernel, ((1,),), DPS)
            for c in (core, built_down):
                assert all(_same(a, b) for a, b in zip(_kernel(c, diff, 2), expected))
                got = _expansion(c, [[mpf(0)]], [mpf(1)], [mpf(1)], diff, 2)
                assert _same(got[0], shifted) and _same(got[1], expected[1])
            assert mp._prec_rounding[1] == "d"
        assert all(_same(a, b) for a, b in zip(_kernel(built_down, diff, 2), expected))


def test_cores_of_two_precisions_serve_side_by_side(mq_pilot):
    """Cores at P and 2P digits, built and called in turn under a caller
    context of a third precision and of rounding 'd', each give the
    per-entry reference sups at their own dps, bit for bit."""
    pilot, levels = mq_pilot, (0, 1)
    dps = (pilot.config.solver_dps, 2 * pilot.config.solver_dps)
    expected = {}
    for d in dps:
        with mp.workdps(d):
            expected[d] = [_reference_sups(pilot, pilot.nodes(level)) for level in levels]
    with mp.workdps(20), _rounding_down():
        cores = {d: MpCore(pilot.config.kernel, pilot.config.deriv_orders, d) for d in dps}
        f_mp = {d: pilot.f_on_probes(cores[d]) for d in dps}
        got = {d: [] for d in dps}
        for level in levels:
            for d in dps:
                sups, stats = pilot.measure(level, cores[d], f_mp=f_mp[d])
                assert stats["dps"] == d
                got[d].append(sups)
        assert mp.dps == 20 and mp._prec_rounding[1] == "d"
    for d in dps:
        for want, have in zip(expected[d], got[d]):
            assert len(have) == len(want)
            assert all(_same(a, b) for a, b in zip(have, want)), d


def test_study_rows_ignore_the_callers_mp_context():
    config = StudyConfig.load_json(FIXTURES / "pilot_mq.json")
    expected = [record.errors for record in run_study(config).levels]
    with mp.workdps(20), _rounding_down():
        assert [record.errors for record in run_study(config).levels] == expected


def test_core_sets_the_precision_of_its_callers(mq_pilot):
    """f in mp and a level's sups come out alike at any working precision, which
    each call leaves as it found it."""
    pilot = mq_pilot

    def run(dps):
        with mp.workdps(dps):
            prec = mp.prec
            core = pilot.new_core()
            f_mp = pilot.f_on_probes(core)
            assert mp.prec == prec
            sups, _ = pilot.measure(0, core, f_mp=f_mp)
            assert mp.prec == prec
        return [v for x, values in f_mp for v in x + [_raw(*p) for p in values]] + [
            v._mpf_ for v in sups]

    expected = run(pilot.config.solver_dps)
    for dps in (15, 80):
        got = run(dps)
        assert got == expected, dps


@pytest.mark.parametrize("mismatch", ["kernel", "orders"])
def test_shared_core_must_match_its_callers(mq_pilot, mismatch):
    config = mq_pilot.config
    core = MpCore(Kernel.gaussian(1.0, 1) if mismatch == "kernel" else config.kernel,
                  ((2,),) if mismatch == "orders" else config.deriv_orders, config.solver_dps)
    with pytest.raises(ValueError, match="MpCore"):
        mq_pilot.measure(0, core)
    assert not core.memo and core.lookups == 0


def test_approximand_core_must_match_the_kernel_of_f(mq_pilot):
    core = MpCore(Kernel.gaussian(1.0, 1), mq_pilot.config.deriv_orders, DPS)
    with pytest.raises(ValueError, match="MpCore"):
        mq_pilot.f_on_probes(core)
    assert not core.memo and core.lookups == 0


# The integer-mantissa loops against the libmp calls they replace, at the
# working precisions of dps 50, of the LU at dps 50 and of dps 100.
PRECS = [dps_to_prec(50), dps_to_prec(50) + 10, dps_to_prec(100)]


def _num(man, exp=0):
    return from_man_exp(man, exp)


def _term_by_libmp(total, x, y, neg, prec):
    return mpf_add(total, mpf_mul(x, mpf_neg(y) if neg else y, prec, round_nearest),
                   prec, round_nearest)


def _term(total, x, y, neg, prec):
    return _raw(*_dot(_pair(total), [_pair(x)], [_pair(y)], prec, [neg]))


def _lu_step_by_libmp(v, factor, u, prec):
    return mpf_sub(v, mpf_mul(factor, u, prec, round_nearest), prec, round_nearest)


def _lu_step(v, factor, u, prec):
    return _axpy([v], _pair(mpf_neg(factor)), [_pair(u)], prec)[0]


def _assert_term_and_lu_step(total, x, y, prec):
    for neg in (0, 1):
        assert _term(total, x, y, neg, prec) == _term_by_libmp(total, x, y, neg, prec)
    assert _lu_step(total, x, y, prec) == _lu_step_by_libmp(total, x, y, prec)


@pytest.mark.parametrize("prec", PRECS)
def test_integer_rounding_breaks_product_ties_to_even(prec):
    # (2^a + 1)(2^b + 1) with a + b = prec has prec + 1 bits and ends in a
    # lone 1: a tie, kept as 2^(a-1) + 2^(b-1) + 2^(prec-1), odd for b = 1
    for b, up in ((1, True), (2, False), (5, False)):
        x, y = _num(2 ** (prec - b) + 1, -7), _num(2 ** b + 1, 3)
        exact = mpf_mul(x, y)
        rounded = _term_by_libmp(fzero, x, y, 0, prec)
        assert mpf_gt(rounded, exact) if up else mpf_gt(exact, rounded)
        for total in (fzero, _num(3, -20 - prec), _num(-5, 2 * prec)):
            _assert_term_and_lu_step(total, x, y, prec)
            _assert_term_and_lu_step(total, mpf_neg(x), y, prec)


@pytest.mark.parametrize("prec", PRECS)
def test_integer_rounding_breaks_sum_ties_to_even(prec):
    # 2t + 1 for a prec-bit t is a tie between t and t + 1
    for t, up in ((2 ** prec - 1, True), (2 ** prec - 2, False), (2 ** (prec - 1) + 1, True)):
        total = _num(t, 1)
        rounded = _term_by_libmp(total, fone, fone, 0, prec)
        assert mpf_gt(rounded, _num(2 * t + 1)) if up else mpf_gt(_num(2 * t + 1), rounded)
        for sign in (1, -1):
            _assert_term_and_lu_step(_num(sign * t, 1), _num(sign), fone, prec)
            _assert_term_and_lu_step(_num(sign * t, 1), _num(-sign), fone, prec)
            _assert_term_and_lu_step(_num(sign * (2 * t + 1)), _num(sign), fone, prec)


@pytest.mark.parametrize("prec", PRECS)
def test_integer_rounding_cancels_to_exact_zero(prec):
    x, y = _num(2 ** prec - 3, -40), _num(12345, 17)
    product = mpf_mul(x, y, prec, round_nearest)
    assert _term(product, x, y, 1, prec) == _term_by_libmp(product, x, y, 1, prec) == fzero
    assert _lu_step(product, x, y, prec) == fzero
    # a chain through zero: the next term starts afresh
    chain = [(x, y, 0), (x, y, 1), (fone, _num(3, -5), 1), (y, y, 0)]
    expected = fzero
    for a, b, neg in chain:
        expected = _term_by_libmp(expected, a, b, neg, prec)
    got = _dot((0, 0), [_pair(a) for a, _, _ in chain], [_pair(b) for _, b, _ in chain], prec,
               [neg for _, _, neg in chain])
    assert _raw(*got) == expected


@pytest.mark.parametrize("prec", PRECS)
def test_integer_rounding_across_exponent_gaps_past_twice_prec(prec):
    # libmp perturbs the lower operand here; the exact sum rounds alike
    gap = 2 * prec + 10
    for big in (fone, _num(2 ** prec - 1, 4), _num(7, -3)):
        for small in (_num(1, -gap), _num(2 ** prec - 1, -gap - prec), _num(-3, -gap)):
            for total, x in ((big, small), (small, big)):
                _assert_term_and_lu_step(total, x, fone, prec)
                _assert_term_and_lu_step(mpf_neg(total), x, _num(-1), prec)


@pytest.mark.parametrize("prec", PRECS)
def test_integer_rounding_with_zero_weights_and_kernel_values(prec):
    w, v = _num(-(2 ** 52 + 11), -60), _num(2 ** prec - 5, -prec)
    for total in (fzero, _num(9, -3), _num(-9, -3)):
        for x, y in ((fzero, v), (fzero, mpf_neg(v)), (w, fzero), (mpf_neg(w), fzero),
                     (fzero, fzero)):
            _assert_term_and_lu_step(total, x, y, prec)
            assert _term(total, x, y, 1, prec) == total


@pytest.mark.parametrize("prec", PRECS)
def test_integer_chains_match_libmp_on_random_sequences(prec):
    rng = np.random.default_rng(prec)

    def draw(bits):
        kind = rng.integers(8)
        if kind == 0:
            return fzero
        man = int(rng.integers(1, 2 ** 62)) << int(rng.integers(0, bits - 62))
        man = man | 1 if kind == 1 else man
        return _num(man if rng.integers(2) else -man, int(rng.integers(-400, 400)))

    for _ in range(300):
        # weights of up to prec bits (the LU's solution carries more than
        # the sweep's prec) against kernel values of prec bits
        terms = [(draw(prec + 10), mpf_mul(draw(prec), fone, prec, round_nearest),
                  int(rng.integers(2))) for _ in range(int(rng.integers(1, 12)))]
        if rng.integers(3) == 0:
            x, y, neg = terms[0]
            terms.append((x, y, 1 - neg))
        expected = fzero
        for x, y, neg in terms:
            expected = _term_by_libmp(expected, x, y, neg, prec)
        got = _dot((0, 0), [_pair(x) for x, _, _ in terms], [_pair(y) for _, y, _ in terms],
                   prec, [neg for _, _, neg in terms])
        assert _raw(*got) == expected
        v = mpf_mul(draw(prec), fone, prec, round_nearest)
        factor = terms[0][0]
        row, tail = [v, fzero, expected], [terms[0][1], v, fone]
        assert _axpy(row, _pair(mpf_neg(factor)), [_pair(u) for u in tail], prec) == [
            _lu_step_by_libmp(a, factor, u, prec) for a, u in zip(row, tail)]
