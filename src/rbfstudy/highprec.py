"""Extended-precision measurement path for refinement studies.

Double-precision factorizations saturate near condition 1e16, which puts
a noise floor of roughly 1e-9..1e-13 under the measured sup errors; the
finest study levels sit far below it. This module redoes one level's
solve-and-measure pipeline in mpmath arbitrary precision so the recorded
errors are the true errors of the double-precision-defined approximand.
Only the study harness uses it; the library's solver stays double.

Each recorded number comes from the rounded mp operations of the plain
per-entry formulas, in their order, less exact no-ops (``0 + x``, ``1 * x``,
``x ** 1``) and exact negations; only repeated work is shared. ``MpCore``
runs the double path's ``kernels.compiled_terms`` and
``MonomialBasis.derivative_rule`` in mp, builds the mp profile constants
once and forms ``t`` and each profile derivative once per difference for
all orders; ``approximand_on_probes`` evaluates f once per study;
``measure_level`` solves with ``lu_solve``, an LU on row lists repeating
mpmath 1.3's ``lu_solve`` operation for operation, then makes one pass
over the probes for all orders.

Two further savings keep the bits. One ``MpCore`` serves a whole study:
``run_study`` builds it at ``solver_dps`` and passes it to
``approximand_on_probes`` and to every level's ``measure_level``, which
run at the precision it was built at, whatever the caller's context.
Its memo is keyed on a difference's per-axis absolute values (the
``_mpf_`` tuples less their sign bits) and holds every order, so each
distinct absolute difference is evaluated once per study, across f and
all levels. A difference of two double coordinates is exact in mp, so a
repeat returns the bits a fresh evaluation gives. The sign is applied at
lookup: every monomial of ``D^alpha phi(|x|^2)`` has alpha's parity on
each axis and ``t`` is even, so under round-to-nearest, which rounds
``-y`` to minus the rounding of ``y`` and has no ``-0``, reflecting an
axis negates exactly the orders whose alpha entries on the reflected
axes sum to an odd number. A core therefore refuses any precision or
rounding but the ones it was built at, ``measure_level`` any kernel or
orders but its own, and ``approximand_on_probes`` an f of another kernel.
The kernel body and the hot loops (expansion sums, LU row updates and
substitutions) run on raw ``_mpf_`` tuples through the ``mpmath.libmp``
calls the ``mpf`` operators and ``mp.exp`` make (``mpf_add``/``mpf_sub``/
``mpf_mul``/``mpf_div``/``mpf_exp``/``mpf_pow``/``mpf_pow_int``), at the
core's precision and rounding.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import (fzero, mpf_abs, mpf_add, mpf_div, mpf_exp, mpf_gt, mpf_le, mpf_mul,
                          mpf_neg, mpf_pow, mpf_pow_int, mpf_rdiv_int, mpf_sub, mpf_sum,
                          round_nearest)

from rbfstudy.interpolant import KernelExpansion, SingularSystemError
from rbfstudy.kernels import Kernel, KernelFamily, compiled_terms
from rbfstudy.polybasis import MonomialBasis


class MpCore:
    """Kernel and monomial derivatives of the orders ``(0,...,0) + alphas``,
    built and used at ``dps`` digits (``prec`` bits) and round-to-nearest;
    ``count`` asks for the first ``count`` orders (1: the value). Only the
    profile constants are computed here; the terms and the monomial rule
    are the double path's, with their numbers made ``mpf``.

    ``memo`` maps a difference's per-axis absolute values (each ``_mpf_``
    tuple less its sign bit) to the raw kernel values of every order
    there; a lookup flips order alpha exactly when the alpha entries of
    the negative axes sum to an odd number. ``lookups`` counts the
    differences asked for. Both live as long as the core, which ``kernel``
    and ``expansion`` refuse at any precision or rounding but its own, and
    ``source`` and ``orders`` name the kernel and orders it serves."""

    def __init__(self, kernel: Kernel, alphas, dps: int):
        with mp.workdps(dps):
            self.prec, self.rounding = mp._prec_rounding
            if self.rounding != round_nearest:
                raise ValueError(f"MpCore needs round-to-nearest, not rounding {self.rounding!r}")
            self.memo = {}
            self.lookups = 0
            self.source = kernel
            self.orders = ((0,) * kernel.dim,) + tuple(tuple(a) for a in alphas)
            self.gaussian = kernel.family is KernelFamily.GAUSSIAN
            # per order: kernels.compiled_terms with each coefficient a raw mpf
            self.terms = [[(j, None if poly is None else [
                (mpf(coeff)._mpf_, factors) for coeff, factors in poly
            ]) for j, poly in compiled_terms(kernel.dim, alpha)] for alpha in self.orders]
            self.profile_orders = sorted({j for terms in self.terms for j, _ in terms})
            # per pattern of sign bits over the axes: per order, whether it flips
            self.flips = {signs: [sum(a for a, s in zip(alpha, signs) if s) % 2
                                  for alpha in self.orders]
                          for signs in itertools.product((0, 1), repeat=kernel.dim)}
            top = self.profile_orders[-1]
            if self.gaussian:
                neg_beta = -mpf(kernel.beta)
                self.neg_beta = neg_beta._mpf_
                scale = [neg_beta ** j for j in range(top + 1)]
            else:
                self.shift = (mpf(kernel.c) ** 2)._mpf_
                half = mpf(kernel.beta) / 2
                power = [half - j for j in range(top + 1)]
                scale = [mp.gamma(-half)]
                for p in power[:-1]:
                    scale.append(scale[-1] * p)
                self.power = [p._mpf_ for p in power]
            self.scale = [v._mpf_ for v in scale]
            self.basis = MonomialBasis.for_cpd_order(kernel.dim, kernel.cpd_order)
            # per order, per basis monomial: its derivative by polybasis's rule
            # as a one-term poly (the integer factors' exact product), or None
            # where it vanishes
            self.monomials = [[None if rule is None else [(
                mpf(math.prod(rule[0]))._mpf_,
                tuple((axis, e) for axis, e in enumerate(rule[1]) if e),
            )] for rule in self.basis.derivative_rule(alpha)] for alpha in self.orders]

    def _check_prec(self) -> None:
        if mp._prec_rounding != [self.prec, self.rounding]:
            prec, rounding = mp._prec_rounding
            raise ValueError(f"MpCore built at {self.prec} bits, rounding {self.rounding!r}, "
                             f"used at {prec} bits, rounding {rounding!r}")

    def kernel(self, diff, count: int) -> list:
        """Derivatives of the first ``count`` orders at one difference vector."""
        self._check_prec()
        raw = [v._mpf_ for v in diff]
        key = tuple([v[1:] for v in raw])
        self.lookups += 1
        values = self.memo.get(key) or self._evaluate(key)
        flips = self.flips[tuple([v[0] for v in raw])]
        return [mp.make_mpf(mpf_neg(v) if flip else v)
                for v, flip in zip(values[:count], flips)]

    def _evaluate(self, key) -> list:
        """The uncached kernel body: the raw values of every order at the
        absolute difference ``key``, stored in the memo."""
        prec, rnd = self.prec, self.rounding
        diff = [(0,) + v for v in key]
        t = mpf_mul(diff[0], diff[0], prec, rnd)
        for v in diff[1:]:
            t = mpf_add(t, mpf_mul(v, v, prec, rnd), prec, rnd)
        scale = self.scale
        if self.gaussian:
            e = mpf_exp(mpf_mul(self.neg_beta, t, prec, rnd), prec, rnd)
            profile = {j: mpf_mul(scale[j], e, prec, rnd) if j else e
                       for j in self.profile_orders}
        else:
            t = mpf_add(self.shift, t, prec, rnd)
            profile = {j: mpf_mul(scale[j], mpf_pow(t, self.power[j], prec, rnd), prec, rnd)
                       for j in self.profile_orders}
        out = []
        for terms in self.terms:
            total = None
            for j, poly in terms:
                value = profile[j] if poly is None else mpf_mul(
                    _poly_value(poly, diff, prec, rnd), profile[j], prec, rnd)
                total = value if total is None else mpf_add(total, value, prec, rnd)
            out.append(total)
        self.memo[key] = out
        return out

    def expansion(self, centers, weights, poly_coeffs, x, count: int) -> list:
        """First ``count`` orders of ``sum_k weights[k] * kernel(x - centers[k])``
        plus ``sum_i poly_coeffs[i] * monomial_i(x)``."""
        self._check_prec()
        prec, rnd = self.prec, self.rounding
        memo, flips, point = self.memo, self.flips, [v._mpf_ for v in x]
        totals = [fzero] * count
        for center, weight in zip(centers, weights):
            diff = [mpf_sub(xv, cv._mpf_, prec, rnd) for xv, cv in zip(point, center)]
            key = tuple([v[1:] for v in diff])
            w = weight._mpf_
            # w * -v and -w * v round alike under round-to-nearest
            totals = [mpf_add(total, mpf_mul(mpf_neg(w) if flip else w, v, prec, rnd), prec, rnd)
                      for total, v, flip in zip(totals, memo.get(key) or self._evaluate(key),
                                                flips[tuple([v[0] for v in diff])])]
        self.lookups += len(centers)
        for k in range(count):
            for coeff, mono in zip(poly_coeffs, self.monomials[k]):
                if mono is not None:
                    totals[k] = mpf_add(totals[k], mpf_mul(
                        coeff._mpf_, _poly_value(mono, point, prec, rnd), prec, rnd), prec, rnd)
        return [mp.make_mpf(v) for v in totals]


def _poly_value(poly, x, prec, rnd):
    """``poly`` at the raw point ``x``, by the calls the mpf operators make."""
    total = None
    for coeff, powers in poly:
        term = coeff
        for axis, e in powers:
            term = mpf_mul(term, x[axis] if e == 1 else mpf_pow_int(x[axis], e, prec, rnd),
                           prec, rnd)
        total = term if total is None else mpf_add(total, term, prec, rnd)
    return total


def _mp_rows(points) -> list:
    return [[mpf(v) for v in row] for row in np.atleast_2d(points)]


def approximand_on_probes(core: MpCore, f: KernelExpansion, probes, inner_mask) -> list:
    """The approximand f in mp, once per study, for ``measure_level``: per
    probe, its mp coordinates and f's value, then at inner probes each of
    ``core``'s derivatives, at the precision ``core`` was built at. f's kernel
    must be the one ``core`` serves."""
    if f.kernel != core.source:
        raise ValueError(f"MpCore of {core.source} passed for an expansion of {f.kernel}")
    with mp.workprec(core.prec):
        mp_centers, mp_weights = _mp_rows(f.centers.points), [mpf(v) for v in f.weights]
        mp_poly = [mpf(v) for v in f.poly_coeffs]
        return [(x, core.expansion(mp_centers, mp_weights, mp_poly, x,
                                   len(core.orders) if inner else 1))
                for x, inner in zip(_mp_rows(probes), inner_mask)]


def lu_solve(system: list, rhs: list, cond_estimate: float):
    """Solve ``system @ x = rhs`` (lists of mpf) by the operations of mpmath
    1.3's ``lu_solve``: 10 more bits, the row maximizing ``|a_kj| / sum_l |a_kl|``
    as pivot, tolerance ``mnorm(A, 1) * eps``. Returns ``(x, factors, pivots)``:
    the packed L\\U rows and the row swapped in at each step. A row sum or
    pivot at or below the tolerance raises SingularSystemError reporting
    ``cond_estimate``. The work runs on raw ``_mpf_`` tuples with the libmp
    calls the mpf operators make, in their order."""
    n = len(system)
    with mp.workprec(mp.prec + 10):
        prec, rnd = mp._prec_rounding
        tol = abs(max(mp.fsum((row[j] for row in system), absolute=1) for j in range(n))
                  * mp.eps)._mpf_
        a = [[v._mpf_ for v in row] for row in system]
        pivots = []
        for j in range(n):
            if j < n - 1:
                biggest, pivot = fzero, j
                for k in range(j, n):
                    # the entries carry at most prec bits, so |v| is exact
                    s = mpf_sum(a[k][j:], prec, rnd, True)
                    if mpf_le(s, tol):
                        raise SingularSystemError("mp LU row sum below tolerance", cond_estimate)
                    current = mpf_mul(mpf_rdiv_int(1, s, prec, rnd),
                                      mpf_abs(a[k][j], prec, rnd), prec, rnd)
                    if mpf_gt(current, biggest):
                        biggest, pivot = current, k
                a[j], a[pivot] = a[pivot], a[j]
                pivots.append(pivot)
            top = a[j]
            if mpf_le(mpf_abs(top[j], prec, rnd), tol):
                raise SingularSystemError(f"mp LU pivot {j} below tolerance", cond_estimate)
            tail = top[j + 1:]
            for row in a[j + 1:]:
                factor = row[j] = mpf_div(row[j], top[j], prec, rnd)
                row[j + 1:] = [mpf_sub(v, mpf_mul(factor, u, prec, rnd), prec, rnd)
                               for v, u in zip(row[j + 1:], tail)]
        x = [v._mpf_ for v in rhs]
        for k, p in enumerate(pivots):
            x[k], x[p] = x[p], x[k]
        for i in range(1, n):
            for j in range(i):
                x[i] = mpf_sub(x[i], mpf_mul(a[i][j], x[j], prec, rnd), prec, rnd)
        for i in range(n - 1, -1, -1):
            for j in range(i + 1, n):
                x[i] = mpf_sub(x[i], mpf_mul(a[i][j], x[j], prec, rnd), prec, rnd)
            x[i] = mpf_div(x[i], a[i][i], prec, rnd)
    make = mp.make_mpf
    return [make(v) for v in x], [[make(v) for v in row] for row in a], pivots


def measure_level(kernel: Kernel, centers: np.ndarray, weights: np.ndarray,
                  poly_coeffs: np.ndarray, nodes: np.ndarray, probes: np.ndarray,
                  inner_probes: np.ndarray, alphas: tuple[tuple[int, ...], ...],
                  f_on_probes: list, cond_estimate: float, core: MpCore) -> tuple[list, dict]:
    """Solve one refinement level and measure sup errors in mp arithmetic.

    The approximand (kernel expansion given by float centers, weights, and
    polynomial coefficients) is interpolated at the nodes; returns, as mpf,
    the sup of the value error over ``probes`` and then of each derivative
    error over ``inner_probes``. ``core``, built at the study's dps for
    ``kernel`` and ``alphas``, serves the Gram matrix, the right-hand side
    and the probe sweep, and sets the precision all of them run at.
    ``f_on_probes`` is ``approximand_on_probes`` of the same probes and core;
    ``cond_estimate`` is reported if the solve finds the system singular.
    With the sups comes a stats dict: the working ``dps``, the wall times
    ``assembly_s``, ``lu_s`` and ``sweep_s``, this level's ``pairs``
    lookups, the ``distinct`` memo entries they added and the memo's
    ``memo_size`` after them."""
    inner_count = sum(len(values) > 1 for _, values in f_on_probes)
    if len(f_on_probes) != len(probes) or (alphas and inner_count != len(inner_probes)):
        raise ValueError("f_on_probes does not match the probes and inner probes")
    if core.source != kernel or core.orders[1:] != tuple(tuple(a) for a in alphas):
        raise ValueError(f"MpCore of {core.source} and orders {core.orders[1:]} passed for "
                         f"{kernel} and orders {tuple(alphas)}")
    clock = time.perf_counter
    start = clock()
    size, lookups = len(core.memo), core.lookups
    with mp.workprec(core.prec):
        prec, rnd = mp._prec_rounding
        mp_centers, mp_weights = _mp_rows(centers), [mpf(v) for v in weights]
        mp_poly = [mpf(v) for v in poly_coeffs]
        mp_nodes = _mp_rows(nodes)
        n, q = len(mp_nodes), core.basis.size
        system = [[mpf(0)] * (n + q) for _ in range(n + q)]
        for i, xi in enumerate(mp_nodes):
            for j in range(i, n):
                diff = [a - b for a, b in zip(xi, mp_nodes[j])]
                system[i][j] = system[j][i] = core.kernel(diff, 1)[0]
            point = [v._mpf_ for v in xi]
            for k, mono in enumerate(core.monomials[0]):
                system[i][n + k] = system[n + k][i] = mp.make_mpf(
                    _poly_value(mono, point, prec, rnd))
        rhs = [core.expansion(mp_centers, mp_weights, mp_poly, x, 1)[0] for x in mp_nodes]
        assembled = clock()
        solution, _, _ = lu_solve(system, rhs + [mpf(0)] * q, cond_estimate)
        solved = clock()
        coeffs, sol_poly = solution[:n], solution[n:]
        worst = [mpf(0)] * len(core.orders)
        for x, f_values in f_on_probes:
            s_values = core.expansion(mp_nodes, coeffs, sol_poly, x, len(f_values))
            for k, (fv, sv) in enumerate(zip(f_values, s_values)):
                worst[k] = max(worst[k], abs(fv - sv))
        return worst, dict(dps=mp.dps, assembly_s=assembled - start, lu_s=solved - assembled,
                           sweep_s=clock() - solved, distinct=len(core.memo) - size,
                           pairs=core.lookups - lookups, memo_size=len(core.memo))


def estimate_condition(system: np.ndarray) -> float:
    """Double-precision 2-norm condition estimate, reported for visibility.

    Saturates around 1e16 and above, where double arithmetic can no longer
    distinguish magnitudes; values beyond that mark the system as beyond
    double-precision resolution rather than measuring it.
    """
    cond = float(np.linalg.cond(system))
    return cond if math.isfinite(cond) else float("inf")
