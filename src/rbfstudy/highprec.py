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
run at its precision. Every rounded operation names that precision and
round-to-nearest, so no step reads the caller's mpmath context, and cores
of several precisions can serve side by side. A core's memo is keyed on
a difference's per-axis absolute values (the ``_mpf_`` tuples less their
sign bits) and holds every order, so each distinct absolute difference
is evaluated once per study, across f and all levels. A difference of
two double coordinates is exact in mp, so a repeat returns the bits a
fresh evaluation gives. The sign is applied at lookup: every monomial of
``D^alpha phi(|x|^2)`` has alpha's parity on each axis and ``t`` is even,
so under round-to-nearest, which rounds ``-y`` to minus the rounding of
``y`` and has no ``-0``, reflecting an axis negates exactly the orders
whose alpha entries on the reflected axes sum to an odd number.
``measure_level`` refuses a core of another kernel or orders, and
``approximand_on_probes`` an f of another kernel.

One number format runs from float input to the returned sups. Each
expansion's floats are converted once, exactly: coordinates to raw
``_mpf_`` tuples per axis, weights and polynomial coefficients to
(signed mantissa, exponent) pairs. The core, the assembly, ``lu_solve``
and the sweep pass pairs; raw tuples appear only as ``mpmath.libmp``
arguments (the kernel body, memo keys, the LU's pivot search and
divisions), and ``mpf`` only in the sups ``measure_level`` returns. The
hot loops (expansion sums, LU row updates and substitutions) run on the
pairs' integer mantissas, each product and sum rounded half-even to the
working precision in the same order; a correctly rounded result is
unique (Muller et al., *Handbook of Floating-Point Arithmetic*, 2018,
ch. 2), so the bits are those of the libmp calls they replace.
"""

from __future__ import annotations

import itertools
import math
import time
from functools import cmp_to_key

import numpy as np
from mpmath import mp
from mpmath.libmp import (dps_to_prec, from_float, from_int, fzero, mpf_abs, mpf_add, mpf_cmp,
                          mpf_div, mpf_exp, mpf_gamma, mpf_gt, mpf_le, mpf_mul, mpf_neg, mpf_pow,
                          mpf_pow_int, mpf_rdiv_int, mpf_shift, mpf_sub, mpf_sum)
from mpmath.libmp import round_nearest as RN

from rbfstudy.interpolant import KernelExpansion, SingularSystemError
from rbfstudy.kernels import Kernel, KernelFamily, compiled_terms
from rbfstudy.polybasis import MonomialBasis


class MpCore:
    """Kernel and monomial derivatives of the orders ``(0,...,0) + alphas``
    at ``dps`` digits (``prec`` bits), rounded to nearest; ``count`` asks for
    the first ``count`` orders (1: the value). The terms and the monomial
    rule are the double path's, their numbers made raw ``_mpf_`` tuples.

    ``memo`` maps a difference's per-axis absolute values (each ``_mpf_``
    tuple less its sign bit) to the pairs of every order's kernel value
    there; a lookup flips order alpha exactly when the alpha entries of the
    negative axes sum to an odd number. ``lookups`` counts the differences
    asked for; ``source`` and ``orders`` name the kernel and orders served."""

    def __init__(self, kernel: Kernel, alphas, dps: int):
        self.dps = dps
        self.prec = prec = dps_to_prec(dps)
        self.memo, self.lookups = {}, 0
        self.source = kernel
        self.orders = ((0,) * kernel.dim,) + tuple(tuple(a) for a in alphas)
        self.gaussian = kernel.family is KernelFamily.GAUSSIAN
        # per order: kernels.compiled_terms with each coefficient raw
        self.terms = [[(j, None if poly is None else [
            (from_float(coeff), factors) for coeff, factors in poly
        ]) for j, poly in compiled_terms(kernel.dim, alpha)] for alpha in self.orders]
        self.profile_orders = sorted({j for terms in self.terms for j, _ in terms})
        # per pattern of sign bits over the axes: per order, whether it flips
        self.flips = {signs: [sum(a for a, s in zip(alpha, signs) if s) % 2
                              for alpha in self.orders]
                      for signs in itertools.product((0, 1), repeat=kernel.dim)}
        top = self.profile_orders[-1]
        # the constants by the calls the mpf operators and mp.gamma make at round-to-nearest
        if self.gaussian:
            self.neg_beta = mpf_neg(from_float(kernel.beta))
            self.scale = [mpf_pow_int(self.neg_beta, j, prec, RN) for j in range(top + 1)]
        else:
            self.shift = mpf_pow_int(from_float(kernel.c), 2, prec, RN)
            half = mpf_div(from_float(kernel.beta), from_int(2), prec, RN)
            self.power = [mpf_sub(half, from_int(j), prec, RN) for j in range(top + 1)]
            self.scale = [mpf_gamma(mpf_neg(half, prec, RN), prec, RN)]
            for p in self.power[:-1]:
                self.scale.append(mpf_mul(self.scale[-1], p, prec, RN))
        self.basis = MonomialBasis.for_cpd_order(kernel.dim, kernel.cpd_order)
        # per order, per basis monomial: its derivative by polybasis's rule
        # as a one-term poly (the integer factors' exact product), or None
        # where it vanishes
        self.monomials = [[None if rule is None else [(
            from_int(math.prod(rule[0])),
            tuple((axis, e) for axis, e in enumerate(rule[1]) if e),
        )] for rule in self.basis.derivative_rule(alpha)] for alpha in self.orders]

    def _evaluate(self, key) -> list:
        """The uncached kernel body: every order's value at the absolute
        difference ``key`` as a pair, memoized."""
        prec = self.prec
        diff = [(0,) + v for v in key]
        t = mpf_mul(diff[0], diff[0], prec, RN)
        for v in diff[1:]:
            t = mpf_add(t, mpf_mul(v, v, prec, RN), prec, RN)
        scale = self.scale
        if self.gaussian:
            e = mpf_exp(mpf_mul(self.neg_beta, t, prec, RN), prec, RN)
            profile = {j: mpf_mul(scale[j], e, prec, RN) if j else e
                       for j in self.profile_orders}
        else:
            t = mpf_add(self.shift, t, prec, RN)
            profile = {j: mpf_mul(scale[j], mpf_pow(t, self.power[j], prec, RN), prec, RN)
                       for j in self.profile_orders}
        out = []
        for terms in self.terms:
            total = None
            for j, poly in terms:
                value = profile[j] if poly is None else mpf_mul(
                    _poly_value(poly, diff, prec), profile[j], prec, RN)
                total = value if total is None else mpf_add(total, value, prec, RN)
            out.append(_pair(total))
        self.memo[key] = out
        return out

    def _lookup(self, point, axes) -> tuple:
        """Per center (``axes``: raw coordinates per axis), the memo's orders
        at the raw ``point`` less it and which of them its signs flip."""
        prec = self.prec
        diffs = [list(map(mpf_sub, itertools.repeat(xv), column, itertools.repeat(prec),
                          itertools.repeat(RN))) for xv, column in zip(point, axes)]
        memo = self.memo
        values = [memo.get(key) or self._evaluate(key)
                  for key in zip(*[[v[1:] for v in diff] for diff in diffs])]
        self.lookups += len(values)
        return values, map(self.flips.__getitem__, zip(*[[v[0] for v in diff] for diff in diffs]))

    def expansion(self, axes, weights, coeffs, point, count: int) -> list:
        """First ``count`` orders of ``sum_k weights[k] * kernel(point - center_k)``
        plus ``sum_i coeffs[i] * monomial_i(point)``, as pairs: ``axes`` holds
        the centers' raw coordinates per axis, ``weights`` and ``coeffs`` are
        pairs and ``point`` is raw."""
        prec = self.prec
        values, signs = self._lookup(point, axes)
        out = []
        # per order, the centers' terms in order (w * -v and -(w * v) round alike), then the basis's
        columns = zip(zip(*values), zip(*signs)) if values else [((), ())] * count
        for (column, negate), monos in zip(columns, self.monomials[:count]):
            tail = [(0, 0) if m is None else _pair(_poly_value(m, point, prec)) for m in monos]
            out.append(_dot(_dot((0, 0), weights, column, prec, negate), coeffs, tail, prec))
        return out


def _pair(raw) -> tuple:
    """A raw ``_mpf_`` tuple as (signed mantissa, exponent)."""
    return -raw[1] if raw[0] else raw[1], raw[2]


def _raw(man: int, exp: int) -> tuple:
    """(signed mantissa, exponent) as the normalized ``_mpf_`` tuple libmp reads."""
    if not man:
        return fzero
    sign, man = (1, -man) if man < 0 else (0, man)
    zeros = (man & -man).bit_length() - 1
    return sign, man >> zeros, exp + zeros, man.bit_length() - zeros


def _raw_rows(points) -> list:
    """Per point of the float array ``points`` (n, dim), its exact raw coordinates."""
    return [list(map(from_float, row)) for row in np.asarray(points, dtype=float).tolist()]


def _pairs(values) -> list:
    """The float array ``values`` as exact pairs."""
    return [_pair(from_float(v)) for v in np.asarray(values, dtype=float).tolist()]


def _dot(total, xs, ys, prec, negate=itertools.repeat(0)) -> tuple:
    """``total`` plus each ``x * y`` in turn, negated where ``negate`` is
    true, on (signed mantissa, exponent) pairs, each product and each sum
    rounded half-even to ``prec`` bits. A correctly rounded result is unique,
    so for a ``total`` that fits in ``prec`` bits these are the bits of
    ``total = mpf_add(total, mpf_mul(x, +-y, prec, rnd), prec, rnd)``."""
    tm, te = total
    for (xm, xe), (ym, ye), neg in zip(xs, ys, negate):
        p, e = (-xm if neg else xm) * ym, xe + ye
        if not p:
            continue
        if (n := p.bit_length() - prec) > 0:
            r = p >> n - 1
            p, e = (r >> 1) + 1 if r & 1 and (r & 2 or p != r << n - 1) else r >> 1, e + n
        if tm:
            if te < e:
                tm, te, p, e = p, e, tm, te
            p += tm << te - e
            if (n := p.bit_length() - prec) > 0:
                r = p >> n - 1
                p, e = (r >> 1) + 1 if r & 1 and (r & 2 or p != r << n - 1) else r >> 1, e + n
        tm, te = p, e
    return tm, te


def _axpy(row, factor, tail, prec) -> list:
    """``v + factor * u`` for each raw entry v of ``row`` and pair u of
    ``tail``, rounded as ``_dot`` rounds, as normalized raw tuples."""
    fm, fe = factor
    out = []
    for v, (um, ue) in zip(row, tail):
        p, e = fm * um, fe + ue
        if p:
            if (n := p.bit_length() - prec) > 0:
                r = p >> n - 1
                p, e = (r >> 1) + 1 if r & 1 and (r & 2 or p != r << n - 1) else r >> 1, e + n
            sign, tm, te, _ = v
            if tm:
                tm = -tm if sign else tm
                if te < e:
                    tm, te, p, e = p, e, tm, te
                p += tm << te - e
                if (n := p.bit_length() - prec) > 0:
                    r = p >> n - 1
                    p, e = (r >> 1) + 1 if r & 1 and (r & 2 or p != r << n - 1) else r >> 1, e + n
            v = _raw(p, e)
        out.append(v)
    return out


def _poly_value(poly, x, prec):
    """``poly`` at the raw point ``x``, by the calls the mpf operators make."""
    total = None
    for coeff, powers in poly:
        term = coeff
        for axis, e in powers:
            term = mpf_mul(term, x[axis] if e == 1 else mpf_pow_int(x[axis], e, prec, RN),
                           prec, RN)
        total = term if total is None else mpf_add(total, term, prec, RN)
    return total


def approximand_on_probes(core: MpCore, f: KernelExpansion, probes, inner_mask) -> list:
    """The approximand f in mp, once per study, for ``measure_level``: per
    probe, its raw coordinates and f's value, then at inner probes each of
    ``core``'s derivatives, as pairs at the precision ``core`` was built at.
    f's kernel must be the one ``core`` serves."""
    if f.kernel != core.source:
        raise ValueError(f"MpCore of {core.source} passed for an expansion of {f.kernel}")
    axes = list(zip(*_raw_rows(f.centers.points)))
    weights, coeffs = _pairs(f.weights), _pairs(f.poly_coeffs)
    return [(x, core.expansion(axes, weights, coeffs, x, len(core.orders) if inner else 1))
            for x, inner in zip(_raw_rows(probes), inner_mask)]


def lu_solve(system: list, rhs: list, prec: int, cond_estimate: float):
    """Solve ``system @ x = rhs`` (lists of pairs) by the operations of
    mpmath 1.3's ``lu_solve`` at working precision ``prec``, rounded to
    nearest: 10 more bits, the row maximizing ``|a_kj| / sum_l |a_kl|`` as
    pivot, tolerance ``mnorm(A, 1) * eps``. Returns ``(x, factors, pivots)``:
    x as pairs, the packed L\\U rows as raw tuples (which the pivot search
    and the divisions read) and the row swapped in at each step. A row sum
    or pivot at or below the tolerance raises SingularSystemError reporting
    ``cond_estimate``. Row updates and substitutions run on the pairs."""
    n = len(system)
    prec += 10
    a = [[_raw(*v) for v in row] for row in system]
    # the entries carry at most prec bits, so each |v| is exact; eps = 2^(1 - prec)
    tol = mpf_shift(max((mpf_sum([row[j] for row in a], prec, RN, True) for j in range(n)),
                        key=cmp_to_key(mpf_cmp)), 1 - prec)
    pivots = []
    for j in range(n):
        if j < n - 1:
            biggest, pivot = fzero, j
            for k in range(j, n):
                s = mpf_sum(a[k][j:], prec, RN, True)
                if mpf_le(s, tol):
                    raise SingularSystemError("mp LU row sum below tolerance", cond_estimate)
                current = mpf_mul(mpf_rdiv_int(1, s, prec, RN), mpf_abs(a[k][j]), prec, RN)
                if mpf_gt(current, biggest):
                    biggest, pivot = current, k
            a[j], a[pivot] = a[pivot], a[j]
            pivots.append(pivot)
        top = a[j]
        if mpf_le(mpf_abs(top[j]), tol):
            raise SingularSystemError(f"mp LU pivot {j} below tolerance", cond_estimate)
        tail = [_pair(u) for u in top[j + 1:]]
        for row in a[j + 1:]:
            factor = row[j] = mpf_div(row[j], top[j], prec, RN)
            if factor[1]:
                # v - factor * u, as RN(-y) = -RN(y)
                row[j + 1:] = _axpy(row[j + 1:], _pair(mpf_neg(factor)), tail, prec)
    x = list(rhs)
    for k, p in enumerate(pivots):
        x[k], x[p] = x[p], x[k]
    for i in range(1, n):
        x[i] = _dot(x[i], map(_pair, a[i][:i]), x[:i], prec, itertools.repeat(1))
    for i in range(n - 1, -1, -1):
        x[i] = _dot(x[i], map(_pair, a[i][i + 1:]), x[i + 1:], prec, itertools.repeat(1))
        x[i] = _pair(mpf_div(_raw(*x[i]), a[i][i], prec, RN))
    return x, a, pivots


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
    size, lookups, prec = len(core.memo), core.lookups, core.prec
    rows = _raw_rows(nodes)
    axes = list(zip(*rows))
    n, q = len(rows), core.basis.size
    system = [[(0, 0)] * (n + q) for _ in range(n + q)]
    for i, point in enumerate(rows):
        # the value order never flips
        values, _ = core._lookup(point, [column[i:] for column in axes])
        for j, value in enumerate(values, i):
            system[i][j] = system[j][i] = value[0]
        for k, mono in enumerate(core.monomials[0]):
            system[i][n + k] = system[n + k][i] = _pair(_poly_value(mono, point, prec))
    f_axes = list(zip(*_raw_rows(centers)))
    f_weights, f_coeffs = _pairs(weights), _pairs(poly_coeffs)
    rhs = [core.expansion(f_axes, f_weights, f_coeffs, x, 1)[0] for x in rows]
    assembled = clock()
    solution, _, _ = lu_solve(system, rhs + [(0, 0)] * q, prec, cond_estimate)
    solved = clock()
    coeffs, sol_poly = solution[:n], solution[n:]
    worst = [fzero] * len(core.orders)
    for x, f_values in f_on_probes:
        s_values = core.expansion(axes, coeffs, sol_poly, x, len(f_values))
        for k, (fv, sv) in enumerate(zip(f_values, s_values)):
            error = mpf_abs(mpf_sub(_raw(*fv), _raw(*sv), prec, RN))
            if mpf_gt(error, worst[k]):
                worst[k] = error
    return [mp.make_mpf(v) for v in worst], dict(
        dps=core.dps, assembly_s=assembled - start, lu_s=solved - assembled,
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
