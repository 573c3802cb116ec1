"""Multiquadric-family and Gaussian radial kernels with analytic derivatives.

Both families are radial profiles of the squared-distance argument
``t(x) = c**2 + |x|**2`` (``c = 0`` for the Gaussian):

* multiquadric family: ``gamma(-beta/2) * t**(beta/2)``, ``beta`` real and
  not a non-negative even integer, ``c > 0``;
* Gaussian: ``exp(-beta * t)``, ``beta > 0``.

Partial derivatives of any multi-index order are exact: a derivative is a
finite sum of terms ``poly(x) * profile_deriv_j(t(x))``, built once per
``(dim, order)`` by a symbolic recursion and compiled once, by
``compiled_terms``, for the double core here and the mp core in ``highprec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from rbfstudy.configvalues import check, choice, integer, key, number, read, write

# Cap on supported total derivative order; term lists grow quickly past this.
MAX_DERIVATIVE_ORDER = 6

# Point-center pairs per block of kernel evaluation (cross rows, expansion
# probes): each float64 array of a block's Workspace takes 256 KB, whatever
# the number of points. One Workspace serves every block of a call, so the
# block loop allocates nothing of block size. Fresh arrays per block made
# glibc hand their pages back to the kernel after each block (by munmap or
# by trimming the heap) and fault them in again, zero-filled, in the next:
# about half of the evaluation time went to page faults. With one
# Workspace, blocks of 2**13 to 2**18 pairs ran a 2D evaluation study in
# 0.42, 0.35, 0.33, 0.34, 0.38 and 0.40 s on a host with 2 MiB of L2 cache
# per core: at 2**15 the few arrays a block uses stay in that cache.
EVAL_BLOCK_PAIRS = 2**15


class KernelFamily(str, Enum):
    MULTIQUADRIC = "multiquadric"
    GAUSSIAN = "gaussian"


class UnsupportedOrderError(ValueError):
    """Requested derivative order exceeds the configured cap."""


class Workspace:
    """Scratch arrays of the kernel core, reused from block to block.

    Each array holds ``rows`` rows of ``shape``; a block of r <= rows rows
    works in the first r rows of each, which are contiguous. An array is
    allocated the first time a block asks for its role, so a workspace
    holds only the arrays its derivative orders use, and later blocks
    allocate nothing of block size. ``Kernel.blocks`` sizes one per call.
    """

    def __init__(self, rows: int, shape: tuple[int, ...]):
        self.rows, self.shape = rows, tuple(shape)
        self._arrays: dict[str, np.ndarray] = {}

    def get(self, role: str, r: int) -> np.ndarray:
        """The first r rows of the array kept for ``role``."""
        array = self._arrays.get(role)
        if array is None:
            array = self._arrays[role] = np.empty((self.rows,) + self.shape)
        return array[:r]


def _power(base: np.ndarray, e, out: np.ndarray) -> np.ndarray:
    """``base**e`` written into out.

    The in-place operator takes the same scalar fast paths as ``base**e``
    (``** 0.5`` is ``sqrt``, ``** 2`` is ``square``), which a call of
    ``np.power`` with ``out=`` would not.
    """
    if out is not base:
        np.copyto(out, base)
    out **= e
    return out


def _is_nonnegative_even_integer(beta: float) -> bool:
    return beta >= 0.0 and float(beta).is_integer() and int(beta) % 2 == 0


@dataclass(frozen=True)
class Kernel:
    """A radial kernel specification.

    Parameters
    ----------
    family : KernelFamily
        Multiquadric family or Gaussian.
    beta : float
        Exponent parameter. Multiquadric: any real except the non-negative
        even integers. Gaussian: strictly positive.
    dim : int
        Spatial dimension of the argument, >= 1.
    c : float or None
        Shape parameter, > 0. Multiquadric only; None for the Gaussian.
    """

    family: KernelFamily = key("family", choice(*KernelFamily))
    beta: float = key("beta", number)
    dim: int = key("dim", integer(1))
    c: float | None = key("c", number, None)

    def __post_init__(self):
        check(self, "kernel")
        if not np.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if self.family is KernelFamily.MULTIQUADRIC:
            if _is_nonnegative_even_integer(self.beta):
                raise ValueError(
                    f"multiquadric beta must not be a non-negative even integer, got {self.beta}"
                )
            if self.c is None or not (self.c > 0.0):
                raise ValueError(f"a multiquadric kernel needs kernel.c > 0, got {self.c}")
        elif not (self.beta > 0.0):
            raise ValueError(f"gaussian requires beta > 0, got {self.beta}")
        elif self.c is not None:
            raise ValueError(f"a gaussian kernel takes no kernel.c, got {self.c}")

    @classmethod
    def multiquadric(cls, beta: float, c: float, dim: int) -> "Kernel":
        return cls(KernelFamily.MULTIQUADRIC, beta, dim, c)

    @classmethod
    def gaussian(cls, beta: float, dim: int) -> "Kernel":
        return cls(KernelFamily.GAUSSIAN, beta, dim)

    @property
    def cpd_order(self) -> int:
        """Order of conditional positive definiteness.

        Multiquadric: ``ceil(beta/2)`` for positive beta, 0 for negative.
        Gaussian: 0.
        """
        if self.family is KernelFamily.GAUSSIAN:
            return 0
        if self.beta < 0.0:
            return 0
        return math.ceil(self.beta / 2.0)

    def evaluate(self, x) -> float | np.ndarray:
        """Kernel value at x.

        x may be a single point of shape (dim,) or a batch (..., dim);
        the result drops the last axis. Note the multiquadric carries its
        gamma prefactor, which is negative for 0 < beta < 2.
        """
        return self.evaluate_derivative((0,) * self.dim, x)

    def evaluate_derivative(self, alpha, x) -> float | np.ndarray:
        """Partial derivative of the kernel of multi-index order alpha at x.

        Exact evaluation via cached symbolic term lists. alpha of all zeros
        reduces to ``evaluate``. Raises UnsupportedOrderError when
        ``sum(alpha)`` exceeds MAX_DERIVATIVE_ORDER. The points are the rows
        of a ``cross`` with one center at the origin (``x - 0.0`` is ``x``).
        """
        x = self._check_points(x)
        out = self._fill(alpha, x.reshape(-1, self.dim), np.zeros((1, self.dim)))
        out = out.reshape(x.shape[:-1])
        return float(out) if out.ndim == 0 else out

    def cross(self, alpha, x, centers) -> np.ndarray:
        """alpha-derivative of the kernel at every difference ``x_i - z_j``.

        x (n, dim) and centers (m, dim) give an (n, m) matrix, filled block
        by block from ``blocks``, so the kernel core's arrays do not grow
        with the matrix.
        """
        return self._fill(alpha, self._check_points(x), self._check_points(centers))

    def gram(self, points: np.ndarray, out=None) -> np.ndarray:
        """Symmetric matrix of kernel values on all pairwise differences (a
        ``cross`` of the points with themselves), written into ``out`` when it
        is given, an (n, n) array or view, and returned."""
        points = self._check_points(points)
        return self._fill((0,) * self.dim, points, points, out)

    def _fill(self, alpha, x: np.ndarray, centers: np.ndarray, out=None) -> np.ndarray:
        """``cross`` of points and centers that ``_check_points`` passed."""
        for points in (x, centers):
            if points.ndim != 2:
                raise ValueError(f"expected points of shape (n, {self.dim}), got {points.shape}")
        if out is None:
            out = np.empty((len(x), len(centers)))
        elif out.shape != (len(x), len(centers)):
            raise ValueError(f"out has shape {out.shape}, expected {(len(x), len(centers))}")
        for rows, (matrix,) in self.blocks([alpha], x, centers):
            out[rows] = matrix
        return out

    def blocks(self, orders, x, centers):
        """Walk the rows of x (n, dim) against centers (m, dim): yield
        ``(rows, matrices)`` per block of about EVAL_BLOCK_PAIRS pairs, a
        slice of the rows of x and the block's ``cross`` of each order in
        ``orders``, in order.

        The orders are checked and the cached ``_block_program`` is fetched
        once, and every block runs it in one Workspace, so no block
        allocates or faults in pages the last returned. The points are not
        checked here: the caller passes finite arrays of shape (n, dim) and
        (m, dim), checked once per call by ``_check_points``. The matrices
        are views into the workspace, valid until the next block. The
        partition depends on the number of centers only, not on the orders.
        """
        program = _block_program(self, tuple(self._check_order(alpha) for alpha in orders))
        step = max(1, EVAL_BLOCK_PAIRS // max(1, len(centers)))
        work = Workspace(min(step, len(x)), (len(centers),))
        for start in range(0, len(x), step):
            rows = slice(start, start + step)
            yield rows, self._cross(program, x[rows], centers, work)

    def _cross(self, program: tuple, x: np.ndarray, centers: np.ndarray, work: Workspace) -> list:
        """The kernel core: ``cross`` of every order of a ``_block_program``
        in one pass, one matrix each.

        The planes and every intermediate live in ``work``, a Workspace of
        at least len(x) rows of (len(centers),), and each result is a view
        into it, valid until its next use. Nothing is checked here:
        ``blocks`` checks its orders once and calls this for each block.

        One pass serves every order. ``t`` is built once. Each profile
        derivative j that any order's terms use is computed once, into an
        array of its own, shared by those orders (exponents 1/2 and -1/2 by
        one square root). Each order's result is the sum, in term order, of
        ``profile_j * poly`` over its terms, into an array of its own, while
        the planes, ``t`` and the profiles are only read. So each result
        repeats the operations, in order, of the allocating formula
        ``sum(profile_j(t) * poly(planes))`` for its order alone, and has the
        same bits whatever other orders share the pass (``a * b`` and ``b *
        a`` round alike). ``t`` is summed axis by axis in increasing order,
        which reproduces ``np.sum(x * x, axis=-1)`` bit for bit.
        """
        shift, steps, order_terms = program
        r = len(x)
        # Each plane is one subtraction of two contiguous arrays, filled by
        # broadcast copies: a broadcasting subtraction ran slower and made
        # numpy allocate its iteration buffers at every call.
        columns = np.ascontiguousarray(centers.T)
        scratch = work.get("scratch", r)
        planes = []
        for i in range(self.dim):
            plane = work.get(f"plane{i}", r)
            np.copyto(plane, x[:, i, None])
            np.copyto(scratch, columns[i])
            planes.append(np.subtract(plane, scratch, out=plane))
        t = np.multiply(planes[0], planes[0], out=work.get("t", r))
        for plane in planes[1:]:
            t += np.multiply(plane, plane, out=scratch)
        t += shift
        profiles = {}
        for kind, args, coeffs, js, roles in steps:
            # Profiles read only t, and every one is computed before any
            # result, so the last one (role None) may overwrite t.
            outs = [t if role is None else work.get(role, r) for role in roles]
            _run_profiles(kind, args, coeffs, t, outs)
            profiles.update(zip(js, outs))
        results = []
        for role, terms in order_terms:
            out = None
            for j, monomials in terms:
                if monomials is None:
                    # The value, alpha = 0, has this one term only: its
                    # profile is the result, and no later step writes it.
                    out = profiles[j]
                    continue
                value = work.get(role if out is None else "value", r)
                np.multiply(profiles[j], _eval_poly(monomials, planes, work), out=value)
                if out is None:
                    out = value
                else:
                    out += value
            results.append(out)
        return results

    def _check_order(self, alpha) -> tuple[int, ...]:
        alpha = _check_multi_index(alpha, self.dim)
        if sum(alpha) > MAX_DERIVATIVE_ORDER:
            raise UnsupportedOrderError(
                f"derivative order {sum(alpha)} exceeds cap {MAX_DERIVATIVE_ORDER}"
            )
        return alpha

    def _check_points(self, x) -> np.ndarray:
        # A scalar is a point of dimension 1.
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.dim:
            raise ValueError(f"point dimension {x.shape[-1]} != kernel dim {self.dim}")
        if not np.all(np.isfinite(x)):
            raise ValueError("kernel argument must be finite")
        return x

    to_dict = write

    @classmethod
    def from_dict(cls, d: dict) -> "Kernel":
        return read(cls, d, "kernel")


def _check_multi_index(alpha, dim: int) -> tuple[int, ...]:
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    if len(alpha) != dim:
        raise ValueError(f"multi-index length {len(alpha)} != dim {dim}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index entries must be non-negative, got {alpha}")
    return alpha


class RadialProfileTerm(NamedTuple):
    """One term poly(x) * profile_deriv_j(t(x)) of a kernel derivative.

    The polynomial is stored as an exponent-tuple -> coefficient map.
    """

    poly: dict
    deriv_order: int


# Term lists are built as {deriv_order j: polynomial dict} and frozen into
# RadialProfileTerm tuples once complete.

def _differentiate_terms(terms: dict, axis: int) -> dict:
    """One partial derivative of a term list along the given axis.

    d/dx_i [poly * g_j(t)] = (d poly/dx_i) * g_j + 2 x_i poly * g_{j+1}.
    """
    out: dict[int, dict[tuple, float]] = {}

    def add(j, expo, coeff):
        if coeff == 0.0:
            return
        poly = out.setdefault(j, {})
        poly[expo] = poly.get(expo, 0.0) + coeff

    for j, poly in terms.items():
        for expo, coeff in poly.items():
            if expo[axis] > 0:
                lowered = list(expo)
                lowered[axis] -= 1
                add(j, tuple(lowered), coeff * expo[axis])
            raised = list(expo)
            raised[axis] += 1
            add(j + 1, tuple(raised), 2.0 * coeff)
    return out


@lru_cache(maxsize=None)
def derivative_terms(dim: int, alpha: tuple[int, ...]) -> tuple[RadialProfileTerm, ...]:
    """Term list for the alpha-derivative of a radial profile of
    t = c**2 + |x|**2.

    Independent of the kernel family and parameters, so the cache is shared
    across kernels of the same dimension. Terms come out in ascending
    profile-derivative order, which never exceeds sum(alpha).
    """
    terms: dict[int, dict[tuple, float]] = {0: {tuple([0] * dim): 1.0}}
    for axis, order in enumerate(alpha):
        for _ in range(order):
            terms = _differentiate_terms(terms, axis)
    return tuple(
        RadialProfileTerm(dict(poly), j) for j, poly in sorted(terms.items())
    )


@lru_cache(maxsize=None)
def compiled_terms(dim: int, alpha: tuple[int, ...]) -> tuple:
    """``derivative_terms(dim, alpha)`` as the kernel cores of both
    precisions run it: per term, ``(j, monomials)``, where monomials is None
    for the value's one term (profile_j itself, its polynomial being 1),
    else one ``(coeff, ((axis, e), ...))`` per monomial, listing only the
    axes of nonzero exponent."""
    one = {(0,) * dim: 1.0}
    return tuple((term.deriv_order, None if term.poly == one else tuple(
        (coeff, tuple((axis, e) for axis, e in enumerate(expo) if e))
        for expo, coeff in term.poly.items())) for term in derivative_terms(dim, alpha))


@lru_cache(maxsize=None)
def _block_program(kernel: Kernel, orders: tuple) -> tuple:
    """What the kernel core runs on each block: ``(c**2, steps, terms)``. A
    step ``(kind, args, coeffs, js, roles)`` writes profiles js ("exp",
    "pow" of exponent beta/2 - j, or "root": 1/2 and -1/2 from one sqrt)
    into roles (None: ``t``). gamma(-beta/2) * prod_{i<j} (beta/2 - i) is
    rounded once from 40 digits: ``math.gamma`` is up to 1.8 ulp off. Per
    order, ``terms`` holds a role and its ``compiled_terms``."""
    import mpmath
    term_lists = [compiled_terms(kernel.dim, alpha) for alpha in orders]
    js = sorted({j for terms in term_lists for j, _ in terms})
    half, steps = mpmath.mpf(kernel.beta) / 2, {}
    for j, role in zip(js, [f"profile{j}" for j in js[:-1]] + [None]):
        if kernel.family is KernelFamily.GAUSSIAN:
            kind, arg, coeff = "exp", kernel.beta, (-kernel.beta) ** j
        else:
            arg = kernel.beta / 2.0 - j
            kind = "root" if abs(arg) == 0.5 else "pow"
            with mpmath.workdps(40):
                coeff = float(mpmath.gamma(-half) * mpmath.fprod(half - i for i in range(j)))
        key = "root" if kind == "root" else j
        fields = steps.get(key, (kind, (), (), (), ()))[1:]
        steps[key] = (kind, *(f + (v,) for f, v in zip(fields, (arg, coeff, j, role))))
    terms = tuple((f"order{k}", term_list) for k, term_list in enumerate(term_lists))
    shift = kernel.c**2 if kernel.family is KernelFamily.MULTIQUADRIC else 0.0
    return shift, tuple(steps.values()), terms


def _run_profiles(kind: str, args: tuple, coeffs: tuple, t: np.ndarray, outs: list) -> None:
    """One profile step of a block program, from t into outs."""
    out = outs[0]
    if kind == "root":
        # The quotient reads the root before the root is scaled in place.
        np.sqrt(t, out=out)
        if args[-1] < 0:
            np.divide(coeffs[-1], out, out=outs[-1])
        if args[0] < 0:
            return
    elif kind == "exp":
        np.exp(np.multiply(t, -args[0], out=out), out=out)
    else:
        _power(t, args[0], out)
    out *= coeffs[0]


def _eval_poly(monomials: tuple, planes: list, work: Workspace) -> np.ndarray | float:
    """Polynomial value at the differences whose axis-i components are planes[i].

    Repeats ``sum(coeff * planes[0]**e0 * planes[1]**e1 ...)``, summed left
    to right, operation for operation in the rows of ``work``. Every
    monomial of a derivative term has degree ``2*j - sum(alpha)``, so a
    polynomial with a constant monomial is that constant, returned as a float.
    """
    r = len(planes[0])
    out = None
    for coeff, factors in monomials:
        if not factors:
            return coeff
        term = work.get("scratch" if out is None else "term", r)
        (axis, e), factors = factors[0], factors[1:]
        if e == 1:
            np.multiply(planes[axis], coeff, out=term)
        else:
            _power(planes[axis], e, term)
            term *= coeff
        for axis, e in factors:
            term *= planes[axis] if e == 1 else _power(planes[axis], e, work.get("power", r))
        if out is None:
            out = term
        else:
            out += term
    return out
