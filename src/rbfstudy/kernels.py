"""Multiquadric-family and Gaussian radial kernels with analytic derivatives.

Both families are radial profiles of the squared-distance argument
``t(x) = c**2 + |x|**2`` (``c = 0`` for the Gaussian):

* multiquadric family: ``gamma(-beta/2) * t**(beta/2)``, ``beta`` real and
  not a non-negative even integer, ``c > 0``;
* Gaussian: ``exp(-beta * t)``, ``beta > 0``.

Partial derivatives of any multi-index order are exact: a derivative is a
finite sum of terms ``poly(x) * profile_deriv_j(t(x))``, built once per
``(dim, order)`` by a symbolic recursion and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from rbfstudy.configvalues import number

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
    holds only the arrays its derivative order uses, and later blocks
    allocate nothing of block size.
    """

    def __init__(self, rows: int, shape: tuple[int, ...] = ()):
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
        Shape parameter, > 0. Multiquadric only; unused for the Gaussian.
    """

    family: KernelFamily
    beta: float
    dim: int
    c: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not np.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if self.family is KernelFamily.MULTIQUADRIC:
            if _is_nonnegative_even_integer(self.beta):
                raise ValueError(
                    f"multiquadric beta must not be a non-negative even integer, got {self.beta}"
                )
            if self.c is None or not (self.c > 0.0):
                raise ValueError(f"multiquadric requires c > 0, got {self.c}")
        elif self.family is KernelFamily.GAUSSIAN:
            if not (self.beta > 0.0):
                raise ValueError(f"gaussian requires beta > 0, got {self.beta}")
        else:
            raise ValueError(f"unknown kernel family {self.family!r}")

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

    def _shift(self) -> float:
        return self.c**2 if self.family is KernelFamily.MULTIQUADRIC else 0.0

    def _profile_deriv(self, j: int, t: np.ndarray, out: np.ndarray) -> np.ndarray:
        """j-th derivative of the radial profile at t = c**2 + |x|**2,
        written into ``out``, which may be t itself."""
        if self.family is KernelFamily.GAUSSIAN:
            np.multiply(t, -self.beta, out=out)
            np.exp(out, out=out)
            out *= (-self.beta) ** j
            return out
        half = self.beta / 2.0
        coeff = math.gamma(-half)
        for i in range(j):
            coeff *= half - i
        _power(t, half - j, out)
        out *= coeff
        return out

    def evaluate(self, x) -> float | np.ndarray:
        """Kernel value at x.

        x may be a single point of shape (dim,) or a batch (..., dim);
        the result drops the last axis. Note the multiquadric carries its
        gamma prefactor, which is negative for 0 < beta < 2.
        """
        return self._at_points((0,) * self.dim, x)

    def evaluate_derivative(self, alpha, x) -> float | np.ndarray:
        """Partial derivative of the kernel of multi-index order alpha at x.

        Exact evaluation via cached symbolic term lists. alpha of all zeros
        reduces to ``evaluate``. Raises UnsupportedOrderError when
        ``sum(alpha)`` exceeds MAX_DERIVATIVE_ORDER.
        """
        return self._at_points(self._check_order(alpha), x)

    def cross(self, alpha, x, centers) -> np.ndarray:
        """alpha-derivative of the kernel at every difference ``x_i - z_j``.

        x (n, dim) and centers (m, dim) give an (n, m) matrix, filled in row
        blocks of about EVAL_BLOCK_PAIRS pairs that share one Workspace, so
        the kernel core's arrays do not grow with the matrix and are
        allocated once. Each block is built from one contiguous difference
        plane per axis rather than an (n, m, dim) tensor. The order and the
        points are checked once, not per block.
        """
        orders = [self._check_order(alpha)]
        x, centers = self._check_points(x), self._check_points(centers)
        out = np.empty((len(x), len(centers)))
        step = max(1, EVAL_BLOCK_PAIRS // max(1, len(centers)))
        work = Workspace(min(step, len(x)), (len(centers),))
        for start in range(0, len(x), step):
            out[start:start + step] = self._cross(orders, x[start:start + step], centers, work)[0]
        return out

    def _cross(self, orders: list, x: np.ndarray, centers: np.ndarray, work: Workspace) -> list:
        """``cross`` of every order in ``orders`` in one pass, one matrix each.

        The planes and every intermediate live in ``work``, a Workspace of
        at least len(x) rows of (len(centers),), and each result is a view
        into it, valid until its next use. A caller walking blocks passes
        one workspace to every block, so no block allocates, and no block's
        pages are returned to the kernel and faulted in again by the next.
        Nothing is checked here: such a caller checks its orders, points and
        centers once and calls this for each block.
        """
        # Each plane is one subtraction of two contiguous arrays, filled by
        # broadcast copies: a broadcasting subtraction ran slower and made
        # numpy allocate its iteration buffers at every call.
        columns = np.ascontiguousarray(centers.T)
        scratch = work.get("scratch", len(x))
        planes = []
        for i in range(self.dim):
            plane = work.get(f"plane{i}", len(x))
            np.copyto(plane, x[:, i, None])
            np.copyto(scratch, columns[i])
            planes.append(np.subtract(plane, scratch, out=plane))
        return self._derivative_on_planes(orders, planes, work)

    def gram(self, points: np.ndarray) -> np.ndarray:
        """Symmetric matrix of kernel values on all pairwise differences."""
        return self.cross((0,) * self.dim, points, points)

    def _at_points(self, alpha: tuple[int, ...], x) -> float | np.ndarray:
        x = self._check_points(x)
        flat = x.reshape(-1, self.dim)
        planes = [flat[:, i] for i in range(self.dim)]
        out = self._derivative_on_planes([alpha], planes, Workspace(len(flat)))[0]
        out = out.reshape(x.shape[:-1])
        return float(out) if out.ndim == 0 else out

    def _derivative_on_planes(self, orders: list, planes: list, work: Workspace) -> list:
        """The kernel core: the derivative of each order in ``orders`` at the
        differences whose axis-i components are ``planes[i]``, each of r rows.

        One pass serves every order. ``t`` is built once. Each profile
        derivative j that any order's terms use is computed once, into an
        array of its own, and shared by those orders. Each order's result
        is the sum, in term order, of ``profile_j * poly`` over its terms,
        written into an array of its own, while the planes, ``t`` and the
        profiles are only read. So each result repeats the operations, in
        the same order, of the allocating formula
        ``sum(profile_j(t) * poly(planes))`` for its order alone, and has
        the same bits whatever other orders share the pass (``a * b`` and
        ``b * a`` round alike). ``t`` is summed axis by axis in increasing
        order, which reproduces ``np.sum(x * x, axis=-1)`` bit for bit.

        Every array is written into the first r rows of ``work``, and each
        result is a view into it, valid until the workspace's next use.
        """
        r = len(planes[0])
        t = np.multiply(planes[0], planes[0], out=work.get("t", r))
        for plane in planes[1:]:
            t += np.multiply(plane, plane, out=work.get("scratch", r))
        t += self._shift()
        term_lists = [derivative_terms(self.dim, alpha) for alpha in orders]
        js = sorted({term.deriv_order for terms in term_lists for term in terms})
        profiles = {}
        for j in js:
            # Profiles read only t, and every one is computed before any
            # result, so the last one may overwrite t.
            out = t if j == js[-1] else work.get(f"profile{j}", r)
            profiles[j] = self._profile_deriv(j, t, out)
        one = {(0,) * self.dim: 1.0}
        results = []
        for k, terms in enumerate(term_lists):
            out = None
            for term in terms:
                profile = profiles[term.deriv_order]
                if term.poly == one:
                    # The value, alpha = 0, has this one term only: its
                    # profile is the result, and no later step writes it.
                    out = profile
                    continue
                value = work.get(f"order{k}" if out is None else "value", r)
                np.multiply(profile, _eval_poly(term.poly, planes, work), out=value)
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
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 and self.dim == 1:
            x = x.reshape(1)
        if x.shape[-1] != self.dim:
            raise ValueError(f"point dimension {x.shape[-1]} != kernel dim {self.dim}")
        if not np.all(np.isfinite(x)):
            raise ValueError("kernel argument must be finite")
        return x

    def to_dict(self) -> dict:
        d = {"family": self.family.value, "beta": self.beta, "dim": self.dim}
        if self.family is KernelFamily.MULTIQUADRIC:
            d["c"] = self.c
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Kernel":
        family, dim = KernelFamily(d["family"]), d["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise ValueError(f"kernel dim must be an integer, got {dim!r}")
        c = d.get("c")
        return cls(family, number("kernel.beta", d["beta"]), dim,
                   None if c is None else number("kernel.c", c))


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


def _eval_poly(poly: dict, planes: list, work: Workspace) -> np.ndarray | float:
    """Polynomial value at the differences whose axis-i components are planes[i].

    Repeats ``sum(coeff * planes[0]**e0 * planes[1]**e1 ...)``, summed left
    to right, operation for operation in the rows of ``work``. Every
    monomial of a derivative term has degree ``2*j - sum(alpha)``, so a
    polynomial with a constant monomial is that constant, returned as a float.
    """
    r = len(planes[0])
    out = None
    for expo, coeff in poly.items():
        factors = [(plane, e) for plane, e in zip(planes, expo) if e]
        if not factors:
            return coeff
        term = work.get("scratch" if out is None else "term", r)
        (plane, e), factors = factors[0], factors[1:]
        if e == 1:
            np.multiply(plane, coeff, out=term)
        else:
            _power(plane, e, term)
            term *= coeff
        for plane, e in factors:
            term *= plane if e == 1 else _power(plane, e, work.get("power", r))
        if out is None:
            out = term
        else:
            out += term
    return out
