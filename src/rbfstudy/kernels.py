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

# Cap on supported total derivative order; term lists grow quickly past this.
MAX_DERIVATIVE_ORDER = 6

# Point-center pairs per block of kernel evaluation (Gram rows, expansion
# probes): each float64 temporary of a block takes 1 MB, whatever the
# number of points. Blocks of 2**19 pairs and more ran about 1.7x slower on
# a host with 2 MiB of L2 cache per core; 2**16 to 2**18 ran alike.
EVAL_BLOCK_PAIRS = 2**17


class KernelFamily(str, Enum):
    MULTIQUADRIC = "multiquadric"
    GAUSSIAN = "gaussian"


class UnsupportedOrderError(ValueError):
    """Requested derivative order exceeds the configured cap."""


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

    def _profile_deriv(self, j: int, t: np.ndarray) -> np.ndarray:
        """j-th derivative of the radial profile at t = c**2 + |x|**2."""
        if self.family is KernelFamily.GAUSSIAN:
            out = np.exp(-self.beta * t)
            out *= (-self.beta) ** j
            return out
        half = self.beta / 2.0
        coeff = math.gamma(-half)
        for i in range(j):
            coeff *= half - i
        out = t ** (half - j)
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

        x (n, dim) and centers (m, dim) give an (n, m) matrix, built from
        one contiguous difference plane per axis rather than an
        (n, m, dim) tensor.
        """
        alpha = self._check_order(alpha)
        x, centers = self._check_points(x), self._check_points(centers)
        planes = [x[:, i, None] - centers[None, :, i] for i in range(self.dim)]
        return self._derivative_on_planes(alpha, planes)

    def gram(self, points: np.ndarray) -> np.ndarray:
        """Symmetric matrix of kernel values on all pairwise differences.

        Filled in row blocks of about EVAL_BLOCK_PAIRS pairs, so the
        temporaries of the kernel core do not grow with the matrix.
        """
        points = self._check_points(points)
        n = len(points)
        out = np.empty((n, n))
        step = max(1, EVAL_BLOCK_PAIRS // max(1, n))
        zero = (0,) * self.dim
        for start in range(0, n, step):
            out[start:start + step] = self.cross(zero, points[start:start + step], points)
        return out

    def _at_points(self, alpha: tuple[int, ...], x) -> float | np.ndarray:
        x = self._check_points(x)
        out = self._derivative_on_planes(alpha, [x[..., i] for i in range(self.dim)])
        return float(out) if np.ndim(out) == 0 else out

    def _derivative_on_planes(self, alpha: tuple[int, ...], planes: list) -> np.ndarray:
        """The kernel core: alpha-derivative at the differences whose axis-i
        components are ``planes[i]``.

        ``t`` is summed axis by axis in increasing order, which reproduces
        ``np.sum(x * x, axis=-1)`` bit for bit.
        """
        t = planes[0] * planes[0]
        for plane in planes[1:]:
            t += plane * plane
        t += self._shift()
        out = None
        for term in derivative_terms(self.dim, alpha):
            value = self._profile_deriv(term.deriv_order, t)
            # The constant polynomial 1 (the value term) would only copy value.
            if term.poly != {(0,) * self.dim: 1.0}:
                value *= _eval_poly(term.poly, planes)
            if out is None:
                out = value
            else:
                out += value
        return out

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
        family = KernelFamily(d["family"])
        return cls(family, float(d["beta"]), int(d["dim"]), d.get("c"))


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


def _eval_poly(poly: dict, planes: list) -> np.ndarray:
    """Polynomial value at the differences whose axis-i components are planes[i]."""
    out = None
    for expo, coeff in poly.items():
        term = coeff
        for plane, e in zip(planes, expo):
            if e:
                term = term * plane**e
        out = term if out is None else out + term
    return out
