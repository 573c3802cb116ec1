"""Multivariate polynomial spaces of bounded degree.

Monomial bases in graded-lexicographic order, point-evaluation matrices,
and the unisolvency (determining-set) rank test used to certify unique
solvability of the augmented interpolation system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np


def _graded_lex_exponents(dim: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent multi-indices with total degree <= max_degree.

    Ordered by total degree, then lexicographically descending within a
    degree, so (1, 0) precedes (0, 1).
    """
    out: list[tuple[int, ...]] = []
    for degree in range(max_degree + 1):
        level: list[tuple[int, ...]] = []

        def fill(prefix: list[int], remaining: int, slots: int):
            if slots == 1:
                level.append(tuple(prefix + [remaining]))
                return
            for e in range(remaining, -1, -1):
                fill(prefix + [e], remaining - e, slots - 1)

        fill([], degree, dim)
        out.extend(level)
    return tuple(out)


@dataclass(frozen=True)
class MonomialBasis:
    """Monomial basis of the polynomials of degree <= ``degree`` on R^dim.

    ``degree = -1`` gives the empty basis (the zero polynomial space used
    when no augmentation is required). Exponents are fixed in graded-lex
    order so evaluation matrices are reproducible.
    """

    dim: int
    degree: int
    exponents: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.degree < -1:
            raise ValueError(f"degree must be >= -1, got {self.degree}")
        expo = () if self.degree < 0 else _graded_lex_exponents(self.dim, self.degree)
        object.__setattr__(self, "exponents", expo)

    @classmethod
    def for_cpd_order(cls, dim: int, m: int) -> "MonomialBasis":
        """Basis of the augmentation space for a kernel of CPD order m."""
        if m < 0:
            raise ValueError(f"cpd order must be >= 0, got {m}")
        return cls(dim, m - 1)

    def __len__(self) -> int:
        return len(self.exponents)

    @property
    def size(self) -> int:
        return len(self.exponents)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Monomial values at points x of shape (..., dim) -> (..., size)."""
        x = np.asarray(x, dtype=float)
        cols = [
            np.prod([x[..., j] ** e for j, e in enumerate(expo) if e], axis=0)
            if any(expo)
            else np.ones(x.shape[:-1])
            for expo in self.exponents
        ]
        if not cols:
            return np.zeros(x.shape[:-1] + (0,))
        return np.stack(cols, axis=-1)

    def derivative_rule(self, alpha) -> list:
        """D^alpha of each basis monomial, for the double and the mp path: None
        where D^alpha removes it, else the integers it multiplies the
        coefficient by (per axis, e down to e - alpha_i + 1) and the
        exponents it leaves."""
        alpha = tuple(int(a) for a in np.atleast_1d(alpha))
        rules = []
        for expo in self.exponents:
            if any(a > e for e, a in zip(expo, alpha)):
                rules.append(None)
            else:
                factors = tuple(e - i for e, a in zip(expo, alpha) for i in range(a))
                rules.append((factors, tuple(e - a for e, a in zip(expo, alpha))))
        return rules

    def evaluate_derivative(self, coeffs: np.ndarray, alpha, x: np.ndarray) -> np.ndarray | float:
        """Value of D^alpha of the polynomial with the given coefficients.

        The scalar 0.0 when D^alpha leaves no monomial with a nonzero
        coefficient, so adding it to an array allocates nothing.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.size,):
            raise ValueError(f"expected {self.size} coefficients, got {coeffs.shape}")
        x = np.asarray(x, dtype=float)
        out = 0.0
        for coeff, rule in zip(coeffs, self.derivative_rule(alpha)):
            if rule is None:
                continue
            factor = prod(rule[0], start=coeff)  # coeff * k0 * k1 ..., in order
            if factor == 0.0:
                continue
            term = np.full(x.shape[:-1], factor, dtype=float)
            for j, e in enumerate(rule[1]):
                if e:
                    term = term * x[..., j] ** e
            out = out + term
        return out


def basis_matrix(basis: MonomialBasis, points: np.ndarray) -> np.ndarray:
    """Evaluation matrix with entry (i, k) = monomial k at point i.

    Shape (N, size); an (N, 0) matrix for the empty basis.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != basis.dim:
        raise ValueError(f"expected points of shape (N, {basis.dim}), got {pts.shape}")
    return basis.evaluate(pts)


def is_determining_set(points: np.ndarray, m: int, dim: int) -> bool:
    """Whether the only polynomial of degree <= m-1 vanishing on the points
    is the zero polynomial (vacuously true for m = 0).

    Decided by the numerical rank of the evaluation matrix, with the
    conventional singular-value cutoff scaled by 16.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m == 0:
        return True
    basis = MonomialBasis.for_cpd_order(dim, m)
    mat = basis_matrix(basis, points)
    if mat.shape[0] < basis.size:
        return False
    sv = np.linalg.svd(mat, compute_uv=False)
    tol = sv[0] * max(mat.shape) * np.finfo(float).eps * 16 if sv.size else 0.0
    rank = int(np.sum(sv > tol))
    return rank == basis.size
