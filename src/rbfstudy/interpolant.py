"""Kernel expansions and the interpolants solved from them.

A finite kernel expansion ``f = p + sum_j a_j h(. - z_j)`` couples a kernel
part with a polynomial of degree below the kernel's CPD order. Derivatives
are exact through the kernel's analytic derivative machinery, and under the
moment conditions the native-space semi-norm is a computable quadratic form.

An interpolant ``s(x) = p(x) + sum_j c_j h(x - x_j)`` is the kernel
expansion on its nodes. Its weights and polynomial coefficients solve the
symmetric saddle-point system enforcing interpolation at the nodes together
with the moment conditions that annihilate the polynomial space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

from rbfstudy.geometry import PointSet
from rbfstudy.kernels import EVAL_BLOCK_PAIRS, Kernel
from rbfstudy.polybasis import MonomialBasis, basis_matrix, is_determining_set

# Past this 2-norm condition estimate the factorization is numerically
# meaningless in double precision and the solve is refused. The estimate
# is max|lambda| / min|lambda| over the symmetric eigenvalues, read by
# Lanczos on the system and on its LDL^T factors; above RESOLVED_COND it is
# taken from the full set of eigenvalues instead, computed in double, which
# saturates near 1e16..1e17: a truly worse system can read below this limit.
DEFAULT_COND_LIMIT = 1e18

# Above this condition double precision cannot resolve min|lambda|, and
# what a method reads depends on the method. Such systems report the
# eigenvalue reading (``_condition_2norm``) so that every gate decision
# and saturated reading stays that of one fixed method. ``solve`` takes
# that reading in place, from the triangle of its one array that still
# holds the system, after the refinement steps that read that triangle.
RESOLVED_COND = 1e13

# Moment-condition residual, relative to 1 + |weights|, past which
# ``KernelExpansion.native_norm`` refuses the weights.
MOMENT_TOL = 1e-8


class SingularSystemError(RuntimeError):
    """Saddle-point system is numerically singular or beyond the condition limit."""

    def __init__(self, message: str, cond_estimate: float):
        super().__init__(f"{message} (condition estimate {cond_estimate:.3e})")
        self.cond_estimate = cond_estimate


@dataclass(frozen=True)
class InterpolationProblem:
    """Nodes, data, and kernel for one interpolation solve."""

    kernel: Kernel
    nodes: PointSet
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float).reshape(-1)
        if len(values) != len(self.nodes):
            raise ValueError(f"{len(values)} values for {len(self.nodes)} nodes")
        if self.nodes.dim != self.kernel.dim:
            raise ValueError(f"node dim {self.nodes.dim} != kernel dim {self.kernel.dim}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class KernelExpansion:
    """A finite kernel expansion f = p + sum_j a_j h(. - z_j).

    The weights are expected to satisfy the moment conditions over the
    centers, which makes the native-space semi-norm of f the square root
    of the Gram quadratic form of the weights.
    """

    kernel: Kernel
    centers: PointSet
    weights: np.ndarray
    poly_coeffs: np.ndarray | None = None
    basis: MonomialBasis = field(init=False)

    def __post_init__(self):
        basis = MonomialBasis.for_cpd_order(self.kernel.dim, self.kernel.cpd_order)
        weights = np.array(self.weights, dtype=float).reshape(-1)
        poly = (
            np.zeros(basis.size)
            if self.poly_coeffs is None
            else np.array(self.poly_coeffs, dtype=float).reshape(-1)
        )
        if self.centers.dim != self.kernel.dim:
            raise ValueError(f"center dim {self.centers.dim} != kernel dim {self.kernel.dim}")
        if len(weights) != len(self.centers):
            raise ValueError(f"{len(weights)} weights for {len(self.centers)} centers")
        if len(poly) != basis.size:
            raise ValueError(f"{len(poly)} polynomial coefficients, expected {basis.size}")
        weights.setflags(write=False)
        poly.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "poly_coeffs", poly)
        object.__setattr__(self, "basis", basis)

    def evaluate(self, x) -> float | np.ndarray:
        """Value at a point (dim,) or batch (..., dim)."""
        return self.evaluate_derivatives([(0,) * self.kernel.dim], x)[0]

    def evaluate_derivative(self, alpha, x) -> float | np.ndarray:
        """Analytic partial derivative of order alpha."""
        return self.evaluate_derivatives([alpha], x)[0]

    def evaluate_derivatives(self, alphas, x) -> list:
        """D^alpha of p + sum_j w_j h(. - z_j), for each alpha in ``alphas``, at
        a point (dim,) or batch (..., dim): one result per order, with the
        same bits as one ``evaluate_derivative`` call per order.

        The probes are walked by ``Kernel.blocks``, in blocks of about
        EVAL_BLOCK_PAIRS point-center pairs, so memory does not grow with the
        number of probes. One pass over a block serves every order: the
        kernel core shares the block's difference planes, ``t`` and profile
        derivatives among the orders and gives each order the bits it has
        alone. The product with the weights rounds by the block's rows, so
        the partition depends on the number of centers only; each order's
        block goes through it as it would alone, straight into the result.
        D^alpha p is added once per call, over all probes, and skipped where
        it vanishes; with no centers it is all of the result. The probes are
        checked once, so with no orders bad probes still raise, and no block
        is walked.
        """
        kernel, alphas = self.kernel, list(alphas)
        x = kernel._check_points(x)
        if not alphas:
            return []
        flat = x.reshape(-1, kernel.dim)
        outs = [np.empty(len(flat)) for _ in alphas]
        for rows, crosses in kernel.blocks(alphas, flat, self.centers.points):
            for cross, out in zip(crosses, outs):
                np.dot(cross, self.weights, out=out[rows])
        for alpha, out in zip(alphas, outs):
            poly = self.basis.evaluate_derivative(self.poly_coeffs, alpha, flat)
            if not isinstance(poly, float):  # the scalar 0.0: D^alpha removes p
                out += poly
        outs = [out.reshape(x.shape[:-1]) for out in outs]
        return [float(out) if out.ndim == 0 else out for out in outs]

    def moment_residual(self) -> float:
        """Euclidean norm of the moment-condition residual of the weights."""
        if self.basis.size == 0:
            return 0.0
        return float(
            np.linalg.norm(basis_matrix(self.basis, self.centers.points).T @ self.weights)
        )

    def native_norm(self) -> float:
        """Native-space semi-norm sqrt(a^T A a) on the centers.

        The polynomial part contributes nothing. Raises if the moment
        conditions are violated beyond MOMENT_TOL (relative to the
        weight norm) or if the quadratic form is negative beyond roundoff,
        which signals a kernel sign misconfiguration.
        """
        wnorm = float(np.linalg.norm(self.weights))
        if self.moment_residual() > MOMENT_TOL * (1.0 + wnorm):
            raise ValueError(
                f"moment-condition residual {self.moment_residual():.3e} exceeds tolerance"
            )
        quad = float(self.weights @ self.kernel.gram(self.centers.points) @ self.weights)
        if quad < -1e-10 * wnorm**2:
            raise ValueError(f"native quadratic form is negative ({quad:.3e})")
        return float(np.sqrt(max(quad, 0.0)))


@dataclass(frozen=True)
class Interpolant(KernelExpansion):
    """A solved interpolant: the kernel expansion on its nodes, with the
    condition estimate of the system that gave its weights."""

    cond_estimate: float = float("nan")


def assemble_system(kernel: Kernel, nodes: PointSet) -> tuple[np.ndarray, MonomialBasis]:
    """Saddle-point matrix [[A, P], [P^T, 0]] and the augmentation basis.

    The matrix is allocated once, C-contiguous. ``Kernel.gram`` writes the
    Gram block A into it, and P, P^T and the zero corner are written after;
    no block is built apart and copied in.
    """
    basis = MonomialBasis.for_cpd_order(kernel.dim, kernel.cpd_order)
    n = len(nodes)
    system = np.empty((n + basis.size, n + basis.size))
    kernel.gram(nodes.points, out=system[:n, :n])
    if basis.size:
        pmat = basis_matrix(basis, nodes.points)
        system[:n, n:] = pmat
        system[n:, :n] = pmat.T
        system[n:, n:] = 0.0
    return system, basis


def check_determining_set(kernel: Kernel, nodes: PointSet) -> None:
    """Raise SingularSystemError, with condition estimate inf, when ``nodes``
    are not a determining set for the kernel's polynomial part: the
    saddle-point system is then exactly singular, in any precision."""
    m = kernel.cpd_order
    if m >= 1 and not is_determining_set(nodes.points, m, kernel.dim):
        raise SingularSystemError(
            f"nodes are not a determining set for polynomials of degree <= {m - 1}",
            float("inf"),
        )


def solve(problem: InterpolationProblem, cond_limit: float = DEFAULT_COND_LIMIT) -> Interpolant:
    """Solve the saddle-point interpolation system.

    Assembles S = [[A, P], [P^T, 0]] with A the kernel Gram matrix on the
    nodes and P the polynomial evaluation matrix, and factors it once
    (dense symmetric-indefinite LDL^T). That factorization serves the
    condition estimate, the solve and two steps of iterative refinement.

    One (n+q)^2 array holds S from assembly to return. In order:
    1. ``assemble_system`` fills it; it is checked finite row block by row
       block, and Lanczos reads |lambda|max(S) from it.
    2. ``dsytrf`` factors it in place through its F-contiguous transpose:
       L and D overwrite the lower triangle and the diagonal, and the
       strict upper triangle, never read by LAPACK, keeps S. The diagonal
       of S is saved beforehand.
    3. Lanczos on the factors reads |lambda|max(S^-1); the solve and both
       refinement steps follow. Each residual rhs - S x is a ``dsymv`` on
       the upper triangle with S's diagonal swapped in.
    4. Last, where the eigenvalues are needed (an exactly singular D, or a
       reading above RESOLVED_COND), ``eigvalsh`` reads them from the upper
       triangle and the saved diagonal, overwriting the array.

    The reported condition estimate is the 2-norm condition
    max|lambda| / min|lambda| of the symmetric system, read as
    |lambda|max(S) * |lambda|max(S^-1) by Lanczos on S and on its factors.
    Above RESOLVED_COND double precision cannot resolve min|lambda|, and
    the estimate is then the one from the full set of eigenvalues, which
    saturates near 1e16..1e17. A system whose estimate exceeds
    ``cond_limit``, that is not finite, or whose factor D is exactly
    singular raises SingularSystemError instead of being silently
    regularized; so do nodes that are not a determining set for the
    polynomial part, whose system is exactly singular (estimate inf).
    """
    kernel, nodes = problem.kernel, problem.nodes
    check_determining_set(kernel, nodes)
    n = len(nodes)
    system, basis = assemble_system(kernel, nodes)
    size = len(system)
    rhs = np.concatenate([problem.values, np.zeros(basis.size)])

    # Checked in row blocks, so no boolean array of the system's size is made.
    step = max(1, EVAL_BLOCK_PAIRS // max(1, size))
    if not all(np.isfinite(system[i:i + step]).all() for i in range(0, size, step)):
        raise SingularSystemError("saddle-point system too ill-conditioned", float("inf"))
    # A system scaled near the underflow limit overflows in products with
    # its inverse; the Lanczos reading is then infinite and not used.
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _lanczos_max_abs(lambda v: system @ v, size)

    # The upper triangle of ``system`` is the lower triangle of ``upper``,
    # an F-contiguous view that LAPACK and BLAS take without a copy.
    upper = system.T
    diagonal = system.reshape(-1)[:: size + 1]
    s_diagonal = diagonal.copy()
    lwork, _ = scipy.linalg.lapack.dsytrf_lwork(size)
    factors, pivots, info = scipy.linalg.lapack.dsytrf(upper, lwork=int(lwork), overwrite_a=1)
    if info > 0:
        diagonal[:] = s_diagonal
        raise SingularSystemError(
            f"LDL^T factor D is exactly singular at {info}",
            _condition_2norm(upper, overwrite_a=True),
        )
    d_diagonal = diagonal.copy()

    def backsolve(b):
        return scipy.linalg.lapack.dsytrs(factors, pivots, b)[0]

    def residual(x):
        diagonal[:] = s_diagonal
        product = scipy.linalg.blas.dsymv(1.0, upper, x, lower=1)
        diagonal[:] = d_diagonal
        return rhs - product

    with np.errstate(over="ignore", invalid="ignore"):
        cond = norm * _lanczos_max_abs(backsolve, size)
    solution = backsolve(rhs)
    # Two steps of iterative refinement push the nodal residual back
    # toward machine level on moderately conditioned systems.
    for _ in range(2):
        solution = solution + backsolve(residual(solution))
    if not cond <= RESOLVED_COND:
        diagonal[:] = s_diagonal
        cond = _condition_2norm(upper, overwrite_a=True)
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularSystemError("saddle-point system too ill-conditioned", cond)
    return Interpolant(kernel, nodes, solution[:n], solution[n:], cond)


def _lanczos_max_abs(apply, size: int) -> float:
    """Largest |eigenvalue| of the symmetric linear map ``apply`` on R^size.

    Lanczos with full reorthogonalization. The start vector is drawn from a
    fixed seed, so the reading is the same bits on every call. The
    iteration stops when the extreme Ritz pair's residual
    beta_k * |s_k| is at most 1e-10 of its Ritz value, or after ``size``
    steps, when the Krylov space is the whole space. Infinite when the
    iteration overflows.
    """
    vector = np.random.default_rng(0).standard_normal(size)
    vector /= np.linalg.norm(vector)
    lanczos, alphas, betas = [], [], []
    for _ in range(size):
        lanczos.append(vector)
        w = apply(vector)
        alphas.append(vector @ w)
        w -= alphas[-1] * vector
        if betas:
            w -= betas[-1] * lanczos[-2]
        basis = np.array(lanczos)
        w -= basis.T @ (basis @ w)
        beta = np.linalg.norm(w)
        if not np.isfinite(beta):
            return float("inf")
        ritz, vectors = scipy.linalg.eigh_tridiagonal(alphas, betas)
        k = np.argmax(np.abs(ritz))
        if beta * abs(vectors[-1, k]) <= 1e-10 * abs(ritz[k]):
            break
        betas.append(beta)
        vector = w / beta
    return float(abs(ritz[k]))


def _condition_2norm(system: np.ndarray, overwrite_a: bool = False) -> float:
    """2-norm condition max|lambda| / min|lambda| of a finite symmetric matrix.

    Only the lower triangle of ``system`` is read. With ``overwrite_a`` an
    F-contiguous ``system`` is worked on in place and destroyed. Infinite
    when an eigenvalue is exactly zero or the eigenvalue iteration fails.
    """
    try:
        eigenvalues = scipy.linalg.eigvalsh(
            system, lower=True, overwrite_a=overwrite_a, check_finite=False
        )
    except np.linalg.LinAlgError:
        return float("inf")
    magnitudes = np.abs(eigenvalues)
    smallest = magnitudes.min()
    return float(magnitudes.max() / smallest) if smallest > 0.0 else float("inf")


def interpolate_expansion(f: KernelExpansion, nodes: PointSet, cond_limit: float = DEFAULT_COND_LIMIT) -> Interpolant:
    """Interpolate a kernel expansion at the given nodes with its own kernel."""
    values = np.atleast_1d(f.evaluate(nodes.points))
    return solve(InterpolationProblem(f.kernel, nodes, values), cond_limit=cond_limit)


def residual_expansion(f: KernelExpansion, interp: Interpolant) -> KernelExpansion:
    """The difference f - s as a kernel expansion over the merged centers.

    Centers shared between f and the interpolation nodes are merged by
    summing weights, so self-interpolation cancels exactly. The moment
    conditions carry over, making the native norm of the residual
    computable.
    """
    if interp.kernel != f.kernel:
        raise ValueError("expansion and interpolant use different kernels")
    merged: dict[tuple, float] = {}
    order: list[tuple] = []

    def add(point: np.ndarray, weight: float):
        key = tuple(point)
        if key not in merged:
            merged[key] = 0.0
            order.append(key)
        merged[key] += weight

    for point, weight in zip(f.centers.points, f.weights):
        add(point, float(weight))
    for point, weight in zip(interp.centers.points, interp.weights):
        add(point, -float(weight))

    centers = np.array(order, dtype=float)
    weights = np.array([merged[k] for k in order])
    poly = f.poly_coeffs - interp.poly_coeffs
    return KernelExpansion(f.kernel, PointSet(f.kernel.dim, centers), weights, poly)
