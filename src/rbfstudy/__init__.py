"""Scattered-data radial-basis-function interpolation with analytic
derivatives, plus a harness for measuring empirical error-decay rates."""

from rbfstudy.kernels import (
    Kernel,
    KernelFamily,
    MAX_DERIVATIVE_ORDER,
    RadialProfileTerm,
    UnsupportedOrderError,
)
from rbfstudy.polybasis import MonomialBasis, basis_matrix, is_determining_set
from rbfstudy.geometry import (
    CubeDomain,
    PointSet,
    fill_distance,
    generate_points,
    uniform_grid,
)
from rbfstudy.interpolant import (
    Interpolant,
    InterpolationProblem,
    KernelExpansion,
    SingularSystemError,
    residual_expansion,
    solve,
)
from rbfstudy.bounds import (
    derivative_bound,
    fit_gaussian_rate,
    fit_mq_rate,
    gorny_bound,
    gorny_oracle_check,
    m_bar,
)
from rbfstudy.study import StudyConfig, check_bounds, run_study

__all__ = [
    "Kernel",
    "KernelFamily",
    "MAX_DERIVATIVE_ORDER",
    "RadialProfileTerm",
    "UnsupportedOrderError",
    "MonomialBasis",
    "basis_matrix",
    "is_determining_set",
    "CubeDomain",
    "PointSet",
    "fill_distance",
    "generate_points",
    "uniform_grid",
    "Interpolant",
    "InterpolationProblem",
    "KernelExpansion",
    "SingularSystemError",
    "residual_expansion",
    "solve",
    "derivative_bound",
    "fit_gaussian_rate",
    "fit_mq_rate",
    "gorny_bound",
    "gorny_oracle_check",
    "m_bar",
    "StudyConfig",
    "check_bounds",
    "run_study",
]
