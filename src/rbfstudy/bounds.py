"""Exponential-type error-bound formulas, empirical rate fitting, and an
independent univariate check of the Gorny derivative inequality.

The two base bounds decay as ``prefactor * base**(1/d)`` (multiquadric
family) and ``prefactor * (scale*d)**(rate/d)`` (Gaussian) in the fill
distance d; ``base_error`` reads them off a fitted rate model. Derivative
errors interpolate between the base bound and a top-derivative ceiling;
which ceiling branch is active splits behavior into a small-d and a
large-d regime. All constants here are inputs or fit outputs, never
derived from theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from rbfstudy.kernels import KernelFamily

GORNY_SAMPLES = 2048


def base_error_fault(fit, norm_f: float) -> str | None:
    """Why a value fit, with approximand native norm ``norm_f``, cannot be a
    contracting base error; None when it can."""
    if fit is None:
        return "there is no value fit"
    if not norm_f > 0.0:
        return f"the approximand norm {norm_f} is not positive"
    if not fit.prefactor > 0.0:
        return f"the fitted prefactor {fit.prefactor} is not positive"
    if isinstance(fit, MQRateFit):
        if not 0.0 < fit.base < 1.0:
            return f"the fitted multiquadric base {fit.base} lies outside (0, 1)"
    elif not (fit.scale > 0.0 and fit.rate > 0.0):
        return f"the fitted Gaussian scale {fit.scale} or rate {fit.rate} is not positive"
    return None


def base_error(fit, norm_f: float) -> Callable[[float], float] | None:
    """The base error of a value fit as a function of d, or None when
    ``base_error_fault`` names a fault.

    The fitted prefactor absorbs the approximand norm, so the function is
    (prefactor / norm_f) * base**(1/d) * norm_f for the multiquadric model
    and (prefactor / norm_f) * (scale*d)**(rate/d) * norm_f for the
    Gaussian one, rounded in that order.
    """
    if base_error_fault(fit, norm_f) is not None:
        return None
    prefactor = fit.prefactor / norm_f
    if isinstance(fit, MQRateFit):
        return lambda d: prefactor * fit.base ** (1.0 / d) * norm_f
    return lambda d: prefactor * (fit.scale * d) ** (fit.rate / d) * norm_f


def m_bar(base_error: float, top_deriv: float, order: int, ball_radius: float) -> float:
    """Ceiling used by the derivative bound.

    The larger of the supplied top-derivative bound and the base error
    inflated by order! / ball_radius**order.
    """
    if base_error < 0.0 or top_deriv < 0.0:
        raise ValueError("bounds must be non-negative")
    if order < 1 or ball_radius <= 0.0:
        raise ValueError(f"need order >= 1 and ball_radius > 0, got {order}, {ball_radius}")
    return max(top_deriv, base_error * math.factorial(order) * ball_radius ** (-order))


SMALL_D = "small-d"
LARGE_D = "large-d"


class DerivativeBound(NamedTuple):
    value: float
    regime: str


def derivative_bound(
    k: int, l: int, ball_radius: float, base_error: float, top_deriv: float,
    constant: float = 1.0,
) -> DerivativeBound:
    """Interpolated bound on an order-k derivative error, 0 < k < l.

    Combines the base error and the m_bar ceiling of the top order l with
    exponents 1 - k/l and k/l. The returned regime names which ceiling
    branch was active: "small-d" when the top-derivative bound dominates
    (ties included), "large-d" when the inflated base error does, in which
    case the value collapses to constant * base_error * l!**(k/l) / ball_radius**k.
    """
    if not (0 < k < l):
        raise ValueError(f"need 0 < k < l, got k={k}, l={l}")
    ceiling = m_bar(base_error, top_deriv, l, ball_radius)
    value = constant * base_error ** (1.0 - k / l) * ceiling ** (k / l)
    return DerivativeBound(value, LARGE_D if ceiling > top_deriv else SMALL_D)


def gorny_bound(k: int, l: int, base_sup: float, ceiling: float) -> float:
    """Gorny's inequality ceiling 16 (2e)^k base^(1-k/l) ceiling^(k/l)."""
    if not (0 < k < l):
        raise ValueError(f"need 0 < k < l, got k={k}, l={l}")
    if base_sup < 0.0 or ceiling < 0.0:
        raise ValueError("sup norms must be non-negative")
    return 16.0 * (2.0 * math.e) ** k * base_sup ** (1.0 - k / l) * ceiling ** (k / l)


@dataclass(frozen=True)
class GornyReport:
    lhs: float
    rhs: float
    holds: bool
    base_sup: float
    top_sup: float
    ceiling: float


def gorny_oracle_check(
    psi: Callable[[np.ndarray, int], np.ndarray], k: int, l: int, delta: float
) -> GornyReport:
    """Check the Gorny inequality for one smooth univariate function.

    ``psi(t, order)`` must return the order-th derivative at the points t.
    Sup norms of psi and its l-th derivative over [-delta, delta] are taken
    by dense sampling; the left side is |psi^(k)(0)|.
    """
    if not (0 < k < l):
        raise ValueError(f"need 0 < k < l, got k={k}, l={l}")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    grid = np.linspace(-delta, delta, GORNY_SAMPLES)
    base_sup = float(np.max(np.abs(psi(grid, 0))))
    top_sup = float(np.max(np.abs(psi(grid, l))))
    ceiling = m_bar(base_sup, top_sup, l, delta)
    lhs = float(abs(psi(np.array([0.0]), k)[0]))
    rhs = gorny_bound(k, l, base_sup, ceiling)
    return GornyReport(lhs, rhs, lhs <= rhs, base_sup, top_sup, ceiling)


class MQRateFit(NamedTuple):
    prefactor: float
    base: float
    r2: float


class GaussianRateFit(NamedTuple):
    prefactor: float
    scale: float
    rate: float
    r2: float


def _r_squared(y: np.ndarray, predicted: np.ndarray) -> float:
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res < 1e-24 else 0.0
    return 1.0 - ss_res / ss_tot


def _check_samples(samples, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(list(samples), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < minimum:
        raise ValueError(f"need >= {minimum} (d, error) samples, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("fill distances and errors must be finite")
    d, err = arr[:, 0], arr[:, 1]
    if np.any(d <= 0.0) or len(np.unique(d)) != len(d):
        raise ValueError("fill distances must be positive and distinct")
    if np.any(err <= 0.0):
        raise ValueError("errors must be positive")
    return d, err


def fit_mq_rate(samples) -> MQRateFit:
    """Fit log(error) = log(prefactor) + (1/d) log(base) by least squares.

    Returns the recovered prefactor, decay base, and the coefficient of
    determination of the line in (1/d, log error) coordinates.
    """
    d, err = _check_samples(samples, 3)
    x, y = 1.0 / d, np.log(err)
    slope, intercept = np.polyfit(x, y, 1)
    return MQRateFit(float(np.exp(intercept)), float(np.exp(slope)), _r_squared(y, slope * x + intercept))


def _gaussian_sse(scale: float, d: np.ndarray, y: np.ndarray):
    """Inner linear fit of (log prefactor, rate) for a candidate scale."""
    u = np.log(scale * d) / d
    design = np.column_stack([np.ones_like(u), u])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(resid @ resid), coef


def fit_gaussian_rate(samples) -> GaussianRateFit:
    """Fit log(error) = log(prefactor) + (rate/d) log(scale*d).

    The scale is found by a coarse scan plus golden-section refinement
    over (0, 1/max(d)) with the two remaining parameters solved linearly
    at each candidate; deterministic.
    """
    d, err = _check_samples(samples, 4)
    y = np.log(err)
    if np.allclose(y, y[0], rtol=0.0, atol=1e-12):
        raise ValueError("degenerate samples: errors are constant")
    hi = (1.0 - 1e-9) / float(np.max(d))
    lo = hi * 1e-8

    candidates = np.geomspace(lo, hi, 128)
    sse = [_gaussian_sse(g, d, y)[0] for g in candidates]
    best = int(np.argmin(sse))
    a = candidates[max(best - 1, 0)]
    b = candidates[min(best + 1, len(candidates) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, _ = _gaussian_sse(x1, d, y)
    f2, _ = _gaussian_sse(x2, d, y)
    for _ in range(200):
        if b - a < 1e-14 * hi:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1, _ = _gaussian_sse(x1, d, y)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2, _ = _gaussian_sse(x2, d, y)
    scale = (a + b) / 2.0
    _, coef = _gaussian_sse(scale, d, y)
    predicted = coef[0] + coef[1] * np.log(scale * d) / d
    return GaussianRateFit(
        float(np.exp(coef[0])), float(scale), float(coef[1]), _r_squared(y, predicted)
    )


def usable_samples(samples) -> list[tuple[float, float]]:
    """The (d, error) samples a fit takes, in their order: those with a
    finite, positive error. A failed level's NaN and an exact zero drop out,
    since the log-scale fits need positive errors."""
    return [(d, error) for d, error in samples if math.isfinite(error) and error > 0.0]


def fit_rate(family: KernelFamily, samples):
    """Fit the rate model of a kernel family's bound: ``fit_mq_rate`` for the
    multiquadric, ``fit_gaussian_rate`` for the Gaussian. The fitter is looked
    up when called, so a wrapped one is the one that runs."""
    return (fit_mq_rate if family is KernelFamily.MULTIQUADRIC else fit_gaussian_rate)(samples)


def fit_report_dict(fit, n_samples: int, regime_counts: dict | None = None) -> dict:
    """JSON-ready report for a fitted rate model."""
    if isinstance(fit, MQRateFit):
        model = "mq"
        params = {"prefactor": fit.prefactor, "base": fit.base}
    elif isinstance(fit, GaussianRateFit):
        model = "gaussian"
        params = {"prefactor": fit.prefactor, "scale": fit.scale, "rate": fit.rate}
    else:
        raise TypeError(f"unknown fit type {type(fit)!r}")
    return {
        "model": model,
        "params": params,
        "r2": fit.r2,
        "n_samples": n_samples,
        "regime_counts": dict(regime_counts or {}),
    }
