import math

import numpy as np
import pytest

from rbfstudy.bounds import (
    GaussianRateFit,
    MQRateFit,
    base_error,
    base_error_fault,
    derivative_bound,
    fit_gaussian_rate,
    fit_mq_rate,
    fit_report_dict,
    gorny_bound,
    gorny_oracle_check,
    m_bar,
)


class TestBaseBounds:
    def test_mq_bound_direct(self):
        bound = base_error(MQRateFit(prefactor=1.0, base=0.5, r2=1.0), 1.0)
        assert bound(0.1) == pytest.approx(0.5**10, rel=1e-15)
        assert bound(0.1) == pytest.approx(9.765625e-4, rel=1e-12)
        # the fitted prefactor absorbs the norm: (prefactor / norm) * decay * norm
        assert base_error(MQRateFit(6.0, 0.5, 1.0), 3.0)(0.1) == (6.0 / 3.0) * 0.5**10 * 3.0

    def test_mq_bound_zero_norm(self):
        # the fitted prefactor cannot be split from a norm that is not positive
        for norm in (0.0, -1.0, float("nan")):
            assert base_error(MQRateFit(1.0, 0.5, 1.0), norm) is None
            assert base_error_fault(MQRateFit(1.0, 0.5, 1.0), norm) == (
                f"the approximand norm {norm} is not positive")

    def test_mq_halving_squares_the_factor(self):
        bound = base_error(MQRateFit(1.0, 0.37, 1.0), 1.0)
        d = 0.2
        assert bound(d / 2) == pytest.approx(bound(d) ** 2, rel=1e-12)

    def test_mq_bound_domain_errors(self):
        # a multiquadric base outside (0, 1) is not a contracting bound
        for base in (0.0, 1.0, 1.5, -0.5, float("nan")):
            fit = MQRateFit(1.0, base, 1.0)
            assert base_error(fit, 1.0) is None
            assert base_error_fault(fit, 1.0) == (
                f"the fitted multiquadric base {base} lies outside (0, 1)")

    def test_mq_strictly_decreasing(self):
        bound = base_error(MQRateFit(2.0, 0.8, 1.0), 1.0)
        ds = np.linspace(1.0, 0.01, 40)
        values = [bound(d) for d in ds]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_gaussian_bound_direct(self):
        fit = GaussianRateFit(prefactor=1.0, scale=1.0, rate=1.0, r2=1.0)
        assert base_error(fit, 1.0)(0.5) == pytest.approx(0.25, rel=1e-15)
        fit = GaussianRateFit(6.0, 0.1, 0.2, 1.0)
        assert base_error(fit, 3.0)(0.1) == pytest.approx(6e-4, rel=1e-12)
        assert base_error(fit, 3.0)(0.1) == (6.0 / 3.0) * (0.1 * 0.1) ** (0.2 / 0.1) * 3.0

    def test_gaussian_bound_zero_norm(self):
        assert base_error(GaussianRateFit(1.0, 1.0, 1.0, 1.0), 0.0) is None

    def test_gaussian_decreasing_in_contracting_region(self):
        bound = base_error(GaussianRateFit(1.5, 1.0, 0.7, 1.0), 1.0)
        ds = np.linspace(0.3, 0.02, 30)  # scale*d <= 0.3 throughout
        values = [bound(d) for d in ds]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_param_validation(self):
        # the contracting-fit rule: a fit, a positive prefactor, an MQ base in
        # (0, 1), a positive Gaussian scale and rate
        assert base_error_fault(None, 1.0) == "there is no value fit"
        assert base_error(None, 1.0) is None
        assert base_error_fault(MQRateFit(0.0, 0.5, 1.0), 1.0) == (
            "the fitted prefactor 0.0 is not positive")
        for scale, rate in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -0.3)):
            fit = GaussianRateFit(1.0, scale, rate, 1.0)
            assert base_error(fit, 1.0) is None
            assert base_error_fault(fit, 1.0) == (
                f"the fitted Gaussian scale {scale} or rate {rate} is not positive")
        for fit in (MQRateFit(1.0, 0.999, 0.5), GaussianRateFit(1.0, 3.0, 1e-9, -2.0)):
            assert base_error_fault(fit, 1e-300) is None
            assert base_error(fit, 1e-300) is not None


class TestDerivativeBound:
    def test_m_bar_small_d_regime(self):
        assert m_bar(1e-6, 1.0, 2, 1.0) == 1.0

    def test_m_bar_large_d_regime(self):
        assert m_bar(1.0, 1.0, 2, 0.1) == pytest.approx(200.0, rel=1e-15)

    def test_m_bar_large_ball_limit(self):
        assert m_bar(1.0, 0.7, 2, 1e9) == 0.7

    def test_interpolated_bound_small_d(self):
        result = derivative_bound(1, 2, 1.0, 1e-6, 1.0)
        assert result.value == pytest.approx(1e-3, rel=1e-12)
        assert result.regime == "small-d"

    def test_large_d_collapse(self):
        # constant * base * (l!)^(k/l) / ball^k with l=2, k=1, ball=0.5
        result = derivative_bound(1, 2, 0.5, 1.0, 1.0)
        assert result.regime == "large-d"
        assert result.value == pytest.approx(math.sqrt(2.0) * 2.0, rel=1e-12)
        assert result.value == pytest.approx(2.8284271, rel=1e-6)

    def test_unit_inputs_give_constant_for_wide_ball(self):
        # with a ball wide enough that the ceiling is the top bound itself,
        # unit inputs collapse the bound to the constant for every order
        for l in (2, 3, 4):
            for k in range(1, l):
                assert derivative_bound(k, l, 1e6, 1.0, 1.0).value == pytest.approx(1.0, rel=1e-14)
        # at ball radius 1 the inflated branch wins by a factor l!
        result = derivative_bound(1, 2, 1.0, 1.0, 1.0)
        assert result.regime == "large-d"
        assert result.value == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_regime_formula_consistency(self):
        # the interpolated bound collapses to the branch formulas exactly
        rng = np.random.default_rng(2)
        for _ in range(50):
            l = int(rng.integers(2, 5))
            k = int(rng.integers(1, l))
            ball = float(rng.uniform(0.05, 2.0))
            base = float(10.0 ** rng.uniform(-8, 0))
            top = float(10.0 ** rng.uniform(-2, 2))
            const = float(rng.uniform(0.1, 5.0))
            result = derivative_bound(k, l, ball, base, top, const)
            if result.regime == "small-d":
                expected = const * base ** (1 - k / l) * top ** (k / l)
            else:
                expected = const * base * math.factorial(l) ** (k / l) * ball ** (-k)
            assert result.value == pytest.approx(expected, rel=1e-12)

    def test_continuity_in_order_fraction(self):
        # with a ball wide enough that the ceiling is the top bound, the bound
        # runs geometrically in k/l from the base error (k -> 0) to the
        # ceiling (k -> l), rising monotonically between them
        base, ceiling, const, l = 1e-4, 7.0, 1.3, 20
        previous = const * base
        for k in range(1, l):
            result = derivative_bound(k, l, 1e6, base, ceiling, const)
            assert result.regime == "small-d"
            assert result.value == pytest.approx(const * base * (ceiling / base) ** (k / l),
                                                 rel=1e-12)
            assert previous < result.value < const * ceiling
            previous = result.value

    def test_order_validation(self):
        with pytest.raises(ValueError, match="0 < k < l"):
            derivative_bound(2, 2, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="0 < k < l"):
            derivative_bound(0, 2, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="ball_radius > 0"):
            derivative_bound(1, 2, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            gorny_bound(0, 2, 1.0, 1.0)


class TestGorny:
    def test_unit_norms(self):
        assert gorny_bound(1, 2, 1.0, 1.0) == pytest.approx(32.0 * math.e, rel=1e-15)
        assert gorny_bound(1, 2, 1.0, 1.0) == pytest.approx(86.98502, rel=1e-6)

    def test_scaling(self):
        assert gorny_bound(1, 2, 1e-4, 1.0) == pytest.approx(32.0 * math.e * 1e-2, rel=1e-12)

    def test_zero_base(self):
        assert gorny_bound(1, 2, 0.0, 1.0) == 0.0

    def test_oracle_on_square(self):
        report = gorny_oracle_check(
            lambda t, order: [t**2, 2.0 * t, 2.0 * np.ones_like(t)][order], 1, 2, 1.0
        )
        assert report.lhs == 0.0
        assert report.holds

    def test_oracle_on_sine(self):
        def psi(t, order):
            return np.sin(t + order * np.pi / 2.0)

        report = gorny_oracle_check(psi, 1, 2, math.pi)
        assert report.lhs == pytest.approx(1.0, rel=1e-12)
        assert report.base_sup == pytest.approx(1.0, rel=1e-6)
        assert report.top_sup == pytest.approx(1.0, rel=1e-6)
        assert report.rhs == pytest.approx(32.0 * math.e, rel=1e-6)
        assert report.holds

    def test_polynomial_campaign(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            coeffs = rng.uniform(-2.0, 2.0, size=6)

            def psi(t, order, c=coeffs):
                poly = np.polynomial.polynomial
                return poly.polyval(t, poly.polyder(c, order) if order else c)

            l = int(rng.integers(2, 5))
            k = int(rng.integers(1, l))
            report = gorny_oracle_check(psi, k, l, 1.0)
            assert report.holds


class TestFitters:
    def test_mq_exact_recovery(self):
        samples = [(d, 0.5 ** (1.0 / d)) for d in (0.2, 0.1, 0.05)]
        fit = fit_mq_rate(samples)
        assert fit.prefactor == pytest.approx(1.0, rel=1e-10)
        assert fit.base == pytest.approx(0.5, rel=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_mq_exact_recovery_with_prefactor(self):
        samples = [(d, 3.0 * 0.25 ** (1.0 / d)) for d in (0.2, 0.1, 0.05)]
        fit = fit_mq_rate(samples)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-10)
        assert fit.base == pytest.approx(0.25, rel=1e-10)

    def test_mq_noisy_recovery(self):
        rng = np.random.default_rng(1)
        ds = [0.2, 0.1, 0.05, 0.025, 0.0125]
        noise = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, len(ds))
        fit = fit_mq_rate([(d, 0.5 ** (1.0 / d) * n) for d, n in zip(ds, noise)])
        assert 0.45 <= fit.base <= 0.55

    def test_mq_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            fit_mq_rate([(0.1, 1.0), (0.05, 0.5)])
        with pytest.raises(ValueError):
            fit_mq_rate([(0.1, 1.0), (0.05, 0.5), (0.05, 0.25)])
        with pytest.raises(ValueError):
            fit_mq_rate([(0.1, 1.0), (0.05, -0.5), (0.025, 0.25)])

    def test_gaussian_exact_recovery(self):
        samples = [(d, (0.5 * d) ** (1.0 / d)) for d in (0.4, 0.2, 0.1, 0.05)]
        fit = fit_gaussian_rate(samples)
        assert fit.prefactor == pytest.approx(1.0, rel=0.05)
        assert fit.scale == pytest.approx(0.5, rel=0.05)
        assert fit.rate == pytest.approx(1.0, rel=0.05)
        assert fit.r2 > 0.999

    def test_gaussian_noisy_recovery(self):
        rng = np.random.default_rng(1)
        ds = [0.4, 0.2, 0.1, 0.05]
        noise = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, len(ds))
        fit = fit_gaussian_rate([(d, (0.5 * d) ** (1.0 / d) * n) for d, n in zip(ds, noise)])
        assert abs(fit.rate - 1.0) <= 0.2

    def test_gaussian_rejects_degenerate(self):
        with pytest.raises(ValueError):
            fit_gaussian_rate([(0.4, 1.0), (0.2, 1.0), (0.1, 1.0), (0.05, 1.0)])
        with pytest.raises(ValueError):
            fit_gaussian_rate([(0.4, 1.0), (0.2, 0.5), (0.1, 0.25)])

    @pytest.mark.parametrize("fitter", [fit_mq_rate, fit_gaussian_rate])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("column", [0, 1], ids=["d", "error"])
    def test_non_finite_samples_are_refused(self, fitter, bad, column):
        # an infinite d once gave a multiquadric fit of base 0.708 and r2 0.964,
        # and a NaN one reached LAPACK, which printed to stderr before failing
        samples = [[0.2, 1e-3], [0.1, 1e-4], [0.05, 1e-6], [0.025, 1e-9]]
        samples[0][column] = bad
        with pytest.raises(ValueError, match="^fill distances and errors must be finite$"):
            fitter(samples)


class TestFitReports:
    def test_mq_report_schema(self):
        fit = MQRateFit(2.0, 0.5, 0.99)
        report = fit_report_dict(fit, 4, {"small-d": 3, "large-d": 1})
        assert report == {
            "model": "mq",
            "params": {"prefactor": 2.0, "base": 0.5},
            "r2": 0.99,
            "n_samples": 4,
            "regime_counts": {"small-d": 3, "large-d": 1},
        }
