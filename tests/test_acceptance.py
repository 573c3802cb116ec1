"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 6-9 run the two committed pilot study configs (multiquadric and
Gaussian) and compare against thresholds frozen in
fixtures/pilot_thresholds.json. Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from rbfstudy.bounds import GaussianRateFit
from rbfstudy.geometry import CubeDomain, generate_points, uniform_grid
from rbfstudy.interpolant import (
    InterpolationProblem,
    KernelExpansion,
    SingularSystemError,
    interpolate_expansion,
    residual_expansion,
    solve,
)
from rbfstudy.kernels import Kernel
from rbfstudy.polybasis import MonomialBasis
from rbfstudy.study import (
    StudyConfig,
    check_bounds,
    run_gorny_campaign,
    run_study,
    write_rows_csv,
)

from conftest import central_difference, multi_indices_up_to

FIXTURES = Path(__file__).parent / "fixtures"
THRESHOLDS = json.loads((FIXTURES / "pilot_thresholds.json").read_text())

# "well-conditioned" for the exactness suite: the 1e-8 residual target needs
# roughly two orders of headroom below the eps * cond residual floor
WELL_CONDITIONED = 1e8


class _Timer:
    def __init__(self, criterion, limit):
        self.criterion = criterion
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"[{status}] criterion {self.criterion}: {elapsed:.1f}s (limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.criterion} exceeded {self.limit}s"


@pytest.fixture(scope="module")
def pilot_mq():
    return run_study(StudyConfig.load_json(FIXTURES / "pilot_mq.json"))


@pytest.fixture(scope="module")
def pilot_gaussian():
    return run_study(StudyConfig.load_json(FIXTURES / "pilot_gaussian.json"))


def _random_problem(rng, family):
    dim = int(rng.integers(1, 3))
    count = int(rng.integers(5, 40 if dim == 1 else 120))
    nodes = generate_points(
        CubeDomain.unit(dim), "random", count=count, seed=int(rng.integers(2**31))
    )
    if family == "gaussian":
        kernel = Kernel.gaussian(float(rng.uniform(10.0, 120.0)), dim)
    else:
        beta = float(rng.choice([-1.0, 1.0, 3.0]))
        kernel = Kernel.multiquadric(beta, float(rng.uniform(0.05, 0.4)), dim)
    return InterpolationProblem(kernel, nodes, rng.standard_normal(count))


def _random_expansion(rng, family, dim, n_centers):
    if family == "gaussian":
        kernel = Kernel.gaussian(float(rng.uniform(15.0, 60.0)), dim)
    else:
        kernel = Kernel.multiquadric(
            float(rng.choice([-1.0, 1.0])), float(rng.uniform(0.1, 0.3)), dim
        )
    centers = generate_points(
        CubeDomain.unit(dim), "random", count=n_centers, seed=int(rng.integers(2**31))
    )
    weights = rng.standard_normal(n_centers)
    m = kernel.cpd_order
    if m >= 1:
        pmat = MonomialBasis.for_cpd_order(dim, m).evaluate(centers.points)
        proj, *_ = np.linalg.lstsq(pmat, weights, rcond=None)
        weights = weights - pmat @ proj
    return KernelExpansion(kernel, centers, weights)


def test_criterion_1_exactness_suite():
    with _Timer(1, 30):
        rng = np.random.default_rng(1001)
        for family in ("mq", "gaussian"):
            kept = tried = 0
            while kept < 50:
                tried += 1
                assert tried < 1000, "generator starved"
                problem = _random_problem(rng, family)
                try:
                    interp = solve(problem, cond_limit=WELL_CONDITIONED)
                except SingularSystemError:
                    continue
                kept += 1
                residual = np.max(
                    np.abs(np.atleast_1d(interp.evaluate(problem.nodes.points)) - problem.values)
                )
                assert residual <= 1e-8 * (1.0 + np.max(np.abs(problem.values)))
                assert interp.moment_residual() <= 1e-8 * (
                    1e-30 + np.linalg.norm(interp.weights)
                )


def test_criterion_2_polynomial_reproduction():
    with _Timer(2, 10):
        rng = np.random.default_rng(1002)
        for beta, m in ((1.0, 1), (3.0, 2)):
            kernel = Kernel.multiquadric(beta, 0.5, 2)
            assert kernel.cpd_order == m
            basis = MonomialBasis.for_cpd_order(2, m)
            coeffs = rng.standard_normal(basis.size)
            nodes = generate_points(CubeDomain.unit(2), "halton", count=25)
            values = basis.evaluate(nodes.points) @ coeffs
            interp = solve(InterpolationProblem(kernel, nodes, values))
            grid = uniform_grid(CubeDomain.unit(2), 10)
            target = basis.evaluate(grid) @ coeffs
            sup = np.max(np.abs(np.atleast_1d(interp.evaluate(grid)) - target))
            assert sup <= 1e-7 * (1.0 + np.max(np.abs(target)))


def test_criterion_3_derivative_oracle():
    with _Timer(3, 10):
        rng = np.random.default_rng(1003)
        cases = [
            Kernel.gaussian(25.0, 1),
            Kernel.gaussian(8.0, 2),
            Kernel.multiquadric(1.0, 0.3, 1),
            Kernel.multiquadric(1.0, 0.4, 2),
        ]
        for kernel in cases:
            nodes = generate_points(CubeDomain.unit(kernel.dim), "halton", count=12)
            interp = solve(
                InterpolationProblem(kernel, nodes, rng.standard_normal(len(nodes)))
            )
            probes = rng.uniform(0.1, 0.9, size=(50, kernel.dim))
            for alpha in multi_indices_up_to(kernel.dim, 2):
                analytic = np.atleast_1d(interp.evaluate_derivative(alpha, probes))
                for i in range(len(probes)):
                    fd = central_difference(lambda x: interp.evaluate(x), alpha, probes[i])
                    assert abs(analytic[i] - fd) <= 1e-4 * (1.0 + abs(analytic[i]))


def test_criterion_4_native_norm_laws():
    with _Timer(4, 20):
        rng = np.random.default_rng(1004)
        accepted = 0
        while accepted < 30:
            family = ("mq", "gaussian")[accepted % 2]
            dim = 1 + accepted % 2
            f = _random_expansion(rng, family, dim, n_centers=int(rng.integers(3, 7)))
            nodes = generate_points(
                CubeDomain.unit(dim),
                "random",
                count=int(rng.integers(8, 20)),
                seed=int(rng.integers(2**31)),
            )
            try:
                interp = interpolate_expansion(f, nodes, cond_limit=WELL_CONDITIONED)
            except SingularSystemError:
                continue
            accepted += 1
            norm_f = f.native_norm()
            norm_s = interp.native_norm()
            norm_res = residual_expansion(f, interp).native_norm()
            assert norm_s <= norm_f * (1.0 + 1e-9)
            assert norm_res <= norm_f * (1.0 + 1e-9)
            assert abs(norm_f**2 - norm_s**2 - norm_res**2) <= 1e-6 * max(norm_f**2, 1e-30)


def test_criterion_5_gorny_campaign():
    with _Timer(5, 10):
        result = run_gorny_campaign(1000, seed=2025)
        assert result.trials == 1000
        assert result.violations == 0


def _spearman(result):
    from scipy.stats import spearmanr

    samples = result.samples("0")
    return float(spearmanr([d for d, _ in samples], [e for _, e in samples]).statistic)


def test_criterion_6_mq_convergence_shape(pilot_mq):
    with _Timer(6, 60):
        fit = pilot_mq.fits["0"]
        assert fit is not None and pilot_mq.failed_levels == 0
        assert np.log(fit.base) < 0.0  # slope of the (1/d, log e) line
        assert 0.0 < fit.base < 1.0
        assert fit.r2 >= THRESHOLDS["mq"]["r2_min"]
        assert _spearman(pilot_mq) >= 0.9  # errors shrink with d
        observed = THRESHOLDS["mq"]["observed"]
        assert fit.base == pytest.approx(observed["lambda_hat"], rel=0.10)
        assert fit.r2 == pytest.approx(observed["value_fit_r2"], abs=0.01)


def test_criterion_7_gaussian_convergence_shape(pilot_gaussian):
    with _Timer(7, 60):
        fit = pilot_gaussian.fits["0"]
        assert fit is not None and pilot_gaussian.failed_levels == 0
        assert fit.rate > 0.0
        assert fit.r2 >= THRESHOLDS["gaussian"]["r2_min"]
        assert _spearman(pilot_gaussian) >= 0.9
        observed = THRESHOLDS["gaussian"]["observed"]
        assert fit.rate == pytest.approx(observed["rate_hat"], rel=0.10)
        assert fit.r2 == pytest.approx(observed["value_fit_r2"], abs=0.02)


def _decay_strength(fit) -> float:
    """-log(base) of a multiquadric fit, the rate of a Gaussian one; larger
    means faster decay as d shrinks, comparably across orders."""
    return fit.rate if isinstance(fit, GaussianRateFit) else -math.log(fit.base)


def test_criterion_8_derivative_rate_shape(pilot_mq, pilot_gaussian):
    with _Timer(8, 90):
        slack = THRESHOLDS["exponent_ratio_slack"]
        for result, name in ((pilot_mq, "mq"), (pilot_gaussian, "gaussian")):
            k, l = 1, result.config.smoothness_order
            base_fit, deriv_fit = result.fits["0"], result.fits["1"]
            ratio = _decay_strength(deriv_fit) / _decay_strength(base_fit)
            assert ratio >= (1.0 - k / l) - slack
            observed = THRESHOLDS[name]["observed"]
            assert ratio == pytest.approx(observed["exponent_ratio"], rel=0.10)
            report = check_bounds(result)
            assert report.pass_fraction >= THRESHOLDS["check_min_pass_fraction"]
            assert report.pass_fraction == pytest.approx(
                observed["check_pass_fraction"], abs=0.05
            )


def test_criterion_9_regime_flip(pilot_mq, pilot_gaussian):
    with _Timer(9, 60):
        factor = THRESHOLDS["delta_shrink_factor"]
        for result, name in ((pilot_mq, "mq"), (pilot_gaussian, "gaussian")):
            config = result.config
            baseline = check_bounds(result)
            shrunk = check_bounds(dataclasses.replace(
                result, config=dataclasses.replace(config, delta=config.delta / factor)))
            assert shrunk.regime_counts["large-d"] > baseline.regime_counts["large-d"]
            observed = THRESHOLDS[name]["observed"]
            assert baseline.regime_counts["large-d"] == observed["large_d_rows_baseline"]
            assert shrunk.regime_counts["large-d"] == observed["large_d_rows_delta_tenth"]


def test_criterion_10_determinism(tmp_path):
    with _Timer(10, 120):
        # extended-precision pilot study
        config = StudyConfig.load_json(FIXTURES / "pilot_mq.json")
        blobs = []
        for i in range(2):
            path = tmp_path / f"pilot{i}.csv"
            write_rows_csv(run_study(config), path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        # double-precision study with seeded random refinement
        config = dataclasses.replace(
            StudyConfig.load_json(FIXTURES / "pilot_mq.json"),
            refinement_scheme="random",
            spacings=None,
            counts=(8, 12, 18, 27),
            cond_limit=1e30,
            solver_dps=None,
            check_enabled=False,
        )
        blobs = []
        for i in range(2):
            path = tmp_path / f"random{i}.csv"
            write_rows_csv(run_study(config), path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
