import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rbfstudy import highprec
from rbfstudy.bounds import DerivativeBoundParams, MQBoundParams, derivative_bound
from rbfstudy.cli import EXIT_PARTIAL, main
from rbfstudy.geometry import CubeDomain
from rbfstudy.interpolant import KernelExpansion
from rbfstudy.kernels import Kernel
from rbfstudy.study import (
    ApproximandSpec,
    StudyConfig,
    StudyResult,
    StudyRow,
    alpha_tag,
    build_approximand,
    check_bounds,
    read_rows_csv,
    run_gorny_campaign,
    run_study,
    summary_dict,
    write_rows_csv,
)

FIXTURES = Path(__file__).parent / "fixtures"


def tiny_config(**overrides):
    """Small, well-conditioned double-precision study for fast tests."""
    defaults = dict(
        kernel=Kernel.gaussian(40.0, 1),
        domain=CubeDomain.unit(1),
        approximand=ApproximandSpec(
            centers_scheme="random", centers_count=4, centers_seed=5, weights_seed=6
        ),
        refinement_scheme="grid",
        spacings=(0.25, 0.125, 0.0625, 0.03125),
        deriv_orders=((1,),),
        smoothness_order=2,
        delta=0.1,
        probe_resolution=81,
        fill_resolution=64,
        seed=3,
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "config.json"
        cfg.save_json(path)
        assert StudyConfig.load_json(path) == cfg

    def test_spacings_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            tiny_config(spacings=(0.1, 0.2))

    def test_counts_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            tiny_config(refinement_scheme="halton", spacings=None, counts=(10, 5))

    def test_alpha_must_be_below_smoothness_order(self):
        with pytest.raises(ValueError, match="order"):
            tiny_config(deriv_orders=((2,),), smoothness_order=2)

    def test_delta_must_keep_ball_inside(self):
        with pytest.raises(ValueError, match="delta"):
            tiny_config(delta=0.5)

    def test_alpha_dim_checked(self):
        with pytest.raises(ValueError, match="multi-index"):
            tiny_config(deriv_orders=((1, 0),))

    @pytest.mark.parametrize("dps", [0, -3, 2.5, True, 2, 15])
    def test_solver_dps_must_be_positive_int(self, dps):
        with pytest.raises(ValueError, match="solver_dps"):
            tiny_config(solver_dps=dps)
        doc = tiny_config().to_dict()
        doc["tolerances"]["solver_dps"] = dps
        with pytest.raises(ValueError, match="solver_dps"):
            StudyConfig.from_dict(doc)

    @pytest.mark.parametrize("resolution", [0, -5, 2.5, "64"])
    def test_fill_resolution_must_be_positive_int(self, resolution):
        doc = tiny_config().to_dict()
        doc["fill_resolution"] = resolution
        with pytest.raises(ValueError, match="fill_resolution"):
            StudyConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "path, value, match",
        [
            (("probe_resolution",), 200.7, "probe_resolution must be an integer"),
            (("probe_resolution",), True, "probe_resolution must be an integer"),
            (("derivatives", "orders"), [[1.9]], "entry of derivatives.orders must be an integer"),
            (("derivatives", "l"), 2.9, "derivatives.l must be an integer"),
            (("seed",), 7.5, "seed must be an integer"),
            (("kernel", "dim"), 1.9, "kernel dim must be an integer"),
            (("approximand", "weights_seed"), 11.5, "weights_seed must be an integer"),
            (("approximand", "centers", "seed"), None, "centers.seed must be an integer"),
            (("refinement",), {"scheme": "halton", "counts": [10, 20.5]},
             "entry of refinement.counts must be an integer"),
            (("check", "min_pass_fraction"), 1.5, r"min_pass_fraction must lie in \[0, 1\]"),
            (("tolerances", "cond_limit"), -1, "tolerances.cond_limit must be > 0"),
        ],
    )
    def test_config_numbers_checked_not_truncated(self, path, value, match):
        doc = tiny_config().to_dict()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ValueError, match=match):
            StudyConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "path, key, typo",
        [
            ((), "probe_resolution", "probe_resoluton"),
            (("approximand",), "weights_seed", "weight_seed"),
            (("approximand", "centers"), "points", "point"),
            (("refinement",), "spacings", "spacing"),
            (("derivatives",), "orders", "order"),
            (("tolerances",), "solver_dps", "solver_dsp"),
            (("check",), "enabled", "enable"),
        ],
    )
    def test_unknown_config_keys_refused(self, path, key, typo):
        doc = json.loads((FIXTURES / "pilot_mq.json").read_text())
        parent = doc
        for name in path:
            parent = parent[name]
        parent[typo] = parent.pop(key)
        with pytest.raises(ValueError, match=f"unknown config key {'.'.join(path + (typo,))}$"):
            StudyConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "path, value, match",
        [
            (("check", "enabled"), "false", "check.enabled must be true or false"),
            (("approximand", "normalize"), "false", "approximand.normalize must be true or false"),
            (("approximand", "weights_scale"), True, "approximand.weights_scale must be a number"),
            (("delta",), "0.1", "delta must be a number"),
            (("refinement", "spacings"), [True, 0.5], "entry of refinement.spacings must be a"),
            (("approximand", "poly"), [True], "entry of approximand.poly must be a number"),
            (("approximand", "centers", "points"), [["0.5"]],
             "entry of approximand.centers.points must be a number"),
            (("kernel", "beta"), True, "kernel.beta must be a number"),
            (("domain", "side"), "1", "domain.side must be a number"),
            (("kernel", "c"), "1", "kernel.c must be a number"),
        ],
    )
    def test_config_booleans_and_numbers_checked_not_coerced(self, path, value, match):
        doc = json.loads((FIXTURES / "pilot_mq.json").read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ValueError, match=match):
            StudyConfig.from_dict(doc)

    def test_minimal_config_takes_the_dataclass_defaults(self):
        kernel, domain = Kernel.gaussian(40.0, 1), CubeDomain.unit(1)
        doc = {"kernel": kernel.to_dict(), "domain": domain.to_dict(),
               "refinement": {"scheme": "grid", "spacings": [0.25, 0.125]}}
        config = StudyConfig.from_dict(doc)
        assert config == StudyConfig(kernel, domain, spacings=(0.25, 0.125))
        assert len(build_approximand(config).centers) == ApproximandSpec().centers_count

    def test_random_centers_without_a_seed_are_deterministic(self):
        doc = tiny_config().to_dict()
        doc["approximand"]["centers"] = {"scheme": "random", "count": 5}
        first, second = (build_approximand(StudyConfig.from_dict(doc)) for _ in range(2))
        assert np.array_equal(first.centers.points, second.centers.points)

    def test_oversized_lattice_rejected_before_allocation(self):
        with pytest.raises(ValueError, match="probe_resolution.*bytes"):
            tiny_config(
                kernel=Kernel.gaussian(40.0, 3),
                domain=CubeDomain.unit(3),
                deriv_orders=(),
                probe_resolution=2000,
            )
        with pytest.raises(ValueError, match="fill_resolution.*bytes"):
            tiny_config(fill_resolution=2**25)


class TestApproximand:
    def test_moment_conditions_projected(self):
        cfg = tiny_config(kernel=Kernel.multiquadric(3.0, 0.5, 1))
        f = build_approximand(cfg)
        assert f.moment_residual() <= 1e-10

    def test_normalized_to_unit_norm(self):
        f = build_approximand(tiny_config())
        assert f.native_norm() == pytest.approx(1.0, rel=1e-10)

    def test_explicit_centers(self):
        cfg = tiny_config(
            approximand=ApproximandSpec(
                centers_scheme="explicit",
                centers_points=((0.1,), (0.9,)),
                weights_seed=2,
            )
        )
        f = build_approximand(cfg)
        assert np.allclose(f.centers.points.ravel(), [0.1, 0.9])

    def test_polynomial_only_approximand(self):
        cfg = tiny_config(
            kernel=Kernel.multiquadric(1.0, 0.5, 1),
            approximand=ApproximandSpec(
                centers_scheme="grid",
                centers_spacing=0.5,
                weights_scale=0.0,
                normalize=False,
                poly=(5.0,),
            ),
        )
        f = build_approximand(cfg)
        assert np.all(f.weights == 0.0)
        assert f.evaluate([0.3]) == pytest.approx(5.0)


class TestRunStudy:
    def test_self_interpolation_is_exact(self):
        # approximand centers sit on the coarsest grid, which every finer
        # grid contains, so the interpolant reproduces f at every level
        cfg = tiny_config(
            approximand=ApproximandSpec(
                centers_scheme="grid", centers_spacing=0.25, weights_seed=8
            ),
            deriv_orders=(),
        )
        result = run_study(cfg)
        for row in result.rows:
            assert row.sup_error <= 1e-8

    def test_polynomial_reproduction_study(self):
        cfg = tiny_config(
            kernel=Kernel.multiquadric(1.0, 0.5, 1),
            approximand=ApproximandSpec(
                centers_scheme="grid",
                centers_spacing=0.5,
                weights_scale=0.0,
                normalize=False,
                poly=(5.0,),
            ),
        )
        result = run_study(cfg)
        for row in result.rows:
            assert row.sup_error <= 1e-7

    def test_rows_sorted_coarse_to_fine(self):
        result = run_study(tiny_config())
        ds = [r.d for r in result.rows if r.alpha_tag == "0"]
        assert ds == sorted(ds, reverse=True)

    def test_errors_shrink_with_d(self):
        result = run_study(tiny_config())
        e0 = [r.sup_error for r in result.rows if r.alpha_tag == "0"]
        assert e0[0] > e0[-1]

    def test_failed_level_recorded_and_excluded(self):
        cfg = tiny_config(cond_limit=1e4)  # finest grids exceed this
        result = run_study(cfg)
        assert result.failed_levels >= 1
        failed_rows = [r for r in result.rows if math.isnan(r.sup_error)]
        assert failed_rows
        for tag in ("0", "1"):
            assert all(math.isfinite(e) for _, e in result.samples(tag))

    def test_failed_mp_level_gives_nan_rows_with_its_gate_reading(self, tmp_path):
        # The double gate reads 2.141e19 and 1.887e18 on pilot_mq's two
        # finest levels, so a limit of 1e15 refuses both before the mp solve.
        config = dataclasses.replace(
            StudyConfig.load_json(FIXTURES / "pilot_mq.json"), cond_limit=1e15
        )
        result = run_study(config)
        assert result.failed_levels == 2 and set(result.mp_stats) == {0, 1}
        assert len(result.rows) == 2 * config.levels
        readings = {2: 2.141e19, 3: 1.887e18}
        for row in result.rows:
            if row.level in readings:
                assert math.isnan(row.sup_error)
                assert row.cond_estimate == pytest.approx(readings[row.level], rel=1e-3)
            else:
                assert math.isfinite(row.sup_error) and row.cond_estimate < 1e15
        path = tmp_path / "config.json"
        config.save_json(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_PARTIAL

    def test_deterministic_rows(self):
        a = run_study(tiny_config())
        b = run_study(tiny_config())
        assert [dataclasses.asdict(r) for r in a.rows] == [
            dataclasses.asdict(r) for r in b.rows
        ]


class TestCsvAndSummary:
    def test_csv_schema_and_round_trip(self, tmp_path):
        result = run_study(tiny_config())
        path = tmp_path / "rows.csv"
        write_rows_csv(result, path)
        text = path.read_text()
        assert text.splitlines()[0] == (
            "level,d,N,kernel,beta,c,alpha,sup_error,norm_f,regime,cond_estimate"
        )
        assert "\r" not in text
        rows = read_rows_csv(path)
        assert len(rows) == len(result.rows)
        assert rows[0]["kernel"] == "gaussian"
        assert math.isnan(rows[0]["c"])
        back = [(r["d"], r["sup_error"]) for r in rows if r["alpha"] == "0"]
        assert back == result.samples("0")

    def test_csv_byte_identical_across_runs(self, tmp_path):
        cfg = tiny_config()
        paths = []
        for i in range(2):
            result = run_study(cfg)
            path = tmp_path / f"rows{i}.csv"
            write_rows_csv(result, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_summary_schema(self, tmp_path):
        result = run_study(tiny_config())
        report = check_bounds(result) if result.fits.get("0") else None
        doc = summary_dict(result, report)
        assert doc["version"] == 1
        assert doc["kernel"]["family"] == "gaussian"
        assert "0" in doc["fits"]
        text = json.dumps(doc)
        assert "regime_counts" in text


def _synthetic_result(config, base_params, deriv_params, constant):
    """Rows generated exactly from the bound formulas."""
    rows = []
    ds = [0.2, 0.1, 0.05, 0.025]
    for level, d in enumerate(ds):
        base = base_params.prefactor * base_params.base ** (1.0 / d)
        rows.append(StudyRow(level, d, 10, "0", base, 1.0))
        db = derivative_bound(
            dataclasses.replace(deriv_params, bound_constant=constant),
            base,
            deriv_params.deriv_norm_scale,
        )
        rows.append(StudyRow(level, d, 10, "1", db.value, 1.0))
    result = StudyResult(config, rows, {}, 0, 1.0)
    result.fits["0"] = None
    return result


class TestCheckBounds:
    def test_synthetic_rows_have_unit_margins(self):
        cfg = tiny_config(kernel=Kernel.multiquadric(1.0, 1.0, 1), spacings=(0.2, 0.1, 0.05, 0.025))
        base_params = MQBoundParams(0.5, 0.4, 1.0, 1.0)
        deriv_params = DerivativeBoundParams(2, 1, cfg.delta, 1.0, 1.0)
        result = _synthetic_result(cfg, base_params, deriv_params, constant=2.7)
        report = check_bounds(result, base_params=base_params, deriv_params=deriv_params)
        assert report.constants["1"] == pytest.approx(2.7, rel=1e-12)
        for row in report.rows:
            assert row.margin == pytest.approx(1.0, rel=1e-9)
        assert report.pass_fraction == 1.0
        assert report.passed

    def test_calibration_row_excluded_from_count(self):
        cfg = tiny_config(kernel=Kernel.multiquadric(1.0, 1.0, 1), spacings=(0.2, 0.1, 0.05, 0.025))
        base_params = MQBoundParams(0.5, 0.4, 1.0, 1.0)
        deriv_params = DerivativeBoundParams(2, 1, cfg.delta, 1.0, 1.0)
        result = _synthetic_result(cfg, base_params, deriv_params, constant=1.0)
        report = check_bounds(result, base_params=base_params, deriv_params=deriv_params)
        calibration_rows = [r for r in report.rows if r.calibration]
        assert len(calibration_rows) == 1
        assert calibration_rows[0].level == 0

    def test_missing_fit_raises_without_params(self):
        cfg = tiny_config(kernel=Kernel.multiquadric(1.0, 1.0, 1), spacings=(0.2, 0.1, 0.05, 0.025))
        result = _synthetic_result(
            cfg, MQBoundParams(0.5, 0.4, 1.0, 1.0), DerivativeBoundParams(2, 1, 0.1), 1.0
        )
        with pytest.raises(ValueError, match="base fit"):
            check_bounds(result)

    def test_shrinking_ball_moves_rows_to_large_d(self):
        cfg = tiny_config(kernel=Kernel.multiquadric(1.0, 1.0, 1), spacings=(0.2, 0.1, 0.05, 0.025))
        base_params = MQBoundParams(0.5, 0.4, 1.0, 1.0)
        deriv_params = DerivativeBoundParams(2, 1, 0.1, 1.0, 1.0)
        result = _synthetic_result(cfg, base_params, deriv_params, 1.0)
        baseline = check_bounds(result, base_params, deriv_params)
        shrunk = check_bounds(
            result, base_params, dataclasses.replace(deriv_params, ball_radius=0.01)
        )
        assert shrunk.regime_counts["large-d"] > baseline.regime_counts["large-d"]


def _assert_extended_matches_double(**overrides):
    # on a well-conditioned study the mp pipeline and the double pipeline
    # are independent routes to the same sup errors
    plain = run_study(tiny_config(**overrides))
    extended = run_study(tiny_config(solver_dps=30, **overrides))
    assert len(plain.rows) == len(extended.rows) and plain.failed_levels == 0
    for a, b in zip(plain.rows, extended.rows):
        assert a.alpha_tag == b.alpha_tag and a.level == b.level
        assert a.sup_error == pytest.approx(b.sup_error, rel=1e-8)


def test_extended_precision_matches_double_path():
    _assert_extended_matches_double(spacings=(0.5, 0.25, 0.125), deriv_orders=((1,),))


def test_extended_precision_matches_double_path_2d():
    _assert_extended_matches_double(
        kernel=Kernel.multiquadric(1.0, 0.5, 2),
        domain=CubeDomain.unit(2),
        spacings=(0.5, 0.25),
        deriv_orders=((1, 0), (0, 1)),
        probe_resolution=21,
        fill_resolution=16,
    )


def test_extended_precision_matches_double_path_linear_tail():
    # beta = 3 has cpd order 2, so the tail {1, x} has a derivative that is not zero
    _assert_extended_matches_double(
        kernel=Kernel.multiquadric(3.0, 0.5, 1),
        spacings=(0.5, 0.25, 0.125),
        deriv_orders=((1,),),
    )


def test_approximand_evaluated_in_mp_once_per_study(monkeypatch):
    sizes = []
    expansion = highprec.MpCore.expansion

    def counting(self, centers, *args):
        sizes.append(len(centers))
        return expansion(self, centers, *args)

    monkeypatch.setattr(highprec.MpCore, "expansion", counting)
    config = tiny_config(spacings=(0.5, 0.25, 0.125), solver_dps=30)
    result = run_study(config)
    node_counts = [row.n_points for row in result.rows if row.alpha_tag == "0"]
    n_f = config.approximand.centers_count
    assert len(node_counts) == 3 and n_f not in node_counts
    # f at every probe once, plus f at each level's nodes for the right-hand side
    assert sizes.count(n_f) == config.probe_resolution + sum(node_counts)
    # the interpolant at every probe, once per level
    assert len(sizes) - sizes.count(n_f) == 3 * config.probe_resolution


def test_double_path_evaluates_all_orders_in_one_pass(monkeypatch):
    orders = ((1, 0), (0, 1), (2, 0), (1, 1))
    config = tiny_config(
        kernel=Kernel.multiquadric(1.0, 0.5, 2),
        domain=CubeDomain.unit(2),
        spacings=(0.5, 0.25),
        deriv_orders=orders,
        smoothness_order=3,
        probe_resolution=21,
        fill_resolution=16,
    )
    original = KernelExpansion.evaluate_derivatives
    calls = []

    def counting(self, alphas, x):
        calls.append((len(self.centers), tuple(alphas)))
        return original(self, alphas, x)

    monkeypatch.setattr(KernelExpansion, "evaluate_derivatives", counting)
    result = run_study(config)
    node_counts = [row.n_points for row in result.rows if row.alpha_tag == "0"]
    assert result.failed_levels == 0 and node_counts == [9, 25]
    # f once per study, then the interpolant once per level, for every order together
    derivative_calls = [call for call in calls if call[1] != ((0, 0),)]
    n_f = config.approximand.centers_count
    assert derivative_calls == [(n_f, orders), (9, orders), (25, orders)]

    def per_order(self, alphas, x):
        return [original(self, [a], x)[0] for a in alphas]

    monkeypatch.setattr(KernelExpansion, "evaluate_derivatives", per_order)
    assert run_study(config).rows == result.rows


def test_gorny_campaign_deterministic():
    a = run_gorny_campaign(60, seed=4)
    b = run_gorny_campaign(60, seed=4)
    assert a == b
    assert a.violations == 0


def test_alpha_tag_format():
    assert alpha_tag((1,)) == "1"
    assert alpha_tag((1, 0)) == "1-0"
    assert alpha_tag((0, 2)) == "0-2"
