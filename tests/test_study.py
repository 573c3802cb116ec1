import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rbfstudy import highprec
from rbfstudy import kernels as kernels_module
from rbfstudy.bounds import MQRateFit, base_error, derivative_bound
from rbfstudy.cli import EXIT_PARTIAL, main
from rbfstudy.geometry import CubeDomain, uniform_grid
from rbfstudy.interpolant import KernelExpansion, interpolate_expansion
from rbfstudy.kernels import Kernel
from rbfstudy.study import (
    ApproximandSpec,
    LevelRecord,
    StudyConfig,
    StudyResult,
    _double_measure,
    _inner_probe_mask,
    _level_nodes,
    alpha_tag,
    build_approximand,
    check_bounds,
    read_rows_csv,
    run_gorny_campaign,
    run_study,
    summary_dict,
    write_rows_csv,
)

from conftest import write_config

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
        write_config(cfg, path)
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

    @pytest.mark.parametrize("dim, lower", [(1, (0.0,)), (1, (-0.3,)), (2, (-0.3, 0.7))])
    def test_probe_lattice_needs_an_inner_probe(self, dim, lower):
        domain = CubeDomain(dim, lower, 1.0)
        kernel, orders = Kernel.gaussian(40.0, dim), (tuple([1] + [0] * (dim - 1)),)

        def config(resolution, delta):
            return tiny_config(kernel=kernel, domain=domain, deriv_orders=orders,
                               probe_resolution=resolution, delta=delta, fill_resolution=8)

        with pytest.raises(ValueError, match="no probe of a probe_resolution 2 lattice keeps"):
            config(2, 0.1)
        # refused exactly when the mask run_study would build is all False
        for resolution in range(2, 12):
            for delta in (0.1, 0.2, 0.25, 1 / 3, 0.4, 0.45):
                probes = uniform_grid(domain, resolution)
                if _inner_probe_mask(domain, probes, delta).any():
                    assert config(resolution, delta).probe_resolution == resolution
                else:
                    with pytest.raises(ValueError, match="keeps a delta-ball"):
                        config(resolution, delta)

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
            (("kernel", "dim"), 1.9, "kernel.dim must be an integer"),
            (("approximand", "weights_seed"), 11.5, "weights_seed must be an integer"),
            (("approximand", "centers", "seed"), None, "centers.seed must be an integer"),
            (("refinement",), {"scheme": "halton", "counts": [10, 20.5]},
             "entry of refinement.counts must be an integer"),
            (("check", "min_pass_fraction"), 1.5, r"min_pass_fraction must lie in \[0, 1\]"),
            (("tolerances", "cond_limit"), -1, "tolerances.cond_limit must be > 0"),
            (("check", "deriv_norm_scale"), 0.0, "check.deriv_norm_scale must be > 0, got 0.0"),
            (("check", "deriv_norm_scale"), -1, "check.deriv_norm_scale must be > 0, got -1.0"),
            (("check", "deriv_norm_scale"), float("nan"),
             "check.deriv_norm_scale must be > 0, got nan"),
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
            (("kernel",), "c", "C"),
            (("domain",), "side", "sides"),
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

    def test_gaussian_kernel_c_refused(self):
        doc = json.loads((FIXTURES / "pilot_gaussian.json").read_text())
        doc["kernel"]["c"] = 3.0
        with pytest.raises(ValueError, match="kernel.c"):
            StudyConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "path, value, match",
        [
            (("kernel", "dim"), 2, "kernel.dim"),
            (("approximand", "centers", "points"), [[0.1, 0.2], [0.9, 0.3]],
             "approximand.centers.points"),
            (("approximand", "centers", "scheme"), "bogus", "approximand.centers.scheme"),
            (("refinement", "counts"), [10, 20], "refinement.counts"),
            (("refinement",), {"scheme": "halton", "counts": [10, 20], "spacings": [0.1]},
             "refinement.spacings"),
            (("refinement",), {"scheme": "random", "counts": [10, 20], "spacings": [0.1]},
             "refinement.spacings"),
            (("version",), True, "version"),
            (("derivatives", "orders"), 5, "derivatives.orders"),
            (("kernel", "beta"), None, "kernel.beta"),
            (("refinement",), None, "needs refinement.spacings"),
            (("derivatives", "orders"), [[1], [1]], r"derivatives.orders repeats the order \[1\]$"),
        ],
        ids=["dim-vs-domain", "centers-dim", "centers-scheme", "counts-with-grid",
             "spacings-with-halton", "spacings-with-random", "version-bool", "orders-not-list",
             "missing-beta", "missing-refinement", "repeated-order"],
    )
    def test_config_refused_at_load_not_mid_run(self, path, value, match):
        # None deletes the key
        doc = json.loads((FIXTURES / "pilot_mq.json").read_text())
        doc["tolerances"]["solver_dps"] = None
        doc["derivatives"]["orders"] = []
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        with pytest.raises(ValueError, match=match):
            StudyConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "centers, match",
        [
            ({"points": None}, "approximand.centers.points must list"),
            ({"points": []}, "approximand.centers.points must list"),
            ({"scheme": "grid", "spacing": None}, "approximand.centers.spacing must be"),
            ({"scheme": "grid", "spacing": 0.0}, "approximand.centers.spacing must be"),
            ({"scheme": "halton", "count": None}, "approximand.centers.count must be"),
            ({"scheme": "random", "count": None}, "approximand.centers.count must be"),
        ],
        ids=["explicit-null-points", "explicit-no-points", "grid-null-spacing",
             "grid-zero-spacing", "halton-null-count", "random-null-count"],
    )
    def test_centers_scheme_needs_refused_at_load(self, centers, match):
        doc = json.loads((FIXTURES / "pilot_mq.json").read_text())
        doc["approximand"]["centers"].update(centers)
        with pytest.raises(ValueError, match=match):
            StudyConfig.from_dict(doc)

    def test_save_json_writes_the_format(self, tmp_path):
        for name in ("pilot_mq.json", "pilot_gaussian.json"):
            path = tmp_path / name
            write_config(StudyConfig.load_json(FIXTURES / name), path)
            assert path.read_bytes() == (FIXTURES / name).read_bytes()

        def key_paths(d, prefix=""):
            return {p for k, v in d.items() for p in (
                key_paths(v, f"{prefix}{k}.") if isinstance(v, dict) else {prefix + k})}

        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("### Study config (version 1)", 1)[1]
        example = json.loads(example.split("```json", 1)[1].split("```", 1)[0])
        assert key_paths(StudyConfig.from_dict(example).to_dict()) == key_paths(example)

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
        for record in result.levels:
            assert all(error <= 1e-8 for error in record.errors)

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
        for record in result.levels:
            assert all(error <= 1e-7 for error in record.errors)

    def test_rows_sorted_coarse_to_fine(self, tmp_path):
        # random nodes whose fill distance does not fall with the level, so a
        # writer or a fit walking the records in level order is caught
        doc = json.loads((FIXTURES / "pilot_mq.json").read_text())
        doc["tolerances"]["solver_dps"] = None
        doc["refinement"] = {"scheme": "random", "counts": [5, 6, 7, 8]}
        doc["seed"] = 0
        result = run_study(StudyConfig.from_dict(doc))
        assert [r.d for r in result.levels] == pytest.approx([0.187, 0.159, 0.399, 0.299],
                                                             abs=1e-3)
        write_rows_csv(result, tmp_path / "rows.csv")
        rows = read_rows_csv(tmp_path / "rows.csv")
        assert [(r["level"], r["alpha"]) for r in rows] == [
            (level, tag) for level in (2, 3, 0, 1) for tag in ("0", "1")]
        for tag in ("0", "1"):
            samples = result.samples(tag)
            assert samples == [(r["d"], r["sup_error"]) for r in rows if r["alpha"] == tag]
            assert [d for d, _ in samples] == sorted((r.d for r in result.levels), reverse=True)
        assert [r.level for r in check_bounds(result).rows] == [2, 3, 0, 1]

    def test_errors_shrink_with_d(self):
        result = run_study(tiny_config())
        e0 = [record.errors[0] for record in result.levels]
        assert e0[0] > e0[-1]

    def test_failed_level_recorded_and_excluded(self):
        cfg = tiny_config(cond_limit=1e4)  # finest grids exceed this
        result = run_study(cfg)
        assert result.failed_levels >= 1
        failed = [record for record in result.levels if record.failure is not None]
        assert failed and all(math.isnan(e) for record in failed for e in record.errors)
        for tag in ("0", "1"):
            assert all(math.isfinite(e) for _, e in result.samples(tag))

    def test_failed_mp_level_gives_nan_rows_with_its_gate_reading(self, tmp_path):
        # The double gate reads 2.141e19 and 1.887e18 on pilot_mq's two
        # finest levels, so a limit of 1e15 refuses both before the mp solve.
        config = dataclasses.replace(
            StudyConfig.load_json(FIXTURES / "pilot_mq.json"), cond_limit=1e15
        )
        result = run_study(config)
        assert result.failed_levels == 2
        assert len(result.levels) == config.levels
        readings = {2: 2.141e19, 3: 1.887e18}
        for record in result.levels:
            if record.level in readings:
                assert all(math.isnan(e) for e in record.errors) and record.mp is None
                assert record.cond_estimate == pytest.approx(readings[record.level], rel=1e-3)
                assert record.failure.startswith("saddle-point system too ill-conditioned")
            else:
                assert record.failure is None and record.mp["dps"] == config.solver_dps
                assert all(map(math.isfinite, record.errors)) and record.cond_estimate < 1e15
        path = tmp_path / "config.json"
        write_config(config, path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_PARTIAL

    def test_deterministic_rows(self):
        a = run_study(tiny_config())
        b = run_study(tiny_config())
        assert a.levels == b.levels and a.fits == b.fits


class TestCsvAndSummary:
    def test_csv_schema_and_round_trip(self, tmp_path):
        config = tiny_config()
        result = run_study(config)
        path = tmp_path / "rows.csv"
        write_rows_csv(result, path)
        text = path.read_text()
        assert text.splitlines()[0] == (
            "level,d,N,kernel,beta,c,alpha,sup_error,norm_f,regime,cond_estimate"
        )
        assert "\r" not in text
        rows = read_rows_csv(path)
        assert len(rows) == config.levels * (1 + len(config.deriv_orders))
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


# the base model every synthetic check result carries as its value fit
SYNTHETIC_FIT = MQRateFit(0.5, 0.4, 1.0)


def _synthetic_result(config, constant, derivative_error=None):
    """Levels of a unit-norm study whose value errors are the base error of
    SYNTHETIC_FIT and whose order-1 errors are the calibrated bound, or
    ``derivative_error(base error)`` when given."""
    base = base_error(SYNTHETIC_FIT, 1.0)
    records = []
    for level, d in enumerate([0.2, 0.1, 0.05, 0.025]):
        if derivative_error is None:
            error = derivative_bound(1, config.smoothness_order, config.delta, base(d),
                                     config.deriv_norm_scale, constant).value
        else:
            error = derivative_error(base(d))
        records.append(LevelRecord(level, d, 10, (base(d), error), float("nan")))
    return StudyResult(config, tuple(records), {"0": SYNTHETIC_FIT}, 1.0)


def _synthetic_config(**overrides):
    return tiny_config(kernel=Kernel.multiquadric(1.0, 1.0, 1),
                       spacings=(0.2, 0.1, 0.05, 0.025), **overrides)


class TestCheckBounds:
    def test_synthetic_rows_have_unit_margins(self):
        result = _synthetic_result(_synthetic_config(), constant=2.7)
        report = check_bounds(result)
        assert report.constants["1"] == pytest.approx(2.7, rel=1e-12)
        for row in report.rows:
            assert row.margin == pytest.approx(1.0, rel=1e-9)
        assert report.pass_fraction == 1.0
        assert report.passed

    def test_calibration_row_excluded_from_count(self):
        report = check_bounds(_synthetic_result(_synthetic_config(), constant=1.0))
        calibration_rows = [r for r in report.rows if r.calibration]
        assert len(calibration_rows) == 1
        assert calibration_rows[0].level == 0

    def test_missing_fit_raises_without_params(self):
        result = dataclasses.replace(_synthetic_result(_synthetic_config(), 1.0), fits={"0": None})
        with pytest.raises(ValueError, match="no contracting base error: there is no value fit"):
            check_bounds(result)

    def test_non_contracting_fit_is_refused_in_fit_terms(self):
        result = dataclasses.replace(_synthetic_result(_synthetic_config(), 1.0),
                                     fits={"0": MQRateFit(0.5, 1.25, 1.0)})
        with pytest.raises(ValueError, match=r"multiquadric base 1.25 lies outside \(0, 1\)"):
            check_bounds(result)

    def test_shrinking_ball_moves_rows_to_large_d(self):
        cfg = _synthetic_config()
        result = _synthetic_result(cfg, 1.0)
        baseline = check_bounds(result)
        shrunk = check_bounds(dataclasses.replace(
            result, config=dataclasses.replace(cfg, delta=0.01)))
        assert shrunk.regime_counts["large-d"] > baseline.regime_counts["large-d"]

    def test_errors_decaying_at_the_wrong_exponent_fail(self):
        # negative control: order-1 errors 2.7 * base^(1/4) decay slower than
        # the small-d bound's base^(1/2), so every row past the calibration
        # one (large-d at d = 0.2) fails
        result = _synthetic_result(_synthetic_config(), 1.0, lambda base: 2.7 * base**0.25)
        report = check_bounds(result)
        margins = [row.margin for row in report.rows]
        assert [row.regime for row in report.rows] == ["large-d"] + ["small-d"] * 3
        assert margins[0] == pytest.approx(1.0, rel=1e-12)
        assert margins[1:] == pytest.approx([0.314, 0.0318, 3.26e-4], rel=0.01)
        assert report.pass_fraction == 0.0
        assert not report.passed


def _assert_extended_matches_double(**overrides):
    # on a well-conditioned study the mp pipeline and the double pipeline
    # are independent routes to the same sup errors
    plain = run_study(tiny_config(**overrides))
    extended = run_study(tiny_config(solver_dps=30, **overrides))
    assert len(plain.levels) == len(extended.levels) and plain.failed_levels == 0
    for a, b in zip(plain.levels, extended.levels):
        assert a.level == b.level
        assert a.errors == pytest.approx(b.errors, rel=1e-8)


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
    node_counts = [record.n_points for record in result.levels]
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
        calls.append((len(self.centers), tuple(alphas), len(x)))
        return original(self, alphas, x)

    monkeypatch.setattr(KernelExpansion, "evaluate_derivatives", counting)
    result = run_study(config)
    node_counts = [record.n_points for record in result.levels]
    assert result.failed_levels == 0 and node_counts == [9, 25]
    # 17^2 of the 21^2 probes keep the delta-ball inside. f once per study,
    # then per level f at the nodes and the interpolant: the value alone on
    # the outer probes, the value and every order together on the inner ones.
    n_f, zero = config.approximand.centers_count, ((0, 0),)
    assert calls == [
        (n_f, zero, 152), (n_f, zero + orders, 289),
        (n_f, zero, 9), (9, zero, 152), (9, zero + orders, 289),
        (n_f, zero, 25), (25, zero, 152), (25, zero + orders, 289),
    ]

    def per_order(self, alphas, x):
        return [original(self, [a], x)[0] for a in alphas]

    monkeypatch.setattr(KernelExpansion, "evaluate_derivatives", per_order)
    assert run_study(config).levels == result.levels


@pytest.mark.parametrize(
    "overrides",
    [
        dict(kernel=Kernel.multiquadric(1.0, 0.5, 2), deriv_orders=((1, 0), (0, 1), (1, 1))),
        dict(kernel=Kernel.multiquadric(3.0, 0.5, 2), deriv_orders=((1, 0), (0, 1), (2, 0))),
        dict(kernel=Kernel.gaussian(3.0, 2), deriv_orders=((1, 0), (0, 1), (1, 1))),
        dict(kernel=Kernel.multiquadric(1.0, 0.5, 1), domain=CubeDomain.unit(1),
             deriv_orders=((1,), (2,)), spacings=(0.25, 0.125), probe_resolution=81),
    ],
    ids=["mq1-2d", "mq3-2d", "gaussian-2d", "mq1-1d"],
)
def test_double_measure_matches_separate_value_and_derivative_sweeps(overrides, monkeypatch):
    # Blocks of a few rows, so the outer, inner and all-probe sweeps are
    # partitioned differently and the sums of ``@ weights`` round apart.
    monkeypatch.setattr(kernels_module, "EVAL_BLOCK_PAIRS", 7 * 25 + 3)
    defaults = dict(domain=CubeDomain.unit(2), spacings=(0.5, 0.25), smoothness_order=3,
                    probe_resolution=31, fill_resolution=16)
    config = tiny_config(**{**defaults, **overrides})
    f = build_approximand(config)
    probes = uniform_grid(config.domain, config.probe_resolution)
    inner_mask = _inner_probe_mask(config.domain, probes, config.delta)
    inner = probes[inner_mask]
    measure = _double_measure(config, f, probes, inner_mask)
    for level in range(config.levels):
        nodes = _level_nodes(config, level)
        errors, cond, mp = measure(nodes)
        assert mp is None
        interp = interpolate_expansion(f, nodes, cond_limit=config.cond_limit)
        expected = [np.max(np.abs(f.evaluate(probes) - interp.evaluate(probes)))] + [
            np.max(np.abs(f.evaluate_derivative(alpha, inner)
                          - interp.evaluate_derivative(alpha, inner)))
            for alpha in config.deriv_orders
        ]
        assert cond == interp.cond_estimate
        assert len(errors) == len(expected)
        for got, want in zip(errors, expected):
            assert want > 0.0 and abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("solver_dps", [None, 30])
def test_one_level_record_per_level_matches_its_rows(solver_dps, tmp_path):
    # rows.csv holds one row per level record and tag, with the record's numbers
    config = tiny_config(spacings=(0.25, 0.125, 0.0625), probe_resolution=41,
                         solver_dps=solver_dps)
    result = run_study(config)
    tags = [alpha_tag((0,))] + [alpha_tag(a) for a in config.deriv_orders]
    assert [record.level for record in result.levels] == list(range(config.levels))
    write_rows_csv(result, tmp_path / "rows.csv")
    rows = read_rows_csv(tmp_path / "rows.csv")
    assert len(rows) == len(tags) * config.levels
    for record in result.levels:
        level_rows = {row["alpha"]: row for row in rows if row["level"] == record.level}
        assert record.errors == tuple(level_rows[tag]["sup_error"] for tag in tags)
        assert all((row["d"], row["N"], row["cond_estimate"], row["norm_f"])
                   == (record.d, record.n_points, record.cond_estimate, result.approximand_norm)
                   for row in level_rows.values())
        assert record.failure is None
        if solver_dps is None:
            assert record.mp is None
        else:
            assert record.mp["dps"] == solver_dps


@pytest.mark.parametrize("solver_dps", [None, 50])
def test_non_determining_nodes_fail_as_a_level(solver_dps, tmp_path, capsys):
    # beta 3 needs nodes spanning linear polynomials; level 0 has one node
    doc = json.loads((FIXTURES / "pilot_mq.json").read_text())
    doc["kernel"]["beta"] = 3.0
    doc["refinement"] = {"scheme": "halton", "counts": [1, 5, 9]}
    doc["tolerances"]["solver_dps"] = solver_dps
    config = StudyConfig.from_dict(doc)
    result = run_study(config)
    first, *rest = result.levels
    assert result.failed_levels == 1 and first.n_points == 1
    assert all(math.isnan(e) for e in first.errors) and first.mp is None
    assert all(record.failure is None and math.isfinite(record.errors[0]) for record in rest)
    assert first.cond_estimate == math.inf
    assert first.failure == ("nodes are not a determining set for polynomials of "
                             "degree <= 1 (condition estimate inf)")
    # both precisions refuse the nodes before any condition gate, so no limit changes that
    loose = run_study(dataclasses.replace(config, cond_limit=1e300)).levels[0]
    assert (loose.failure, loose.cond_estimate) == (first.failure, first.cond_estimate)
    path = tmp_path / "config.json"
    write_config(config, path)
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out"), "--verbose"]
    assert main(argv) == EXIT_PARTIAL
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("level 0: d=0.5 N=1 sup_error=nan ")
    assert lines[0].endswith(f" failed: {first.failure}")


def _grid2d_eval_config(seed):
    """The ``grid2d_eval`` benchmark workload's study config at ``seed``."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return StudyConfig.from_dict(workloads.grid2d_eval(seed))


@pytest.mark.parametrize("name", ["pilot_mq", "pilot_gaussian", "grid2d_eval"])
def test_rows_and_check_decide_each_regime_once(name, tmp_path):
    # the regime column of rows.csv and the check's rows come from one decision
    if name == "grid2d_eval":
        config = _grid2d_eval_config(11)
    else:
        config = StudyConfig.load_json(FIXTURES / f"{name}.json")
    result = run_study(config)
    checked = {(row.level, row.alpha_tag): row.regime for row in check_bounds(result).rows}
    write_rows_csv(result, tmp_path / "rows.csv")
    derivative_rows = [row for row in read_rows_csv(tmp_path / "rows.csv") if row["alpha"] != "0"]
    assert len(checked) == len(derivative_rows) > 0
    for row in derivative_rows:
        assert row["regime"] == checked[row["level"], row["alpha"]] != "-"


def test_gorny_campaign_deterministic():
    a = run_gorny_campaign(60, seed=4)
    b = run_gorny_campaign(60, seed=4)
    assert a == b
    assert a.violations == 0


def test_alpha_tag_format():
    assert alpha_tag((1,)) == "1"
    assert alpha_tag((1, 0)) == "1-0"
    assert alpha_tag((0, 2)) == "0-2"


def _rescaled_pilot(kernel, scale, solver_dps):
    """The ``pilot_<kernel>`` study with every length multiplied by ``scale``
    and the kernel's shape parameter with it (the Gaussian beta divided by
    scale**2, the multiquadric c multiplied by scale), solved at
    ``solver_dps``. The multiquadric f is left unnormalized: its native norm
    scales by sqrt(scale), which is not a power of two."""
    doc = json.loads((FIXTURES / f"pilot_{kernel}.json").read_text())
    doc["domain"]["lower"] = [scale * v for v in doc["domain"]["lower"]]
    doc["domain"]["side"] *= scale
    doc["approximand"]["centers"]["points"] = [
        [scale * v for v in point] for point in doc["approximand"]["centers"]["points"]
    ]
    doc["refinement"]["spacings"] = [scale * v for v in doc["refinement"]["spacings"]]
    doc["delta"] *= scale
    if kernel == "gaussian":
        doc["kernel"]["beta"] /= scale**2
    else:
        doc["kernel"]["c"] *= scale
        doc["approximand"]["normalize"] = False
    doc["tolerances"]["solver_dps"] = solver_dps
    return StudyConfig.from_dict(doc)


# Under x -> s x each pilot's value and first-derivative sup errors scale by
# these factors: the Gaussian kernel is unchanged, and the beta = 1
# multiquadric, and with it the unnormalized f, scales by s.
RESCALED_ERRORS = {"gaussian": lambda s: (1.0, 1.0 / s), "mq": lambda s: (s, 1.0)}


def _rescaled_rows(kernel, scale, solver_dps):
    """Both studies, after checking that the rescaled one reproduces each
    row bit for bit: d scales by ``scale``, the errors by the kernel's
    factors (each a power of two, so exact)."""
    result = run_study(_rescaled_pilot(kernel, 1.0, solver_dps))
    scaled = run_study(_rescaled_pilot(kernel, scale, solver_dps))
    factors = RESCALED_ERRORS[kernel](scale)
    assert len(scaled.levels) == len(result.levels) == 4
    for record, twin in zip(result.levels, scaled.levels):
        assert (twin.level, twin.n_points) == (record.level, record.n_points)
        assert twin.d == scale * record.d
        assert twin.errors == tuple(f * e for f, e in zip(factors, record.errors))
    return result, scaled


@pytest.mark.parametrize("solver_dps", [None, 50])
@pytest.mark.parametrize("scale", [2.0, 0.5])
def test_rescaled_gaussian_pilot_reproduces_its_rows(scale, solver_dps):
    # x -> s x with beta -> beta / s^2 maps the study onto itself, and each
    # step scales by a power of two: besides the rows, the native norm and
    # the condition are unchanged, bit for bit.
    result, scaled = _rescaled_rows("gaussian", scale, solver_dps)
    assert scaled.approximand_norm == result.approximand_norm
    for record, twin in zip(result.levels, scaled.levels):
        assert twin.cond_estimate == record.cond_estimate


@pytest.mark.parametrize("scale", [2.0, 0.5])
def test_rescaled_mq_pilot_reproduces_its_rows(scale):
    # x -> s x with c -> s c, at dps 60 (dps 100 gives the same rows). At the
    # pilot's own dps 50, level 3 differs by 5e-13 to 1e-11 relative: its
    # solve lacks digits, the wrong pilot_mq row of the certification item in
    # ROADMAP.md. In double the saddle system's polynomial block does not
    # scale, and level 2's value error is off by a factor of 2.7 (s = 2) and
    # 22 (s = 1/2).
    _rescaled_rows("mq", scale, 60)
