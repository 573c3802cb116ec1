import json
import re
from pathlib import Path

import pytest

from rbfstudy.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from rbfstudy.geometry import CubeDomain
from rbfstudy.kernels import Kernel
from rbfstudy.study import ApproximandSpec, StudyConfig

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


def write_tiny_config(path, **overrides):
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
    StudyConfig(**defaults).save_json(path)


def test_run_writes_artifacts(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    write_tiny_config(config_path, check_enabled=False)
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "rows.csv").read_text()
    assert rows.startswith("level,d,N,kernel,beta,c,alpha,sup_error,norm_f,regime,cond_estimate")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["version"] == 1
    assert summary["check"] is None


def test_run_flags_failed_shape_check(tmp_path):
    # the asymptotic bound legitimately fails on a floored quick study;
    # the exit code is the CI-facing signal
    config_path = tmp_path / "config.json"
    write_tiny_config(config_path)
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CHECK_FAILED


def test_run_is_deterministic(tmp_path):
    config_path = tmp_path / "config.json"
    write_tiny_config(config_path, check_enabled=False)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["run", "--config", str(config_path), "--out", str(out)])
        blobs.append((out / "rows.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_run_reports_partial_failures(tmp_path):
    config_path = tmp_path / "config.json"
    write_tiny_config(config_path, cond_limit=1e8, check_enabled=False)
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_PARTIAL


def test_run_pilot_config(tmp_path):
    code = main(
        ["run", "--config", str(FIXTURES / "pilot_mq.json"), "--out", str(tmp_path / "out")]
    )
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    fit = summary["fits"]["0"]
    assert fit["model"] == "mq"
    assert 0.0 < fit["params"]["base"] < 1.0


@pytest.mark.parametrize("pilot", ["pilot_mq", "pilot_gaussian"])
def test_pilot_outputs_match_golden_files(tmp_path, pilot):
    out = tmp_path / "out"
    assert main(["run", "--config", str(FIXTURES / f"{pilot}.json"), "--out", str(out)]) == EXIT_OK
    for name in ("rows.csv", "summary.json"):
        assert (out / name).read_bytes() == (GOLDEN / pilot / name).read_bytes(), name


def test_fit_subcommand(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    write_tiny_config(config_path, check_enabled=False)
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out)])
    capsys.readouterr()
    code = main(["fit", "--rows", str(out / "rows.csv"), "--model", "gaussian"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["model"] == "gaussian"
    assert report["n_samples"] == 4
    assert report["params"]["rate"] > 0.0


@pytest.mark.parametrize(
    "keep, args, message",
    [
        (None, ["--model", "mq", "--alpha", "1-0"],
         "no rows tagged '1-0' in .*; its tags are '0', '1'$"),
        (5, ["--model", "mq"], r"the 2 rows tagged '0' .*: need >= 3"),
    ],
    ids=["unknown-tag", "too-few-rows"],
)
def test_fit_refuses_unfittable_rows_with_a_message(tmp_path, capsys, keep, args, message):
    rows = GOLDEN / "pilot_mq" / "rows.csv"
    if keep is not None:
        # the header and the first two levels
        lines = rows.read_text().splitlines(keepends=True)[:keep]
        rows = tmp_path / "rows.csv"
        rows.write_text("".join(lines))
    code = main(["fit", "--rows", str(rows)] + args)
    assert code == EXIT_USAGE == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert re.search(message, captured.err.strip())


def test_gorny_subcommand(capsys):
    code = main(["gorny", "--trials", "100", "--seed", "3"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "trials": 100,
        "violations": 0,
        "worst_ratio": report["worst_ratio"],
    }
    assert 0.0 <= report["worst_ratio"] < 1.0


def test_verbose_prints_levels(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    write_tiny_config(config_path, check_enabled=False)
    for argv in (
        ["--verbose", "run", "--config", str(config_path), "--out", str(tmp_path / "a")],
        ["run", "--config", str(config_path), "--out", str(tmp_path / "b"), "--verbose"],
    ):
        code = main(argv)
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "level 0" in captured and "cond=" in captured


def test_verbose_prints_mp_diagnostics(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    write_tiny_config(config_path, check_enabled=False, spacings=(0.25, 0.125),
                      probe_resolution=41, solver_dps=30)
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "quiet")]) == EXIT_OK
    assert "mp:" not in capsys.readouterr().out
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "loud"),
                 "--verbose"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    mp_lines = [line for line in lines if line.startswith("  mp: dps=30 ")]
    assert len(mp_lines) == 2
    assert all("assembly=" in line and "lu=" in line and "sweep=" in line
               and " distinct of " in line and ", study memo " in line for line in mp_lines)
    # the diagnostics never reach the written files
    for name in ("rows.csv", "summary.json"):
        assert (tmp_path / "quiet" / name).read_bytes() == (tmp_path / "loud" / name).read_bytes()


def test_verbose_double_study_prints_no_mp_line(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    write_tiny_config(config_path, check_enabled=False, spacings=(0.25, 0.125))
    argv = ["run", "--config", str(config_path), "--out", str(tmp_path), "--verbose"]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr().out
    assert "level 1:" in captured and "mp:" not in captured


def test_verbose_pilot_prints_per_level_memo_counts(tmp_path, capsys):
    config = StudyConfig.load_json(FIXTURES / "pilot_mq.json")
    out = tmp_path / "out"
    assert main(["run", "--config", str(FIXTURES / "pilot_mq.json"), "--out", str(out),
                 "--verbose"]) == EXIT_OK
    pattern = re.compile(r"  mp: dps=50 .* kernel memo (\d+) distinct of (\d+) pairs, "
                         r"study memo (\d+)$")
    counts = [tuple(map(int, m.groups())) for m in map(pattern.match,
                                                        capsys.readouterr().out.splitlines()) if m]
    assert len(counts) == config.levels
    probes, centers = config.probe_resolution, len(config.approximand.centers_points)
    memo = counts[0][2] - counts[0][0]
    # f's lookups of every probe-center difference filled the memo first
    assert 0 < memo <= probes * centers
    for (distinct, pairs, size), spacing in zip(counts, config.spacings):
        n = round(1 / spacing) + 1
        # this level's lookups, and the entries they added to the study memo
        assert pairs == n * (n + 1) // 2 + n * centers + probes * n
        assert 0 < distinct < pairs and size == memo + distinct
        memo = size
    for name in ("rows.csv", "summary.json"):
        assert (out / name).read_bytes() == (GOLDEN / "pilot_mq" / name).read_bytes(), name
