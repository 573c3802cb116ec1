import json
import re
from pathlib import Path

import pytest

from rbfstudy.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from rbfstudy.geometry import CubeDomain
from rbfstudy.kernels import Kernel
from rbfstudy.study import ApproximandSpec, StudyConfig

from conftest import write_config

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
    write_config(StudyConfig(**defaults), path)


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
    code = main(["fit", "--rows", str(out / "rows.csv")])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["model"] == "gaussian"
    assert report["n_samples"] == 4
    assert report["params"]["rate"] > 0.0


def _set_field(lines, column, value, targets=(3,)):
    """Rows CSV ``lines`` with field ``column`` of each line in ``targets``
    set to ``value``; line 3 of a pilot's rows is the value row of level 1."""
    lines = list(lines)
    for i in targets:
        fields = lines[i].split(",")
        fields[column] = value
        lines[i] = ",".join(fields)
    return lines


@pytest.mark.parametrize(
    "edit, args, message",
    [
        (None, ["--alpha", "1-0"],
         "no rows tagged '1-0' in .*; its tags are '0', '1'$"),
        # the header and the first two levels
        (lambda lines: lines[:5], [],
         r"cannot fit the multiquadric model to the 2 rows tagged '0' .*: need >= 3"),
        (lambda lines: _set_field(lines, 1, "inf"), [],
         "the 4 rows tagged '0' with a finite positive error: fill distances and errors "
         "must be finite$"),
        (lambda lines: _set_field(lines, 1, "nan"), [],
         "the 4 rows tagged '0' with a finite positive error: fill distances and errors "
         "must be finite$"),
        (lambda lines: _set_field(lines, 3, "gaussian"), [],
         "must name one kernel of multiquadric, gaussian; they name 'multiquadric', "
         "'gaussian'$"),
        (lambda lines: _set_field(lines, 3, "mq", range(1, 9)), [],
         "must name one kernel of multiquadric, gaussian; they name 'mq'$"),
    ],
    ids=["unknown-tag", "too-few-rows", "infinite-d", "nan-d", "two-kernels", "unknown-kernel"],
)
def test_fit_refuses_unfittable_rows_with_a_message(tmp_path, capfd, edit, args, message):
    # capfd also sees what LAPACK would print to the process's stderr
    rows = GOLDEN / "pilot_mq" / "rows.csv"
    if edit is not None:
        lines = edit(rows.read_text().splitlines())
        rows = tmp_path / "rows.csv"
        rows.write_text("\n".join(lines) + "\n")
    code = main(["fit", "--rows", str(rows)] + args)
    assert code == EXIT_USAGE == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert re.search(message, captured.err.strip())


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["tolerances"].update(solver_dsp=doc["tolerances"].pop("solver_dps")),
         "unknown config key tolerances.solver_dsp$"),
        (lambda doc: doc["kernel"].pop("beta"), "missing config key kernel.beta$"),
        (None, "Expecting"),
        # probes at 0 and 1 only, and delta 0.1
        (lambda doc: doc.update(probe_resolution=2),
         "no probe of a probe_resolution 2 lattice keeps a delta-ball of 0.1 inside the domain$"),
        (lambda doc: doc["check"].update(deriv_norm_scale=0),
         "check.deriv_norm_scale must be > 0, got 0.0$"),
        (lambda doc: doc["derivatives"].update(orders=[[1], [1]]),
         r"derivatives.orders repeats the order \[1\]$"),
        (lambda doc: doc["approximand"].update(weights_scale=float("nan")),
         "approximand.weights_scale must be a finite number, got nan$"),
        (lambda doc: doc["approximand"].update(poly=[float("inf")]),
         "an entry of approximand.poly must be a finite number, got inf$"),
        (lambda doc: doc["kernel"].update(beta=float("-inf")),
         "kernel.beta must be a finite number, got -inf$"),
        # a JSON integer past double's range
        (lambda doc: doc["kernel"].update(c=10**400), "kernel.c must be a finite number, got 10+$"),
        (lambda doc: doc["refinement"].update(spacings=[-0.1, -0.2]),
         r"refinement.spacings must be > 0, got \(-0.1, -0.2\)$"),
        (lambda doc: doc["approximand"]["centers"].update(points=[[0.33], [-0.04], [0.33]]),
         r"approximand.centers.points repeats the point \[0.33\]$"),
    ],
    ids=["unknown-key", "missing-key", "not-json", "no-inner-probe", "zero-deriv-norm-scale",
         "repeated-order", "nan-weights-scale", "infinite-poly", "infinite-beta", "huge-c",
         "negative-spacings", "repeated-center"],
)
def test_run_refuses_a_bad_config_with_a_message(tmp_path, capsys, edit, message):
    config_path = tmp_path / "config.json"
    if edit is None:
        config_path.write_text("{\n")
    else:
        doc = json.loads((FIXTURES / "pilot_mq.json").read_text())
        edit(doc)
        config_path.write_text(json.dumps(doc))
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("rbfstudy run: ")
    assert re.search(message, captured.err.strip())
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "centers, message",
    [
        ({"points": None}, "approximand.centers.points must list at least one point"),
        ({"scheme": "grid", "spacing": None}, "approximand.centers.spacing must be a number > 0"),
    ],
    ids=["explicit-null-points", "grid-null-spacing"],
)
def test_run_refuses_centers_the_scheme_cannot_use(tmp_path, capsys, centers, message):
    doc = json.loads((FIXTURES / "pilot_mq.json").read_text())
    doc["approximand"]["centers"].update(centers)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rbfstudy run: ") and message in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "approximand, message",
    [
        # under multiquadric beta 1 the moment condition zeroes a lone center's weight
        ({"centers": {"scheme": "explicit", "points": [[0.33]]}},
         r"the moment conditions zero the weights of its centers \(1\); give it more centers$"),
        ({"weights_scale": 0.0}, "approximand.weights_scale is 0$"),
    ],
    ids=["one-center", "zero-weights-scale"],
)
def test_run_refuses_an_approximand_of_zero_norm(tmp_path, capsys, approximand, message):
    doc = json.loads((FIXTURES / "pilot_mq.json").read_text())
    doc["approximand"].update(approximand)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("rbfstudy run: the approximand has zero native norm, so it "
                                   "cannot be normalized: ")
    assert re.search(message, captured.err.strip())
    assert not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize(
    "args",
    [["run", "--config", "{missing}", "--out", "{out}"],
     ["fit", "--rows", "{missing}"]],
    ids=["run", "fit"],
)
def test_missing_input_file_is_one_line_and_exit_2(tmp_path, capsys, args):
    missing = tmp_path / "no-such-file"
    code = main([a.format(missing=missing, out=tmp_path / "out") for a in args])
    assert code == EXIT_USAGE == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rbfstudy {args[0]}: cannot read {missing}: No such file or directory\n"
    assert not (tmp_path / "out").exists()


def test_run_refuses_an_out_path_that_is_a_file_before_the_study(tmp_path, capsys,
                                                                  monkeypatch):
    out = tmp_path / "out"
    out.write_text("")
    monkeypatch.setattr("rbfstudy.cli.run_study", lambda config: pytest.fail("study ran"))
    code = main(["run", "--config", str(FIXTURES / "pilot_mq.json"), "--out", str(out)])
    assert code == EXIT_USAGE == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rbfstudy run: cannot make directory {out}: File exists\n"
    assert out.read_text() == ""


def test_fit_refuses_a_file_that_is_not_a_rows_csv(capsys):
    config = FIXTURES / "pilot_mq.json"
    code = main(["fit", "--rows", str(config)])
    assert code == EXIT_USAGE == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"rbfstudy fit: {config} is not a rows CSV: missing columns level, d, N, kernel, "
        "beta, c, alpha, sup_error, norm_f, regime, cond_estimate\n"
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda fields: fields[:-1], "10 fields, the header has 11"),
        (lambda fields: fields + ["1.0"], "12 fields, the header has 11"),
        (lambda fields: fields[:7] + ["abc"] + fields[8:], "sup_error 'abc' is not a number"),
    ],
    ids=["short-row", "long-row", "non-numeric-sup-error"],
)
def test_fit_refuses_a_malformed_row_naming_its_line(tmp_path, capsys, edit, message):
    lines = (GOLDEN / "pilot_mq" / "rows.csv").read_text().splitlines()
    lines[2] = ",".join(edit(lines[2].split(",")))
    rows = tmp_path / "rows.csv"
    rows.write_text("\n".join(lines) + "\n")
    code = main(["fit", "--rows", str(rows)])
    assert code == EXIT_USAGE == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rbfstudy fit: {rows} line 3: {message}\n"


def test_fit_refuses_a_header_that_repeats_a_column(tmp_path, capsys):
    # a second d column would otherwise win and give every row d = 7.0
    lines = (GOLDEN / "pilot_mq" / "rows.csv").read_text().splitlines()
    lines = [lines[0] + ",d"] + [line + ",7.0" for line in lines[1:]]
    rows = tmp_path / "rows.csv"
    rows.write_text("\n".join(lines) + "\n")
    code = main(["fit", "--rows", str(rows)])
    assert code == EXIT_USAGE == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rbfstudy fit: {rows} is not a rows CSV: repeated columns d\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gorny", "--trials", "-5"], "argument --trials: must be at least 1, got -5"),
        (["gorny", "--trials", "0"], "argument --trials: must be at least 1, got 0"),
        (["gorny", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
        (["--verbose", "run", "--config", "c.json", "--out", "out"],
         "unrecognized arguments: --verbose"),
        (["fit", "--rows", "rows.csv", "--model", "mq"], "unrecognized arguments: --model mq"),
    ],
    ids=["negative-trials", "zero-trials", "negative-seed", "verbose-before-run", "fit-model"],
)
def test_bad_argument_exits_2_before_any_work(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(message)


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
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path), "--verbose"])
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


def test_verbose_prints_a_failed_levels_reason(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    write_tiny_config(config_path, cond_limit=1e8, check_enabled=False)
    argv = ["run", "--config", str(config_path), "--out", str(tmp_path), "--verbose"]
    assert main(argv) == EXIT_PARTIAL
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("level ")]
    assert [line.split(":")[0] for line in lines] == [f"level {i}" for i in range(4)]
    failed = [line for line in lines if "sup_error=nan" in line]
    assert failed and all(
        re.search(r" failed: saddle-point system too ill-conditioned "
                  r"\(condition estimate \d\.\d{3}e\+\d+\)$", line) for line in failed)
    assert not any("failed" in line for line in lines if line not in failed)


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
