"""The reference check is not vacuous.

On the committed pilots it flags exactly the under-resolved pilot_gaussian
level 3, and it flags any row moved by 1e-3 relative, a refused level and a
wrong fill distance. Run with ``python3 -m pytest perfbench``.
"""

import json
import math

import pytest

import reference
import workloads

workloads.import_program()
from rbfstudy import cli  # noqa: E402
from rbfstudy.study import StudyConfig, build_approximand  # noqa: E402


def _study(tmp_path_factory, name, config):
    out = tmp_path_factory.mktemp(name)
    path = out / "config.json"
    path.write_text(json.dumps(config))
    cli.main(["run", "--config", str(path), "--out", str(out)])
    expansion = build_approximand(StudyConfig.from_dict(config))
    f = reference.Approximand(expansion.centers.points, expansion.weights, expansion.poly_coeffs)
    assert reference.check_approximand(config, f) == []
    return reference.read_rows(out / "rows.csv"), reference.expected_levels(config, f)


@pytest.fixture(scope="module")
def studies(tmp_path_factory):
    configs = workloads.configs("pilots_mp", workloads.DEFAULT_SEED)
    small = workloads.grid2d_eval(workloads.DEFAULT_SEED)
    small["refinement"]["spacings"] = [0.25, 0.125]
    small["probe_resolution"] = 41
    configs["grid2d_small"] = small
    return {name: _study(tmp_path_factory, name, c) for name, c in configs.items()}


def _failing(rows, expected):
    return [level for level, reasons in enumerate(reference.check_levels(rows, expected)) if reasons]


def test_only_gaussian_level_3_fails(studies):
    failing = {name: _failing(*study) for name, study in studies.items()}
    assert failing == {"pilot_mq": [], "pilot_gaussian": [3], "grid2d_small": []}
    rows, expected = studies["pilot_gaussian"]
    level3 = {r["alpha"]: r["sup_error"] for r in rows if r["level"] == 3}
    assert level3["0"] > 1e20 * expected[3]["errors"]["0"]
    assert expected[3]["dps"] > math.log10(expected[3]["cond"]) > 90


def _perturbed(rows, level, tag, key, factor):
    out = [dict(r) for r in rows]
    for r in out:
        if r["level"] == level and r["alpha"] == tag:
            r[key] *= factor
    return out


@pytest.mark.parametrize(
    "name, level, tag",
    [("pilot_mq", 0, "0"), ("pilot_mq", 3, "1"), ("pilot_gaussian", 2, "0"),
     ("grid2d_small", 1, "1-0")],
)
@pytest.mark.parametrize("factor", [1 + 1e-3, 1 - 1e-3])
def test_relative_perturbation_is_flagged(studies, name, level, tag, factor):
    rows, expected = studies[name]
    base = _failing(rows, expected)
    assert _failing(_perturbed(rows, level, tag, "sup_error", factor), expected) == sorted(
        set(base) | {level}
    )


def test_refused_level_and_wrong_fill_distance_are_flagged(studies):
    rows, expected = studies["pilot_mq"]
    assert _failing(_perturbed(rows, 1, "0", "sup_error", math.nan), expected) == [1]
    assert _failing(_perturbed(rows, 2, "1", "d", 1 + 1e-9), expected) == [2]
