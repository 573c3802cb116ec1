"""Workload definitions: the study configs each workload runs.

The configs are plain JSON dicts, generated from the workload seed, so the
program only ever sees the generated inputs. ``pilots_mp`` runs byte-for-byte
copies of the two committed pilot configs and ignores the seed: its known
failing level must not depend on the seed. The 2D workloads take their
approximand weights seed and their external centers from the seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# The pilot configs use weights_seed 11; the same default keeps a run
# without --seed comparable with the committed pilots.
DEFAULT_SEED = 11

PILOT_CONFIGS = ("pilot_mq.json", "pilot_gaussian.json")


def import_program():
    """Import rbfstudy from this checkout's ``src`` and nowhere else."""
    if not (SRC / "rbfstudy" / "__init__.py").is_file():
        raise SystemExit(f"no rbfstudy sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rbfstudy

    origin = Path(rbfstudy.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"rbfstudy imported from {origin}, not from {SRC}")
    return rbfstudy


def external_centers(seed: int, count: int = 8) -> list[list[float]]:
    """Approximand centers drawn in [-0.6, 1.6]^2 outside [-0.05, 1.05]^2.

    Centers outside the unit square keep the approximand smooth on the
    domain and avoid the interior superconvergence that centers on nodes
    would cause.
    """
    rng = np.random.default_rng(seed)
    out: list[list[float]] = []
    while len(out) < count:
        p = rng.uniform(-0.6, 1.6, 2)
        if np.any(p < -0.05) or np.any(p > 1.05):
            out.append([float(v) for v in p])
    return out


def _mq2d(seed: int) -> dict:
    return {
        "version": 1,
        "kernel": {"family": "multiquadric", "beta": 1.0, "c": 0.1, "dim": 2},
        "domain": {"lower": [0.0, 0.0], "side": 1.0},
        "approximand": {
            "centers": {"scheme": "explicit", "points": external_centers(seed)},
            "weights_seed": seed,
            "weights_scale": 1.0,
            "normalize": True,
            "poly": None,
        },
        "delta": 0.1,
        "fill_resolution": 128,
        "tolerances": {"cond_limit": 1e18, "solver_dps": None},
        "seed": seed,
        "check": {"enabled": True, "min_pass_fraction": 0.8, "deriv_norm_scale": 0.001},
    }


def grid2d_eval(seed: int) -> dict:
    """Few, small solves; value and both first partials on 201^2 probes."""
    config = _mq2d(seed)
    config["refinement"] = {"scheme": "grid", "spacings": [0.2, 0.1, 0.05]}
    config["derivatives"] = {"orders": [[1, 0], [0, 1]], "l": 2}
    config["probe_resolution"] = 201
    return config


def halton2d_solve(seed: int) -> dict:
    """Up to 2000 Halton nodes; values only, on a 41^2 probe grid."""
    config = _mq2d(seed)
    config["refinement"] = {"scheme": "halton", "counts": [250, 500, 1000, 2000]}
    config["derivatives"] = {"orders": [], "l": 2}
    config["probe_resolution"] = 41
    return config


def configs(workload: str, seed: int) -> dict[str, dict]:
    """Study name -> config dict, in the order the workload runs them."""
    if workload == "pilots_mp":
        return {
            name.removesuffix(".json"): json.loads((BENCH_DIR / "configs" / name).read_text())
            for name in PILOT_CONFIGS
        }
    if workload == "grid2d_eval":
        return {"grid2d": grid2d_eval(seed)}
    if workload == "halton2d_solve":
        return {"halton2d": halton2d_solve(seed)}
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("pilots_mp", "grid2d_eval", "halton2d_solve")
