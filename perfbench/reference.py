"""Independent references for the benchmark's correctness checks.

Nothing here imports rbfstudy. From a study config and the program's
approximand (centers, weights, polynomial part) this module rebuilds each
refinement level on its own: the nodes, the probe grids, the closed-form
kernel and its first derivatives, a dense solve of the saddle-point system
and a blocked sweep of f - s over the probes. Double-precision studies get
a float64 reference with a general LU solve (the program uses a symmetric
solver). Studies with ``solver_dps`` get an mpmath reference computed in
enough digits for the system's condition and confirmed at a higher
precision; these are cached in ``reference_pilots.json``, keyed by the full
study input. Rebuild the cache with::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from mpmath import mp, mpf

CACHE = Path(__file__).resolve().parent / "reference_pilots.json"

# A reported sup error may differ from the reference by this share of it.
# The pilot_mq level 3 row (condition about 6.5e46, solved at dps 50) sits
# 3.8e-6 from its reference, the double-precision 2D rows within 1e-7;
# a 1e-3 relative error is flagged with a tenfold margin.
REL_TOL = 1e-4
FILL_REL_TOL = 1e-12
NORM_TOL = 1e-9
MOMENT_TOL = 1e-10
# Extra digits beyond log10(condition) for the mp reference, and the
# further step used to confirm it.
MP_EXTRA_DIGITS = 80
MP_CONFIRM_DIGITS = 20
MP_CONFIRM_RTOL = 1e-12
BLOCK_BYTES = 32 * 2**20


# -- geometry ---------------------------------------------------------------


def _lattice(axes: list[np.ndarray]) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _radical_inverse(i: int, base: int) -> float:
    digits = []
    while i:
        i, r = divmod(i, base)
        digits.append(r)
    value = 0.0
    for r in reversed(digits):
        value = (value + r) / base
    return value


def study_nodes(config: dict, level: int) -> np.ndarray:
    """Interpolation nodes of one refinement level, shape (N, dim)."""
    dom, ref = config["domain"], config["refinement"]
    lo, side = np.asarray(dom["lower"], dtype=float), float(dom["side"])
    if ref["scheme"] == "grid":
        k = max(1, round(side / ref["spacings"][level])) + 1
        return _lattice([np.linspace(v, v + side, k) for v in lo])
    if ref["scheme"] == "halton":
        primes = (2, 3, 5, 7, 11, 13)
        count = ref["counts"][level]
        unit = np.array(
            [[_radical_inverse(i, primes[a]) for a in range(len(lo))] for i in range(1, count + 1)]
        )
        return lo + side * unit
    raise ValueError(f"no reference for refinement scheme {ref['scheme']!r}")


def probe_sets(config: dict) -> tuple[np.ndarray, np.ndarray]:
    """The value probes (faces included) and the derivative probes that keep
    a delta-ball inside the domain."""
    dom = config["domain"]
    lo, side = np.asarray(dom["lower"], dtype=float), float(dom["side"])
    res = int(config.get("probe_resolution", 201))
    probes = _lattice([np.linspace(v, v + side, res) for v in lo])
    delta = float(config.get("delta", 0.1))
    tol = 1e-12 * max(side, 1.0)
    inside = np.all((probes >= lo + delta - tol) & (probes <= lo + side - delta + tol), axis=1)
    return probes, probes[inside]


def pair_differences(points: np.ndarray, centers: np.ndarray) -> list[np.ndarray]:
    """Per-axis differences points[i] - centers[j], one (P, M) array per axis."""
    return [points[:, None, a] - centers[None, :, a] for a in range(points.shape[1])]


def brute_fill_distance(config: dict, nodes: np.ndarray) -> float:
    """Largest distance from the fill lattice (cell vertices and centers)
    to its nearest node, by scanning every node."""
    dom = config["domain"]
    lo, side = np.asarray(dom["lower"], dtype=float), float(dom["side"])
    dim = len(lo)
    res = config.get("fill_resolution") or (128 if dim <= 2 else 32)
    step = side / res
    lattice = np.vstack(
        [
            _lattice([v + step * np.arange(res + 1) for v in lo]),
            _lattice([v + step * (np.arange(res) + 0.5) for v in lo]),
        ]
    )
    block = max(1, BLOCK_BYTES // (8 * len(nodes)))
    worst = 0.0
    for start in range(0, len(lattice), block):
        d2 = sum(diff * diff for diff in pair_differences(lattice[start : start + block], nodes))
        worst = max(worst, float(np.max(np.min(d2, axis=1))))
    return math.sqrt(worst)


# -- kernels in closed form -------------------------------------------------


@dataclass(frozen=True)
class ClosedFormKernel:
    """Multiquadric ``gamma(-beta/2) (c^2 + r^2)^(beta/2)`` or Gaussian
    ``exp(-beta r^2)``, with first partial derivatives."""

    family: str
    beta: float
    c: float

    @classmethod
    def from_config(cls, config: dict) -> "ClosedFormKernel":
        k = config["kernel"]
        return cls(k["family"], float(k["beta"]), float(k.get("c") or 0.0))

    @property
    def poly_size(self) -> int:
        """Size of the augmentation basis; the references handle constants only."""
        m = math.ceil(self.beta / 2) if self.family == "multiquadric" and self.beta > 0 else 0
        if m > 1:
            raise ValueError("the references support CPD order <= 1 only")
        return m

    def __call__(self, diff: list[np.ndarray], axis: int | None = None) -> np.ndarray:
        """Value (axis None) or d/dx_axis at per-axis differences, as
        given by ``pair_differences``."""
        r2 = sum(d * d for d in diff)
        if self.family == "gaussian":
            g = np.exp(-self.beta * r2)
            return g if axis is None else -2.0 * self.beta * diff[axis] * g
        t = self.c**2 + r2
        gam = math.gamma(-self.beta / 2)
        if axis is None:
            return gam * t ** (self.beta / 2)
        return gam * self.beta * diff[axis] * t ** (self.beta / 2 - 1)

    def mp_eval(self, diff: list, axis: int | None = None):
        r2 = sum(v * v for v in diff)
        beta = mpf(self.beta)
        if self.family == "gaussian":
            g = mp.exp(-beta * r2)
            return g if axis is None else -2 * beta * diff[axis] * g
        t = mpf(self.c) ** 2 + r2
        gam = mp.gamma(-beta / 2)
        if axis is None:
            return gam * t ** (beta / 2)
        return gam * beta * diff[axis] * t ** (beta / 2 - 1)


@dataclass(frozen=True)
class Approximand:
    """The program's approximand, as plain arrays."""

    centers: np.ndarray
    weights: np.ndarray
    poly: np.ndarray


def check_approximand(config: dict, f: Approximand) -> list[str]:
    """Problems with the approximand: moment conditions and unit native norm."""
    kernel = ClosedFormKernel.from_config(config)
    problems = []
    spec = config["approximand"]["centers"]
    if spec.get("scheme") == "explicit" and not np.array_equal(
        f.centers, np.asarray(spec["points"], dtype=float).reshape(f.centers.shape)
    ):
        problems.append("approximand centers differ from the config")
    if kernel.poly_size and abs(float(np.sum(f.weights))) > MOMENT_TOL * (
        1.0 + float(np.linalg.norm(f.weights))
    ):
        problems.append(f"moment condition violated: sum of weights {np.sum(f.weights):.3e}")
    gram = kernel(pair_differences(f.centers, f.centers))
    norm = math.sqrt(max(float(f.weights @ gram @ f.weights), 0.0))
    if abs(norm - 1.0) > NORM_TOL:
        problems.append(f"native norm {norm!r}, expected 1")
    return problems


# -- double-precision reference ---------------------------------------------


def _sup_abs(kernel, centers, weights, const, points, axis) -> float:
    block = max(1, BLOCK_BYTES // (8 * len(centers)))
    worst = 0.0
    for start in range(0, len(points), block):
        vals = kernel(pair_differences(points[start : start + block], centers), axis) @ weights
        if axis is None:
            vals = vals + const
        worst = max(worst, float(np.max(np.abs(vals))))
    return worst


def double_errors(config: dict, f: Approximand, nodes: np.ndarray) -> dict[str, float]:
    """Sup errors of one level, row tag -> error, in float64."""
    kernel = ClosedFormKernel.from_config(config)
    n, q = len(nodes), kernel.poly_size
    system = np.zeros((n + q, n + q))
    system[:n, :n] = kernel(pair_differences(nodes, nodes))
    if q:
        system[:n, n] = system[n, :n] = 1.0
    f_const = float(f.poly[0]) if q and len(f.poly) else 0.0
    rhs = np.zeros(n + q)
    rhs[:n] = kernel(pair_differences(nodes, f.centers)) @ f.weights + f_const
    sol = np.linalg.solve(system, rhs)
    centers = np.vstack([f.centers, nodes])
    weights = np.concatenate([f.weights, -sol[:n]])
    const = f_const - (float(sol[n]) if q else 0.0)
    probes, inner = probe_sets(config)
    errors = {"0": _sup_abs(kernel, centers, weights, const, probes, None)}
    for alpha in config["derivatives"]["orders"]:
        errors[_tag(alpha)] = _sup_abs(kernel, centers, weights, const, inner, _axis(alpha))
    return errors


def _tag(alpha) -> str:
    return "-".join(str(int(a)) for a in alpha)


def _axis(alpha) -> int:
    if sorted(alpha) != [0] * (len(alpha) - 1) + [1]:
        raise ValueError(f"the references support first derivatives only, got {alpha}")
    return list(alpha).index(1)


# -- extended-precision reference -------------------------------------------


def _mp_points(points: np.ndarray) -> list[list]:
    return [[mpf(float(v)) for v in row] for row in points]


def _mp_system(kernel: ClosedFormKernel, nodes: list[list]):
    """Saddle-point matrix at the current mp precision."""
    n, q = len(nodes), kernel.poly_size
    system = mp.matrix(n + q, n + q)
    for i, xi in enumerate(nodes):
        for j in range(i, n):
            system[i, j] = system[j, i] = kernel.mp_eval([a - b for a, b in zip(xi, nodes[j])])
        if q:
            system[i, n] = system[n, i] = mpf(1)
    return system


def _mp_condition(kernel: ClosedFormKernel, nodes: np.ndarray) -> float:
    """1-norm condition of the system, in enough digits to resolve it."""
    dps = 40
    while True:
        with mp.workdps(dps):
            system = _mp_system(kernel, _mp_points(nodes))
            try:
                cond = mp.mnorm(system, 1) * mp.mnorm(mp.inverse(system), 1)
            except ZeroDivisionError:
                cond = None
            if cond is not None and mp.log10(cond) < dps - 20:
                return float(cond)
            dps = 2 * dps if cond is None else int(mp.ceil(mp.log10(cond))) + 40


def _mp_sweep(kernel: ClosedFormKernel, config: dict, f: Approximand, nodes: np.ndarray,
              dps: int) -> dict:
    with mp.workdps(dps):
        q = kernel.poly_size
        mnodes, mcenters = _mp_points(nodes), _mp_points(f.centers)
        mweights = [mpf(float(v)) for v in f.weights]
        f_const = mpf(float(f.poly[0])) if q and len(f.poly) else mpf(0)
        n = len(mnodes)
        rhs = mp.matrix(n + q, 1)
        for i, x in enumerate(mnodes):
            rhs[i] = f_const + sum(
                w * kernel.mp_eval([a - b for a, b in zip(x, z)])
                for z, w in zip(mcenters, mweights)
            )
        sol = mp.lu_solve(_mp_system(kernel, mnodes), rhs)
        centers = mcenters + mnodes
        weights = mweights + [-sol[i] for i in range(n)]
        const = f_const - (sol[n] if q else 0)

        def sup(points, axis):
            worst = mpf(0)
            for x in _mp_points(points):
                val = sum(
                    w * kernel.mp_eval([a - b for a, b in zip(x, z)], axis)
                    for z, w in zip(centers, weights)
                )
                if axis is None:
                    val += const
                worst = max(worst, abs(val))
            return worst

        probes, inner = probe_sets(config)
        errors = {"0": sup(probes, None)}
        for alpha in config["derivatives"]["orders"]:
            errors[_tag(alpha)] = sup(inner, _axis(alpha))
        return errors


def mp_errors(config: dict, f: Approximand, nodes: np.ndarray) -> dict:
    """Sup errors of one level in mp arithmetic, with the digits used.

    The precision is log10(condition) + MP_EXTRA_DIGITS; the sweep is redone
    MP_CONFIRM_DIGITS higher and must agree to MP_CONFIRM_RTOL.
    """
    kernel = ClosedFormKernel.from_config(config)
    cond = _mp_condition(kernel, nodes)
    dps = math.ceil(math.log10(max(cond, 1.0))) + MP_EXTRA_DIGITS
    errors = _mp_sweep(kernel, config, f, nodes, dps)
    confirm = _mp_sweep(kernel, config, f, nodes, dps + MP_CONFIRM_DIGITS)
    for tag, value in errors.items():
        if abs(value - confirm[tag]) > MP_CONFIRM_RTOL * abs(confirm[tag]):
            raise RuntimeError(f"mp reference unresolved at dps {dps} for row {tag}")
    return {"dps": dps, "cond": cond, "errors": {t: float(v) for t, v in errors.items()}}


# -- expected levels and the check ------------------------------------------


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def cache_key(config: dict, f: Approximand) -> str:
    """Digest of the full study input: the config and the approximand's bits."""
    payload = {
        "config": config,
        "centers": _hex(f.centers),
        "weights": _hex(f.weights),
        "poly": _hex(f.poly),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _level_count(config: dict) -> int:
    ref = config["refinement"]
    return len(ref["spacings"] if ref["scheme"] == "grid" else ref["counts"])


def _load_cache() -> dict:
    return json.loads(CACHE.read_text()) if CACHE.is_file() else {}


def mp_reference(config: dict, f: Approximand) -> list[dict]:
    """Per-level mp errors, from the cache when it holds this study input."""
    key = cache_key(config, f)
    cache = _load_cache()
    if key in cache:
        return cache[key]
    levels = [mp_errors(config, f, study_nodes(config, i)) for i in range(_level_count(config))]
    cache[key] = levels
    CACHE.write_text(json.dumps(cache, indent=1, sort_keys=True) + "\n")
    return levels


def expected_levels(config: dict, f: Approximand) -> list[dict]:
    """Per level: node count, brute-force fill distance and reference errors."""
    mp_levels = mp_reference(config, f) if config["tolerances"].get("solver_dps") else None
    out = []
    for i in range(_level_count(config)):
        nodes = study_nodes(config, i)
        level = {"N": len(nodes), "d": brute_fill_distance(config, nodes)}
        if mp_levels is not None:
            level.update(mp_levels[i])
        else:
            level["errors"] = double_errors(config, f, nodes)
        out.append(level)
    return out


def read_rows(path) -> list[dict]:
    """rows.csv as dicts, numeric columns parsed."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["level"], row["N"] = int(row["level"]), int(row["N"])
        for key in ("d", "sup_error", "norm_f"):
            row[key] = float(row[key])
    return rows


def check_levels(rows: list[dict], expected: list[dict]) -> list[list[str]]:
    """For each expected level, the reasons it fails; an empty list passes.

    A level fails when the program refused it (NaN errors), or when its node
    count, fill distance, approximand norm or any sup error disagrees with
    the reference.
    """
    verdicts = []
    for level, exp in enumerate(expected):
        got = {row["alpha"]: row for row in rows if row["level"] == level}
        reasons = []
        if set(got) != set(exp["errors"]):
            reasons.append(f"rows {sorted(got)}, expected {sorted(exp['errors'])}")
        for tag, row in sorted(got.items()):
            ref = exp["errors"].get(tag)
            if math.isnan(row["sup_error"]):
                reasons.append(f"row {tag}: refused by the program")
            elif ref is not None and not math.isclose(row["sup_error"], ref, rel_tol=REL_TOL):
                reasons.append(f"row {tag}: sup error {row['sup_error']!r}, reference {ref!r}")
            if row["N"] != exp["N"]:
                reasons.append(f"row {tag}: N {row['N']}, expected {exp['N']}")
            if not math.isclose(row["d"], exp["d"], rel_tol=FILL_REL_TOL):
                reasons.append(f"row {tag}: fill distance {row['d']!r}, brute force {exp['d']!r}")
            if abs(row["norm_f"] - 1.0) > NORM_TOL:
                reasons.append(f"row {tag}: norm_f {row['norm_f']!r}, expected 1")
        verdicts.append(reasons)
    return verdicts


def main() -> int:
    """Rebuild the cached mp references of every workload that uses them."""
    import workloads

    workloads.import_program()
    from rbfstudy.study import StudyConfig, build_approximand

    CACHE.unlink(missing_ok=True)
    for name, config in workloads.configs("pilots_mp", workloads.DEFAULT_SEED).items():
        expansion = build_approximand(StudyConfig.from_dict(config))
        f = Approximand(expansion.centers.points, expansion.weights, expansion.poly_coeffs)
        for i, level in enumerate(mp_reference(config, f)):
            print(f"{name} level {i}: dps {level['dps']} cond {level['cond']:.3e} "
                  f"errors {level['errors']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
