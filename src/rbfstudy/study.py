"""Refinement-study harness.

A study fixes a kernel, a cube domain, and a synthetic approximand built
as a finite kernel expansion (so its native norm is exact), then sweeps a
refinement sequence of node sets. Each level records the fill distance,
the sup error of the interpolant, and the sup error of each requested
derivative over probe points keeping a safety ball inside the domain.
After the sweep the decay rates are fitted and the interpolated
derivative bound is checked row by row, with its single free constant
calibrated on the coarsest level so the remaining levels test the
exponent structure.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np
from mpmath.libmp import round_nearest, to_float

from rbfstudy import bounds, highprec
from rbfstudy.bounds import GaussianRateFit, MQRateFit, fit_report_dict, gorny_oracle_check
from rbfstudy.configvalues import (check, choice, flag, integer, key, list_of, nested, number,
                                   read, write)
from rbfstudy.geometry import (
    CubeDomain,
    PointSet,
    default_fill_resolution,
    fill_distance,
    generate_points,
    uniform_grid,
)
from rbfstudy.interpolant import (
    DEFAULT_COND_LIMIT,
    KernelExpansion,
    SingularSystemError,
    assemble_system,
    check_determining_set,
    interpolate_expansion,
)
from rbfstudy.kernels import Kernel, KernelFamily
from rbfstudy.polybasis import MonomialBasis, basis_matrix

CONFIG_VERSION = 1
CSV_HEADER = "level,d,N,kernel,beta,c,alpha,sup_error,norm_f,regime,cond_estimate"

VALUE_TAG = "0"
NO_REGIME = "-"

# Largest probe or fill lattice a config may ask for. A 3D lattice of this
# many points already takes 400 MB for its coordinates alone.
MAX_LATTICE_POINTS = 2**24

# Decimal digits double precision carries; a solver_dps at or below it would
# measure errors no finer than the double path does.
DOUBLE_DIGITS = 15


def alpha_tag(alpha) -> str:
    return "-".join(str(int(a)) for a in alpha)


@dataclass(frozen=True)
class ApproximandSpec:
    """Recipe for the synthetic kernel-expansion approximand.

    Centers come from a generator scheme or, with scheme "explicit", from
    the ``centers_points`` list directly.
    """

    centers_scheme: str = key("centers.scheme", choice("random", "grid", "halton", "explicit"),
                              "random")
    centers_count: int | None = key("centers.count", integer(1), 5, null=True)
    centers_spacing: float | None = key("centers.spacing", number, None, null=True)
    centers_seed: int | None = key("centers.seed", integer(0), 101, null=True)
    centers_points: tuple[tuple[float, ...], ...] | None = key(
        "centers.points", list_of(list_of(number)), None, null=True)
    weights_seed: int = key("weights_seed", integer(0), 11)
    weights_scale: float = key("weights_scale", number, 1.0)
    normalize: bool = key("normalize", flag, True)
    poly: tuple[float, ...] | None = key("poly", list_of(number), None, null=True)

    def __post_init__(self):
        check(self, "approximand")
        scheme, spacing = self.centers_scheme, self.centers_spacing
        if scheme == "explicit" and not self.centers_points:
            raise ValueError("approximand.centers.points must list at least one point for "
                             "explicit centers")
        points = self.centers_points or ()
        for i, point in enumerate(points):
            if point in points[:i]:
                raise ValueError(f"approximand.centers.points repeats the point {list(point)}")
        if scheme == "grid" and (spacing is None or not spacing > 0.0):
            raise ValueError(f"approximand.centers.spacing must be a number > 0 for grid "
                             f"centers, got {spacing!r}")
        if scheme in ("halton", "random") and self.centers_count is None:
            raise ValueError(f"approximand.centers.count must be an integer for {scheme} centers")
        # random centers without a seed would differ from run to run
        if scheme == "random" and self.centers_seed is None:
            raise ValueError("approximand.centers.seed must be an integer for random centers")

    to_dict = write

    @classmethod
    def from_dict(cls, d: dict) -> "ApproximandSpec":
        return read(cls, d, "approximand")


def _check_lattice_size(name: str, points: int, dim: int) -> None:
    if points > MAX_LATTICE_POINTS:
        raise ValueError(
            f"{name} asks for a lattice of {points:,} points in {dim}D, which needs "
            f"{points * dim * 8:,} bytes for its coordinates alone; the limit is "
            f"{MAX_LATTICE_POINTS:,} points"
        )


@dataclass(frozen=True)
class StudyConfig:
    """Full description of one refinement study."""

    kernel: Kernel = key("kernel", nested(Kernel))
    domain: CubeDomain = key("domain", nested(CubeDomain))
    approximand: ApproximandSpec = key("approximand", nested(ApproximandSpec), ApproximandSpec())
    refinement_scheme: str = key("refinement.scheme", choice("grid", "halton", "random"), "grid")
    spacings: tuple[float, ...] | None = key("refinement.spacings", list_of(number), None)
    counts: tuple[int, ...] | None = key("refinement.counts", list_of(integer(1)), None)
    deriv_orders: tuple[tuple[int, ...], ...] = key(
        "derivatives.orders", list_of(list_of(integer(0))), ())
    smoothness_order: int = key("derivatives.l", integer(1), 2)
    delta: float = key("delta", number, 0.1)
    probe_resolution: int = key("probe_resolution", integer(2), 201)
    fill_resolution: int | None = key("fill_resolution", integer(1), None, null=True)
    cond_limit: float = key("tolerances.cond_limit", number, DEFAULT_COND_LIMIT)
    solver_dps: int | None = key("tolerances.solver_dps", integer(DOUBLE_DIGITS + 1), None,
                                   null=True)
    seed: int = key("seed", integer(0), 7)
    check_enabled: bool = key("check.enabled", flag, True)
    check_min_pass_fraction: float = key("check.min_pass_fraction", number, 0.8)
    deriv_norm_scale: float = key("check.deriv_norm_scale", number, 1.0)
    _version: int = key("version", choice(CONFIG_VERSION), CONFIG_VERSION, init=False)

    def __post_init__(self):
        check(self)
        dim = self.kernel.dim
        if self.domain.dim != dim:
            raise ValueError(f"domain.lower has {self.domain.dim} coordinates, kernel.dim {dim}")
        if any(len(p) != dim for p in self.approximand.centers_points or ()):
            raise ValueError(f"approximand.centers.points must hold points of kernel.dim {dim} "
                             f"coordinates, got {self.approximand.centers_points}")
        grid = self.refinement_scheme == "grid"
        used, unused = ("spacings", "counts") if grid else ("counts", "spacings")
        sizes = getattr(self, used)
        if not sizes:
            raise ValueError(f"the {self.refinement_scheme} refinement scheme needs "
                             f"refinement.{used}")
        if getattr(self, unused) is not None:
            raise ValueError(f"refinement.{unused} is not used by the "
                             f"{self.refinement_scheme} refinement scheme")
        if any(b >= a if grid else b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"refinement.{used} must be strictly "
                             f"{'decreasing' if grid else 'increasing'}, got {sizes}")
        if grid and not sizes[-1] > 0.0:
            raise ValueError(f"refinement.spacings must be > 0, got {sizes}")
        for i, alpha in enumerate(self.deriv_orders):
            if len(alpha) != dim:
                raise ValueError(f"multi-index {alpha} does not match dim {dim}")
            if alpha in self.deriv_orders[:i]:
                raise ValueError(f"derivatives.orders repeats the order {list(alpha)}")
            k = sum(alpha)
            if not (0 < k < self.smoothness_order):
                raise ValueError(
                    f"derivative order {k} must satisfy 0 < order < {self.smoothness_order}"
                )
        if not (0.0 < self.delta < self.domain.side / 2.0):
            raise ValueError(
                f"delta must lie in (0, side/2) so probes keep a ball inside the domain, "
                f"got {self.delta}"
            )
        for name, value in (("tolerances.cond_limit", self.cond_limit),
                            ("check.deriv_norm_scale", self.deriv_norm_scale)):
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if not 0.0 <= self.check_min_pass_fraction <= 1.0:
            raise ValueError(
                f"check.min_pass_fraction must lie in [0, 1], got {self.check_min_pass_fraction}"
            )
        fill_res = self.fill_resolution or default_fill_resolution(dim)
        _check_lattice_size("probe_resolution", self.probe_resolution**dim, dim)
        _check_lattice_size("fill_resolution", (fill_res + 1) ** dim + fill_res**dim, dim)
        # uniform_grid's axes: the lattice, their product, has an inner probe when each axis does
        axes = np.stack([np.linspace(lo, lo + self.domain.side, self.probe_resolution)
                         for lo in self.domain.lower], axis=-1)
        if not _keeps_ball(self.domain, axes, self.delta).any(axis=0).all():
            raise ValueError(f"no probe of a probe_resolution {self.probe_resolution} lattice "
                             f"keeps a delta-ball of {self.delta} inside the domain")

    @property
    def levels(self) -> int:
        return len(self.spacings) if self.refinement_scheme == "grid" else len(self.counts)

    to_dict = write

    @classmethod
    def from_dict(cls, d: dict) -> "StudyConfig":
        return read(cls, d)

    @classmethod
    def load_json(cls, path) -> "StudyConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


class ZeroNormError(ValueError):
    """The approximand to normalize has zero native norm."""


def build_approximand(config: StudyConfig) -> KernelExpansion:
    """Construct the study's kernel-expansion approximand.

    Random weights are projected onto the moment-condition subspace when
    the kernel needs polynomial augmentation, then optionally rescaled to
    unit native norm; ZeroNormError says why one of zero norm cannot be.
    Deterministic for fixed seeds.
    """
    spec = config.approximand
    if spec.centers_scheme == "explicit":
        centers = PointSet.from_array(np.asarray(spec.centers_points, dtype=float))
    else:
        centers = generate_points(
            config.domain,
            spec.centers_scheme,
            spacing=spec.centers_spacing,
            count=spec.centers_count,
            seed=spec.centers_seed,
        )
    rng = np.random.default_rng(spec.weights_seed)
    weights = spec.weights_scale * rng.standard_normal(len(centers))
    m = config.kernel.cpd_order
    if m >= 1:
        basis = MonomialBasis.for_cpd_order(config.kernel.dim, m)
        pmat = basis_matrix(basis, centers.points)
        projection, *_ = np.linalg.lstsq(pmat, weights, rcond=None)
        weights = weights - pmat @ projection
    poly = np.asarray(spec.poly, dtype=float) if spec.poly is not None else None
    f = KernelExpansion(config.kernel, centers, weights, poly)
    if spec.normalize:
        norm = f.native_norm()
        if norm <= 0.0:
            why = ("approximand.weights_scale is 0" if spec.weights_scale == 0.0 else
                   f"the moment conditions zero the weights of its centers ({len(centers)}); "
                   "give it more centers")
            raise ZeroNormError(f"the approximand has zero native norm, so it cannot be "
                                f"normalized: {why}")
        f = KernelExpansion(config.kernel, centers, weights / norm, poly)
    return f


@dataclass(frozen=True)
class LevelRecord:
    """One refinement level as measured; ``mp`` is never written out."""

    level: int
    d: float
    n_points: int
    errors: tuple[float, ...]  # value first, then deriv_orders; NaN when the level failed
    cond_estimate: float
    mp: dict | None = None  # highprec.measure_level's stats; None in double or on failure
    failure: str | None = None  # the SingularSystemError's message


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    levels: tuple[LevelRecord, ...]  # in level order
    fits: dict[str, MQRateFit | GaussianRateFit | None]
    approximand_norm: float

    @property
    def failed_levels(self) -> int:
        return sum(record.failure is not None for record in self.levels)

    def samples(self, tag: str) -> list[tuple[float, float]]:
        """Fit samples for one row tag, coarsest first (``bounds.usable_samples``)."""
        return _samples(self.config, self.levels, tag)


def _tags(config: StudyConfig) -> list[str]:
    """Row tags in the order of a record's errors: the value, then deriv_orders."""
    return [VALUE_TAG] + [alpha_tag(a) for a in config.deriv_orders]


def _coarse_to_fine(config: StudyConfig, levels, tag: str) -> list[tuple[LevelRecord, float]]:
    """Each level's (record, error) for one row tag, by (-d, level): a Halton or
    random study's d need not fall with the level, and the fits' bits depend
    on their sample order."""
    index = _tags(config).index(tag)
    return [(r, r.errors[index]) for r in sorted(levels, key=lambda r: (-r.d, r.level))]


def _samples(config: StudyConfig, levels, tag: str) -> list[tuple[float, float]]:
    return bounds.usable_samples((r.d, error) for r, error in _coarse_to_fine(config, levels, tag))


def _level_nodes(config: StudyConfig, level: int) -> PointSet:
    if config.refinement_scheme == "grid":
        return generate_points(config.domain, "grid", spacing=config.spacings[level])
    count = config.counts[level]
    if config.refinement_scheme == "halton":
        return generate_points(config.domain, "halton", count=count)
    return generate_points(
        config.domain, "random", count=count, seed=(config.seed, level)
    )


def _keeps_ball(domain: CubeDomain, coords: np.ndarray, delta: float) -> np.ndarray:
    """Per coordinate of ``coords`` (..., dim): whether it lies delta inside the faces."""
    tol = 1e-12 * max(domain.side, 1.0)
    lo = np.asarray(domain.lower)
    hi = lo + domain.side
    return (coords >= lo + delta - tol) & (coords <= hi - delta + tol)


def _inner_probe_mask(domain: CubeDomain, probes: np.ndarray, delta: float) -> np.ndarray:
    return np.all(_keeps_ball(domain, probes, delta), axis=1)


def _fit_samples(family: KernelFamily, samples):
    try:
        return bounds.fit_rate(family, samples)
    except ValueError:
        return None


def _double_measure(config, f, probes, inner_mask):
    """``measure(nodes) -> (errors, cond, None)`` in double precision;
    errors are value-first sups.

    Each probe is visited once per expansion: the value alone on the outer
    probes, and the value with every derivative order in one pass on the
    inner ones, so the value sup is the larger of two sups. f is swept once
    per study, and each level's interpolant once.
    """
    outer, inner = probes[~inner_mask], probes[inner_mask]
    orders = [(0,) * config.kernel.dim] + list(config.deriv_orders)

    def sweep(expansion):
        return [np.atleast_1d(expansion.evaluate(outer))] + [
            np.atleast_1d(v) for v in expansion.evaluate_derivatives(orders, inner)
        ]

    f_values = sweep(f)

    def measure(nodes):
        interp = interpolate_expansion(f, nodes, cond_limit=config.cond_limit)
        sups = [float(np.max(np.abs(fv - sv), initial=0.0))
                for fv, sv in zip(f_values, sweep(interp))]
        return (float(np.max(sups[:2])), *sups[2:]), interp.cond_estimate, None

    return measure


def _mp_measure(config, f, probes, inner_mask):
    """``_double_measure`` at ``solver_dps``, with ``highprec.measure_level``'s
    stats in place of None: the study's MpCore, built at that dps with one
    kernel memo for f and every level, and f in mp are built once per study;
    each level's mpf sups are rounded to the nearest float. Nodes that are
    not a determining set fail the level as in ``solve``, before the double
    condition gate."""
    core = highprec.MpCore(config.kernel, config.deriv_orders, config.solver_dps)
    f_mp = highprec.approximand_on_probes(core, f, probes, inner_mask)
    inner = probes[inner_mask]

    def measure(nodes):
        check_determining_set(config.kernel, nodes)
        system, _ = assemble_system(config.kernel, nodes)
        cond = highprec.estimate_condition(system)
        if cond > config.cond_limit:
            raise SingularSystemError("saddle-point system too ill-conditioned", cond)
        sups, stats = highprec.measure_level(
            config.kernel, f.centers.points, f.weights, f.poly_coeffs, nodes.points, probes,
            inner, config.deriv_orders, f_mp, cond, core,
        )
        # to the nearest double; float(mpf) would round by mpmath's context
        return tuple(to_float(w._mpf_, rnd=round_nearest) for w in sups), cond, stats

    return measure


def run_study(config: StudyConfig) -> StudyResult:
    """Run the refinement sweep and fit decay rates.

    A measure built once per study, in double or, with ``solver_dps`` set,
    in extended precision, holds f on the probes and gives each level's sup
    errors and condition estimate; extended precision tracks the true decay
    below double's noise floor. Each level gives one ``LevelRecord``; a
    failed solve (a singular or too ill-conditioned system) gives NaN errors,
    which the fits exclude, and its reason. Deterministic for a fixed config.
    """
    f = build_approximand(config)
    norm_f = f.native_norm()
    probes = uniform_grid(config.domain, config.probe_resolution)
    inner_mask = _inner_probe_mask(config.domain, probes, config.delta)
    if config.solver_dps is None:
        measure = _double_measure(config, f, probes, inner_mask)
    else:
        measure = _mp_measure(config, f, probes, inner_mask)

    tags = _tags(config)
    records: list[LevelRecord] = []
    fill_res = config.fill_resolution or default_fill_resolution(config.domain.dim)
    for level in range(config.levels):
        nodes = _level_nodes(config, level)
        d = fill_distance(config.domain, nodes, fill_res)
        try:
            records.append(LevelRecord(level, d, len(nodes), *measure(nodes)))
        except SingularSystemError as exc:
            records.append(LevelRecord(level, d, len(nodes), (float("nan"),) * len(tags),
                                       exc.cond_estimate, failure=str(exc)))

    fits = {tag: _fit_samples(config.kernel.family, _samples(config, records, tag)) for tag in tags}
    return StudyResult(config, tuple(records), fits, norm_f)


def _row_bound(result: StudyResult, base, k: int, d: float, constant: float = 1.0):
    """The derivative bound of an order-k row at fill distance d, from the
    base error ``base`` of the study's value fit and, from its config, the
    top order, the ball and the ceiling ``deriv_norm_scale * |f|_h``: the
    one place a row's bound and regime are decided."""
    config = result.config
    return bounds.derivative_bound(k, config.smoothness_order, config.delta, base(d),
                                   config.deriv_norm_scale * result.approximand_norm, constant)


def _derivative_rows(result: StudyResult):
    """(tag, order, finite (record, error) pairs coarsest first) per derivative order."""
    for alpha in result.config.deriv_orders:
        tag = alpha_tag(alpha)
        pairs = _coarse_to_fine(result.config, result.levels, tag)
        yield tag, sum(alpha), [(r, error) for r, error in pairs if math.isfinite(error)]


@dataclass
class CheckRow:
    level: int
    d: float
    alpha_tag: str
    error: float
    bound: float
    margin: float
    regime: str
    calibration: bool


@dataclass
class CheckReport:
    rows: list[CheckRow]
    constants: dict[str, float]
    pass_fraction: float
    regime_counts: dict[str, int]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "constants": self.constants,
            "pass_fraction": self.pass_fraction,
            "regime_counts": self.regime_counts,
            "passed": self.passed,
            "rows": [dataclasses.asdict(r) for r in self.rows],
        }


def check_bounds(result: StudyResult) -> CheckReport:
    """Check each derivative row against the interpolated bound.

    The base error comes from the study's value fit (``bounds.base_error``);
    a fit that cannot be a contracting base error raises ValueError naming
    why. The bound constant is calibrated per derivative order on the
    coarsest solved level (that row has margin 1 by construction and is
    excluded from the pass count); the remaining rows then probe the
    exponent structure of the bound.
    """
    fit = result.fits.get(VALUE_TAG)
    base = bounds.base_error(fit, result.approximand_norm)
    if base is None:
        raise ValueError("the value fit gives no contracting base error: "
                         + bounds.base_error_fault(fit, result.approximand_norm))

    check_rows: list[CheckRow] = []
    constants: dict[str, float] = {}
    regime_counts = {bounds.SMALL_D: 0, bounds.LARGE_D: 0}
    passes = total = 0
    for tag, k, pairs in _derivative_rows(result):
        if not pairs:
            continue
        coarsest, coarsest_error = pairs[0]
        raw = _row_bound(result, base, k, coarsest.d)
        if raw.value <= 0.0 or coarsest_error <= 0.0:
            continue
        constant = coarsest_error / raw.value
        constants[tag] = constant
        for i, (record, error) in enumerate(pairs):
            db = _row_bound(result, base, k, record.d, constant)
            margin = db.value / error if error > 0.0 else float("inf")
            is_calib = i == 0
            check_rows.append(CheckRow(record.level, record.d, tag, error, db.value, margin,
                                       db.regime, is_calib))
            regime_counts[db.regime] += 1
            if not is_calib:
                total += 1
                if margin >= 1.0 - 1e-9:
                    passes += 1
    pass_fraction = passes / total if total else 1.0
    return CheckReport(check_rows, constants, pass_fraction, regime_counts,
                       pass_fraction >= result.config.check_min_pass_fraction)


def write_rows_csv(result: StudyResult, path) -> None:
    """Emit the level records as CSV rows (LF endings, '.' decimal), coarse to
    fine, the value row first within a level. A row the check walks carries
    its regime when the value fit gives a base error; others carry NO_REGIME."""
    config, kernel = result.config, result.config.kernel
    kernel_fields = [kernel.family.value, repr(float(kernel.beta)),
                     repr(float(kernel.c)) if kernel.c is not None else "nan"]
    base = bounds.base_error(result.fits.get(VALUE_TAG), result.approximand_norm)
    regimes = {} if base is None else {
        (tag, record.level): _row_bound(result, base, k, record.d).regime
        for tag, k, pairs in _derivative_rows(result) for record, _ in pairs}
    tags = sorted(_tags(config), key=lambda tag: (tag != VALUE_TAG, tag))
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        # each tag's pairs run coarse to fine, so each step of the zip is one level
        for level_pairs in zip(*(_coarse_to_fine(config, result.levels, tag) for tag in tags)):
            for tag, (record, error) in zip(tags, level_pairs):
                fields = [str(record.level), repr(float(record.d)), str(record.n_points),
                          *kernel_fields, tag, repr(float(error)),
                          repr(float(result.approximand_norm)),
                          regimes.get((tag, record.level), NO_REGIME),
                          repr(float(record.cond_estimate))]
                fh.write(",".join(fields) + "\n")


def read_rows_csv(path) -> list[dict]:
    """Read a rows CSV back into a list of per-row dicts.

    Raises ValueError naming the missing or repeated columns when the
    header is not that of a rows CSV, and naming the file and line of a row
    whose field count differs from the header's or whose numeric field does
    not parse.
    """
    numbers = dict.fromkeys(("d", "beta", "c", "sup_error", "norm_f", "cond_estimate"), float)
    numbers.update(level=int, N=int)
    out = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        missing = [column for column in CSV_HEADER.split(",") if column not in header]
        if missing:
            raise ValueError(f"{path} is not a rows CSV: missing columns {', '.join(missing)}")
        repeated = [column for column in dict.fromkeys(header) if header.count(column) > 1]
        if repeated:
            raise ValueError(f"{path} is not a rows CSV: repeated columns {', '.join(repeated)}")
        for number, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            values = line.split(",")
            if len(values) != len(header):
                raise ValueError(
                    f"{path} line {number}: {len(values)} fields, the header has {len(header)}"
                )
            row = dict(zip(header, values))
            for key, kind in numbers.items():
                try:
                    row[key] = kind(row[key])
                except ValueError:
                    raise ValueError(
                        f"{path} line {number}: {key} {row[key]!r} is not a number"
                    ) from None
            out.append(row)
    return out


def summary_dict(result: StudyResult, report: CheckReport | None) -> dict:
    fits = {}
    for tag, fit in result.fits.items():
        if fit is None:
            fits[tag] = None
            continue
        n = len(result.samples(tag))
        counts = None
        if report is not None and tag != VALUE_TAG:
            counts = {
                regime: sum(
                    1 for r in report.rows if r.alpha_tag == tag and r.regime == regime
                )
                for regime in (bounds.SMALL_D, bounds.LARGE_D)
            }
        fits[tag] = fit_report_dict(fit, n, counts)
    return {
        "version": CONFIG_VERSION,
        "kernel": result.config.kernel.to_dict(),
        "approximand_norm": result.approximand_norm,
        "failed_levels": result.failed_levels,
        "fits": fits,
        "check": report.to_dict() if report is not None else None,
    }


def write_summary_json(result: StudyResult, report: CheckReport | None, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(summary_dict(result, report), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class GornyCampaignResult:
    trials: int
    violations: int
    worst_ratio: float


def _polynomial_case(rng: np.random.Generator):
    coeffs = rng.uniform(-2.0, 2.0, size=rng.integers(2, 7))

    def psi(t, order):
        return np.polynomial.polynomial.polyval(
            t, np.polynomial.polynomial.polyder(coeffs, order) if order else coeffs
        )

    return psi


def _trig_case(rng: np.random.Generator):
    amp = rng.uniform(0.2, 3.0)
    freq = rng.uniform(0.3, 4.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)

    def psi(t, order):
        return amp * freq**order * np.sin(freq * t + phase + order * np.pi / 2.0)

    return psi


def _kernel_slice_case(rng: np.random.Generator):
    kernel = Kernel.gaussian(rng.uniform(0.3, 3.0), 1)
    shift = rng.uniform(-1.0, 1.0)
    amp = rng.uniform(0.2, 3.0)

    def psi(t, order):
        pts = np.asarray(t, dtype=float).reshape(-1, 1) - shift
        return amp * np.atleast_1d(kernel.evaluate_derivative((order,), pts))

    return psi


def run_gorny_campaign(trials: int, seed: int) -> GornyCampaignResult:
    """Random campaign over smooth univariate functions.

    Draws polynomials, sinusoids, and Gaussian kernel slices with random
    derivative orders 0 < k < l <= 4 and half-widths, and counts
    violations of the Gorny inequality (there should be none).
    """
    rng = np.random.default_rng(seed)
    makers = (_polynomial_case, _trig_case, _kernel_slice_case)
    violations = 0
    worst = 0.0
    for _ in range(trials):
        psi = makers[rng.integers(len(makers))](rng)
        l = int(rng.integers(2, 5))
        k = int(rng.integers(1, l))
        delta = float(rng.choice([0.5, 1.0, 2.0]))
        report = gorny_oracle_check(psi, k, l, delta)
        if report.rhs > 0.0:
            worst = max(worst, report.lhs / report.rhs)
        elif report.lhs > 0.0:
            worst = float("inf")
        if not report.holds:
            violations += 1
    return GornyCampaignResult(trials, violations, worst)
