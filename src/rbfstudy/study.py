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
import warnings
from dataclasses import dataclass

import numpy as np

from rbfstudy import bounds, highprec
from rbfstudy.bounds import (
    DerivativeBoundParams,
    GaussianBoundParams,
    GaussianRateFit,
    MQBoundParams,
    MQRateFit,
    fit_gaussian_rate,
    fit_mq_rate,
    fit_report_dict,
    gorny_oracle_check,
)
from rbfstudy.configvalues import flag, number
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

# The keys the config format defines in each object that from_dict reads
# itself ("" is the top level); a misspelt key is refused, not ignored.
CONFIG_KEYS = {
    "": {"version", "kernel", "domain", "approximand", "refinement", "derivatives", "delta",
         "probe_resolution", "fill_resolution", "tolerances", "seed", "check"},
    "approximand": {"centers", "weights_seed", "weights_scale", "normalize", "poly"},
    "approximand.centers": {"scheme", "count", "spacing", "seed", "points"},
    "refinement": {"scheme", "spacings", "counts"},
    "derivatives": {"orders", "l"},
    "tolerances": {"cond_limit", "solver_dps"},
    "check": {"enabled", "min_pass_fraction", "deriv_norm_scale"},
}


def alpha_tag(alpha) -> str:
    return "-".join(str(int(a)) for a in alpha)


def _field_defaults(cls) -> dict:
    """A dataclass's field defaults, so ``from_dict`` writes none of them again."""
    return {field.name: field.default for field in dataclasses.fields(cls)}


def _config_object(name: str, d) -> dict:
    """The config object ``d`` at ``name``, refused if it is not an object or
    holds a key that ``CONFIG_KEYS`` does not define there."""
    if not isinstance(d, dict):
        raise ValueError(f"{name or 'the config'} must be an object, got {d!r}")
    unknown = sorted(set(d) - CONFIG_KEYS[name])
    if unknown:
        prefix = f"{name}." if name else ""
        raise ValueError(f"unknown config key {', '.join(prefix + k for k in unknown)}")
    return d


def _check_int(key: str, value, minimum: int, optional: bool = False) -> None:
    """Refuse a config integer that is not an int, is a bool, or is below minimum."""
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        null = "null or " if optional else ""
        raise ValueError(f"{key} must be {null}an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class ApproximandSpec:
    """Recipe for the synthetic kernel-expansion approximand.

    Centers come from a generator scheme or, with scheme "explicit", from
    the ``centers_points`` list directly.
    """

    centers_scheme: str = "random"
    centers_count: int | None = 5
    centers_spacing: float | None = None
    centers_seed: int | None = 101
    centers_points: tuple[tuple[float, ...], ...] | None = None
    weights_seed: int = 11
    weights_scale: float = 1.0
    normalize: bool = True
    poly: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_int("approximand.centers.count", self.centers_count, 1, optional=True)
        # random centers without a seed would differ from run to run
        _check_int("approximand.centers.seed", self.centers_seed, 0,
                   optional=self.centers_scheme != "random")
        _check_int("approximand.weights_seed", self.weights_seed, 0)

    def to_dict(self) -> dict:
        return {
            "centers": {
                "scheme": self.centers_scheme,
                "count": self.centers_count,
                "spacing": self.centers_spacing,
                "seed": self.centers_seed,
                "points": [list(p) for p in self.centers_points]
                if self.centers_points is not None
                else None,
            },
            "weights_seed": self.weights_seed,
            "weights_scale": self.weights_scale,
            "normalize": self.normalize,
            "poly": list(self.poly) if self.poly is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ApproximandSpec":
        default = _field_defaults(cls)
        d = _config_object("approximand", d)
        centers = _config_object("approximand.centers", d.get("centers", {}))
        spacing = centers.get("spacing", default["centers_spacing"])
        if spacing is not None:
            spacing = number("approximand.centers.spacing", spacing)
        points = centers.get("points", default["centers_points"])
        if points is not None:
            points = tuple(tuple(number("an entry of approximand.centers.points", v) for v in p)
                           for p in points)
        poly = d.get("poly", default["poly"])
        if poly is not None:
            poly = tuple(number("an entry of approximand.poly", v) for v in poly)
        return cls(
            centers_scheme=centers.get("scheme", default["centers_scheme"]),
            centers_count=centers.get("count", default["centers_count"]),
            centers_spacing=spacing,
            centers_seed=centers.get("seed", default["centers_seed"]),
            centers_points=points,
            weights_seed=d.get("weights_seed", default["weights_seed"]),
            weights_scale=number(
                "approximand.weights_scale", d.get("weights_scale", default["weights_scale"])
            ),
            normalize=flag("approximand.normalize", d.get("normalize", default["normalize"])),
            poly=poly,
        )


def _check_lattice_size(key: str, points: int, dim: int) -> None:
    if points > MAX_LATTICE_POINTS:
        raise ValueError(
            f"{key} asks for a lattice of {points:,} points in {dim}D, which needs "
            f"{points * dim * 8:,} bytes for its coordinates alone; the limit is "
            f"{MAX_LATTICE_POINTS:,} points"
        )


@dataclass(frozen=True)
class StudyConfig:
    """Full description of one refinement study."""

    kernel: Kernel
    domain: CubeDomain
    approximand: ApproximandSpec = ApproximandSpec()
    refinement_scheme: str = "grid"
    spacings: tuple[float, ...] | None = None
    counts: tuple[int, ...] | None = None
    deriv_orders: tuple[tuple[int, ...], ...] = ()
    smoothness_order: int = 2
    delta: float = 0.1
    probe_resolution: int = 201
    fill_resolution: int | None = None
    cond_limit: float = DEFAULT_COND_LIMIT
    solver_dps: int | None = None
    seed: int = 7
    check_enabled: bool = True
    check_min_pass_fraction: float = 0.8
    deriv_norm_scale: float = 1.0

    def __post_init__(self):
        if self.refinement_scheme == "grid":
            if not self.spacings:
                raise ValueError("grid refinement needs spacings")
            sp = tuple(number("an entry of refinement.spacings", v) for v in self.spacings)
            if any(b >= a for a, b in zip(sp, sp[1:])):
                raise ValueError(f"spacings must be strictly decreasing, got {sp}")
            object.__setattr__(self, "spacings", sp)
        elif self.refinement_scheme in ("halton", "random"):
            if not self.counts:
                raise ValueError(f"{self.refinement_scheme} refinement needs counts")
            ct = tuple(self.counts)
            for count in ct:
                _check_int("an entry of refinement.counts", count, 1)
            if any(b <= a for a, b in zip(ct, ct[1:])):
                raise ValueError(f"counts must be strictly increasing, got {ct}")
            object.__setattr__(self, "counts", ct)
        else:
            raise ValueError(f"unknown refinement scheme {self.refinement_scheme!r}")
        orders = tuple(tuple(alpha) for alpha in self.deriv_orders)
        object.__setattr__(self, "deriv_orders", orders)
        _check_int("derivatives.l", self.smoothness_order, 1)
        for alpha in orders:
            for a in alpha:
                _check_int("an entry of derivatives.orders", a, 0)
            if len(alpha) != self.kernel.dim:
                raise ValueError(f"multi-index {alpha} does not match dim {self.kernel.dim}")
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
        _check_int("probe_resolution", self.probe_resolution, 2)
        _check_int("fill_resolution", self.fill_resolution, 1, optional=True)
        _check_int("tolerances.solver_dps", self.solver_dps, 1, optional=True)
        _check_int("seed", self.seed, 0)
        if not self.cond_limit > 0.0:
            raise ValueError(f"tolerances.cond_limit must be > 0, got {self.cond_limit}")
        if not 0.0 <= self.check_min_pass_fraction <= 1.0:
            raise ValueError(
                f"check.min_pass_fraction must lie in [0, 1], got {self.check_min_pass_fraction}"
            )
        if self.solver_dps is not None and self.solver_dps <= DOUBLE_DIGITS:
            raise ValueError(
                f"tolerances.solver_dps must exceed double precision's {DOUBLE_DIGITS} "
                f"digits, got {self.solver_dps}"
            )
        dim = self.kernel.dim
        fill_res = self.fill_resolution or default_fill_resolution(dim)
        _check_lattice_size("probe_resolution", self.probe_resolution**dim, dim)
        _check_lattice_size("fill_resolution", (fill_res + 1) ** dim + fill_res**dim, dim)

    @property
    def levels(self) -> int:
        return len(self.spacings) if self.refinement_scheme == "grid" else len(self.counts)

    def to_dict(self) -> dict:
        refinement: dict = {"scheme": self.refinement_scheme}
        if self.refinement_scheme == "grid":
            refinement["spacings"] = list(self.spacings)
        else:
            refinement["counts"] = list(self.counts)
        return {
            "version": CONFIG_VERSION,
            "kernel": self.kernel.to_dict(),
            "domain": self.domain.to_dict(),
            "approximand": self.approximand.to_dict(),
            "refinement": refinement,
            "derivatives": {
                "orders": [list(a) for a in self.deriv_orders],
                "l": self.smoothness_order,
            },
            "delta": self.delta,
            "probe_resolution": self.probe_resolution,
            "fill_resolution": self.fill_resolution,
            "tolerances": {"cond_limit": self.cond_limit, "solver_dps": self.solver_dps},
            "seed": self.seed,
            "check": {
                "enabled": self.check_enabled,
                "min_pass_fraction": self.check_min_pass_fraction,
                "deriv_norm_scale": self.deriv_norm_scale,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StudyConfig":
        d = _config_object("", d)
        if d.get("version", CONFIG_VERSION) != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {d.get('version')!r}")
        default = _field_defaults(cls)
        refinement = _config_object("refinement", d["refinement"])
        derivatives = _config_object("derivatives", d.get("derivatives", {}))
        tolerances = _config_object("tolerances", d.get("tolerances", {}))
        check = _config_object("check", d.get("check", {}))
        return cls(
            kernel=Kernel.from_dict(d["kernel"]),
            domain=CubeDomain.from_dict(d["domain"]),
            approximand=ApproximandSpec.from_dict(d.get("approximand", {})),
            refinement_scheme=refinement["scheme"],
            spacings=tuple(refinement.get("spacings", ())) or None,
            counts=tuple(refinement.get("counts", ())) or None,
            deriv_orders=tuple(tuple(a) for a in derivatives.get("orders", [])),
            smoothness_order=derivatives.get("l", default["smoothness_order"]),
            delta=number("delta", d.get("delta", default["delta"])),
            probe_resolution=d.get("probe_resolution", default["probe_resolution"]),
            fill_resolution=d.get("fill_resolution", default["fill_resolution"]),
            cond_limit=number("tolerances.cond_limit",
                              tolerances.get("cond_limit", default["cond_limit"])),
            solver_dps=tolerances.get("solver_dps", default["solver_dps"]),
            seed=d.get("seed", default["seed"]),
            check_enabled=flag("check.enabled", check.get("enabled", default["check_enabled"])),
            check_min_pass_fraction=number(
                "check.min_pass_fraction",
                check.get("min_pass_fraction", default["check_min_pass_fraction"]),
            ),
            deriv_norm_scale=number(
                "check.deriv_norm_scale", check.get("deriv_norm_scale", default["deriv_norm_scale"])
            ),
        )

    @classmethod
    def load_json(cls, path) -> "StudyConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def save_json(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def build_approximand(config: StudyConfig) -> KernelExpansion:
    """Construct the study's kernel-expansion approximand.

    Random weights are projected onto the moment-condition subspace when
    the kernel needs polynomial augmentation, then optionally rescaled to
    unit native norm. Deterministic for fixed seeds.
    """
    spec = config.approximand
    if spec.centers_scheme == "explicit":
        if not spec.centers_points:
            raise ValueError("explicit centers scheme needs centers_points")
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
            raise ValueError("approximand has zero native norm; change the weight seed")
        f = KernelExpansion(config.kernel, centers, weights / norm, poly)
    return f


@dataclass
class StudyRow:
    level: int
    d: float
    n_points: int
    alpha_tag: str
    sup_error: float
    norm_f: float
    regime: str = NO_REGIME
    cond_estimate: float = float("nan")


@dataclass
class StudyResult:
    config: StudyConfig
    rows: list[StudyRow]
    fits: dict[str, MQRateFit | GaussianRateFit | None]
    failed_levels: int
    approximand_norm: float
    # per measured level of a solver_dps study, highprec.measure_level's
    # stats (working dps, stage wall times, memo counts); never written out
    mp_stats: dict[int, dict] = dataclasses.field(default_factory=dict)

    def samples(self, tag: str) -> list[tuple[float, float]]:
        """Fit samples for one row tag: solver failures (NaN) and exact
        zeros are excluded, since the log-scale fits need positive errors."""
        return [
            (row.d, row.sup_error)
            for row in self.rows
            if row.alpha_tag == tag and math.isfinite(row.sup_error) and row.sup_error > 0.0
        ]


def _level_nodes(config: StudyConfig, level: int) -> PointSet:
    if config.refinement_scheme == "grid":
        return generate_points(config.domain, "grid", spacing=config.spacings[level])
    count = config.counts[level]
    if config.refinement_scheme == "halton":
        return generate_points(config.domain, "halton", count=count)
    return generate_points(
        config.domain, "random", count=count, seed=(config.seed, level)
    )


def _inner_probe_mask(domain: CubeDomain, probes: np.ndarray, delta: float) -> np.ndarray:
    tol = 1e-12 * max(domain.side, 1.0)
    lo = np.asarray(domain.lower)
    hi = lo + domain.side
    return np.all((probes >= lo + delta - tol) & (probes <= hi - delta + tol), axis=1)


def _fit_samples(family: KernelFamily, samples):
    try:
        if family is KernelFamily.MULTIQUADRIC:
            return fit_mq_rate(samples) if len(samples) >= 3 else None
        return fit_gaussian_rate(samples) if len(samples) >= 4 else None
    except ValueError:
        return None


def base_params_from_fit(fit, max_d: float, norm_f: float, cube_side: float):
    """Base-bound parameters recovered from a fitted rate model.

    The fitted prefactor absorbs the approximand norm, so it is divided
    out here; evaluating the bound with the true norm then reproduces the
    fitted curve. Returns None when the fit is unusable as a bound (for
    example a non-contracting decay base).
    """
    if fit is None or norm_f <= 0.0:
        return None
    try:
        if isinstance(fit, MQRateFit):
            return MQBoundParams(fit.prefactor / norm_f, fit.base, max_d, cube_side)
        if isinstance(fit, GaussianRateFit):
            return GaussianBoundParams(fit.prefactor / norm_f, fit.scale, fit.rate, max_d)
    except ValueError:
        return None
    raise TypeError(f"unknown fit type {type(fit)!r}")


def _fitted_base_params(result: StudyResult):
    """``base_params_from_fit`` of the study's value fit, over its rows' largest d."""
    max_d = max((r.d for r in result.rows), default=0.0)
    return base_params_from_fit(
        result.fits.get(VALUE_TAG), max_d, result.approximand_norm, result.config.domain.side
    )


def _base_error(params, d: float, norm_f: float) -> float:
    if isinstance(params, MQBoundParams):
        return bounds.mq_bound(params, d, norm_f)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return bounds.gaussian_bound(params, d, norm_f)


def _double_measure(config, f, probes, inner):
    """``measure(nodes, stats) -> (errors, cond)`` in double precision, with f
    on the probes evaluated once per study; errors are value-first sups."""
    f_values = [np.atleast_1d(f.evaluate(probes))] + [
        np.atleast_1d(v) for v in f.evaluate_derivatives(config.deriv_orders, inner)
    ]

    def measure(nodes, stats):
        interp = interpolate_expansion(f, nodes, cond_limit=config.cond_limit)
        s_values = [interp.evaluate(probes)] + interp.evaluate_derivatives(
            config.deriv_orders, inner
        )
        errors = [float(np.max(np.abs(fv - np.atleast_1d(sv))))
                  for fv, sv in zip(f_values, s_values)]
        return errors, interp.cond_estimate

    return measure


def _mp_measure(config, f, probes, inner_mask):
    """``_double_measure`` at ``solver_dps``: the study's MpCore, built at that
    dps with one kernel memo for f and every level, and f in mp are built once
    per study; each level's mpf sups are cast to float. ``stats`` receives
    ``highprec.measure_level``'s."""
    core = highprec.MpCore(config.kernel, config.deriv_orders, config.solver_dps)
    f_mp = highprec.approximand_on_probes(
        core, f.centers.points, f.weights, f.poly_coeffs, probes, inner_mask
    )
    inner = probes[inner_mask]

    def measure(nodes, stats):
        system, _ = assemble_system(config.kernel, nodes)
        cond = highprec.estimate_condition(system)
        if cond > config.cond_limit:
            raise SingularSystemError("saddle-point system too ill-conditioned", cond)
        sups = highprec.measure_level(
            config.kernel, f.centers.points, f.weights, f.poly_coeffs, nodes.points, probes,
            inner, config.deriv_orders, f_mp, cond, core, stats,
        )
        return [float(w) for w in sups], cond

    return measure


def run_study(config: StudyConfig) -> StudyResult:
    """Run the refinement sweep and fit decay rates.

    A measure built once per study, in double or, with ``solver_dps`` set,
    in extended precision, holds f on the probes and gives each level's sup
    errors and condition estimate; extended precision tracks the true decay
    below double's noise floor. A level whose solve fails (ill-conditioning)
    gets NaN errors, which the fits exclude. Rows come out sorted coarse to
    fine. Deterministic for a fixed config.
    """
    f = build_approximand(config)
    norm_f = f.native_norm()
    probes = uniform_grid(config.domain, config.probe_resolution)
    inner_mask = _inner_probe_mask(config.domain, probes, config.delta)
    inner = probes[inner_mask]
    if len(inner) == 0:
        raise ValueError("no probe points keep a delta-ball inside the domain")
    if config.solver_dps is None:
        measure = _double_measure(config, f, probes, inner)
    else:
        measure = _mp_measure(config, f, probes, inner_mask)

    tags = [VALUE_TAG] + [alpha_tag(a) for a in config.deriv_orders]
    rows: list[StudyRow] = []
    failed = 0
    mp_stats: dict[int, dict] = {}
    fill_res = config.fill_resolution or default_fill_resolution(config.domain.dim)
    for level in range(config.levels):
        nodes = _level_nodes(config, level)
        d = fill_distance(config.domain, nodes, fill_res)
        stats = {}
        try:
            errors, cond = measure(nodes, stats)
        except SingularSystemError as exc:
            failed += 1
            errors, cond = [float("nan")] * len(tags), exc.cond_estimate
        if stats:
            mp_stats[level] = stats
        rows.extend(StudyRow(level, d, len(nodes), tag, error, norm_f, cond_estimate=cond)
                    for tag, error in zip(tags, errors))

    rows.sort(key=lambda r: (-r.d, r.level, r.alpha_tag != VALUE_TAG, r.alpha_tag))
    result = StudyResult(config, rows, {}, failed, norm_f, mp_stats)
    for tag in tags:
        result.fits[tag] = _fit_samples(config.kernel.family, result.samples(tag))
    _annotate_regimes(result)
    return result


def _annotate_regimes(result: StudyResult) -> None:
    """Label derivative rows with the active ceiling branch."""
    config = result.config
    params = _fitted_base_params(result)
    if params is None:
        return
    top_deriv = config.deriv_norm_scale * result.approximand_norm
    for row in result.rows:
        if row.alpha_tag == VALUE_TAG or not math.isfinite(row.sup_error):
            continue
        base = _base_error(params, row.d, result.approximand_norm)
        row.regime = bounds.ceiling_regime(
            base, top_deriv, config.smoothness_order, config.delta
        )


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


def check_bounds(
    result: StudyResult,
    base_params: MQBoundParams | GaussianBoundParams | None = None,
    deriv_params: DerivativeBoundParams | None = None,
) -> CheckReport:
    """Check each derivative row against the interpolated bound.

    The base error model comes from the study's fitted rates unless
    ``base_params`` is supplied. The bound constant is calibrated per
    derivative order on the coarsest solved level (that row has margin 1
    by construction and is excluded from the pass count); the remaining
    rows then probe the exponent structure of the bound.
    """
    config = result.config
    if base_params is None:
        base_params = _fitted_base_params(result)
    if base_params is None:
        raise ValueError("no usable base fit; supply base_params explicitly")

    norm_f = result.approximand_norm
    scale = deriv_params.deriv_norm_scale if deriv_params else config.deriv_norm_scale
    ball = deriv_params.ball_radius if deriv_params else config.delta
    order_top = deriv_params.smoothness_order if deriv_params else config.smoothness_order
    top_deriv = scale * norm_f

    check_rows: list[CheckRow] = []
    constants: dict[str, float] = {}
    regime_counts = {bounds.SMALL_D: 0, bounds.LARGE_D: 0}
    passes = total = 0
    for alpha in config.deriv_orders:
        tag = alpha_tag(alpha)
        k = sum(alpha)
        params_k = DerivativeBoundParams(order_top, k, ball, 1.0, scale)
        tag_rows = [
            r for r in result.rows
            if r.alpha_tag == tag and math.isfinite(r.sup_error)
        ]
        if not tag_rows:
            continue
        coarsest = tag_rows[0]
        raw = bounds.derivative_bound(
            params_k, _base_error(base_params, coarsest.d, norm_f), top_deriv
        )
        if raw.value <= 0.0 or coarsest.sup_error <= 0.0:
            continue
        constant = coarsest.sup_error / raw.value
        constants[tag] = constant
        calibrated = dataclasses.replace(params_k, bound_constant=constant)
        for i, row in enumerate(tag_rows):
            db = bounds.derivative_bound(
                calibrated, _base_error(base_params, row.d, norm_f), top_deriv
            )
            margin = db.value / row.sup_error if row.sup_error > 0.0 else float("inf")
            is_calib = i == 0
            check_rows.append(
                CheckRow(row.level, row.d, tag, row.sup_error, db.value, margin,
                         db.regime, is_calib)
            )
            regime_counts[db.regime] += 1
            if not is_calib:
                total += 1
                if margin >= 1.0 - 1e-9:
                    passes += 1
    pass_fraction = passes / total if total else 1.0
    return CheckReport(
        check_rows,
        constants,
        pass_fraction,
        regime_counts,
        pass_fraction >= config.check_min_pass_fraction,
    )


def write_rows_csv(result: StudyResult, path) -> None:
    """Emit the per-row measurements as CSV (LF endings, '.' decimal)."""
    kernel = result.config.kernel
    c_field = repr(float(kernel.c)) if kernel.c is not None else "nan"
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in result.rows:
            fh.write(
                ",".join(
                    [
                        str(row.level),
                        repr(float(row.d)),
                        str(row.n_points),
                        kernel.family.value,
                        repr(float(kernel.beta)),
                        c_field,
                        row.alpha_tag,
                        repr(float(row.sup_error)),
                        repr(float(row.norm_f)),
                        row.regime,
                        repr(float(row.cond_estimate)),
                    ]
                )
                + "\n"
            )


def read_rows_csv(path) -> list[dict]:
    """Read a rows CSV back into a list of per-row dicts."""
    out = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            values = line.split(",")
            row = dict(zip(header, values))
            for key in ("d", "beta", "c", "sup_error", "norm_f", "cond_estimate"):
                row[key] = float(row[key])
            row["level"] = int(row["level"])
            row["N"] = int(row["N"])
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
