"""Cube domains, point sets, fill distance, and node generators.

The fill distance (the largest hole a domain point can sit in, measured to
the nearest node) is estimated on a dense deterministic probe lattice; the
subcube-coverage check samples the quantified coverage condition on a
finite lattice of subcube positions. Node generators produce the grids,
Halton sequences, and seeded random clouds used by refinement studies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from rbfstudy.configvalues import json_object, list_of, number

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@dataclass(frozen=True)
class CubeDomain:
    """Axis-aligned cube [lower, lower + side]^dim."""

    dim: int
    lower: tuple[float, ...]
    side: float

    def __post_init__(self):
        lower = tuple(float(v) for v in np.atleast_1d(self.lower))
        object.__setattr__(self, "lower", lower)
        if len(lower) != self.dim:
            raise ValueError(f"lower has {len(lower)} coordinates, expected {self.dim}")
        if not (self.side > 0.0) or not np.isfinite(self.side):
            raise ValueError(f"side must be positive and finite, got {self.side}")
        if not all(np.isfinite(v) for v in lower):
            raise ValueError("lower corner must be finite")

    @property
    def upper(self) -> tuple[float, ...]:
        return tuple(v + self.side for v in self.lower)

    @classmethod
    def unit(cls, dim: int) -> "CubeDomain":
        return cls(dim, (0.0,) * dim, 1.0)

    def to_dict(self) -> dict:
        return {"lower": list(self.lower), "side": self.side}

    @classmethod
    def from_dict(cls, d: dict) -> "CubeDomain":
        d = json_object("domain", d, ("lower", "side"))
        lower = list_of(number)("domain.lower", d["lower"])
        return cls(len(lower), lower, number("domain.side", d["side"]))


@dataclass(frozen=True)
class PointSet:
    """An ordered set of distinct finite points in R^dim."""

    dim: int
    points: np.ndarray

    def __post_init__(self):
        # copy before freezing so the caller's array is never locked
        pts = np.array(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (N, {self.dim}), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if len(np.unique(pts, axis=0)) != len(pts):
            raise ValueError("points must be pairwise distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_array(cls, points) -> "PointSet":
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        return cls(pts.shape[1], pts)

    def save_csv(self, path) -> None:
        """One point per row, coordinates only, no header."""
        with open(path, "w", newline="\n") as fh:
            for row in self.points:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    @classmethod
    def load_csv(cls, path) -> "PointSet":
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([float(v) for v in line.split(",")])
        return cls.from_array(np.asarray(rows, dtype=float))


def uniform_grid(domain: CubeDomain, points_per_axis: int) -> np.ndarray:
    """Uniform lattice over the domain including the faces, shape (M, dim)."""
    if points_per_axis < 2:
        raise ValueError(f"points_per_axis must be >= 2, got {points_per_axis}")
    axes = [
        np.linspace(lo, lo + domain.side, points_per_axis) for lo in domain.lower
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _probe_lattice(domain: CubeDomain, resolution: int) -> np.ndarray:
    """Probe points for the fill-distance scan: cell vertices plus centers."""
    lo = np.asarray(domain.lower)
    step = domain.side / resolution
    vertices_1d = [lo[a] + step * np.arange(resolution + 1) for a in range(domain.dim)]
    centers_1d = [lo[a] + step * (np.arange(resolution) + 0.5) for a in range(domain.dim)]
    vertex_mesh = np.meshgrid(*vertices_1d, indexing="ij")
    center_mesh = np.meshgrid(*centers_1d, indexing="ij")
    vertices = np.stack([m.ravel() for m in vertex_mesh], axis=-1)
    centers = np.stack([m.ravel() for m in center_mesh], axis=-1)
    return np.vstack([vertices, centers])


def default_fill_resolution(dim: int) -> int:
    """Per-axis scan resolution: 128 for dim <= 2, 32 for dim >= 3."""
    return 128 if dim <= 2 else 32


def fill_distance(domain: CubeDomain, nodes: PointSet, resolution: int | None = None) -> float:
    """Largest distance from a probe point of the domain to its nearest node.

    The true supremum over the whole cube is sampled on a lattice of cell
    vertices and centers with ``resolution`` cells per axis, so the result
    is a lower bound that converges to the supremum as the resolution
    grows. Deterministic for a fixed resolution.
    """
    if len(nodes) == 0:
        raise ValueError("fill distance of an empty node set is undefined")
    if nodes.dim != domain.dim:
        raise ValueError(f"node dim {nodes.dim} != domain dim {domain.dim}")
    if resolution is None:
        resolution = default_fill_resolution(domain.dim)
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    probes = _probe_lattice(domain, resolution)
    tree = cKDTree(nodes.points)
    dists, _ = tree.query(probes, k=1)
    return float(np.max(dists))


def coverage_check(domain: CubeDomain, nodes: PointSet, d: float) -> bool:
    """Whether every sampled subcube of side 2d contains a node.

    Subcube positions run over the half-step lattice (step d per axis,
    flush to both faces of the domain). This finitely samples the
    continuum condition "every subcube of side 2d contains a node", so a
    True result is necessary but not sufficient; halving d tightens it.
    """
    if nodes.dim != domain.dim:
        raise ValueError(f"node dim {nodes.dim} != domain dim {domain.dim}")
    if not (0.0 < 2.0 * d <= domain.side * (1.0 + 1e-12)):
        raise ValueError(f"need 0 < 2d <= side, got d={d}, side={domain.side}")
    tol = 1e-12 * max(domain.side, 1.0)
    max_start = domain.side - 2.0 * d

    starts = []
    k = 0
    while k * d <= max_start + tol:
        starts.append(k * d)
        k += 1
    if not starts or starts[-1] < max_start - tol:
        starts.append(max_start)

    pts = nodes.points
    # Per-axis membership of each node in each candidate interval.
    axis_masks = []
    for a in range(domain.dim):
        lo = domain.lower[a]
        coords = pts[:, a]
        masks = np.array(
            [(coords >= lo + s - tol) & (coords <= lo + s + 2.0 * d + tol) for s in starts]
        )
        axis_masks.append(masks)

    for combo in itertools.product(range(len(starts)), repeat=domain.dim):
        mask = axis_masks[0][combo[0]]
        for a in range(1, domain.dim):
            mask = mask & axis_masks[a][combo[a]]
            if not mask.any():
                break
        if not mask.any():
            return False
    return True


def halton_points(count: int, dim: int) -> np.ndarray:
    """First ``count`` points of the Halton sequence in [0, 1]^dim.

    Bases are the first dim primes; indexing starts at 1 so the first
    point is (1/2, 1/3, ...). Each axis is the van der Corput radical
    inverse, its digit loop run over all indices at once; an index that
    has run out of digits adds exact zeros.
    """
    if dim > len(_PRIMES):
        raise ValueError(f"halton generator supports dim <= {len(_PRIMES)}")
    points = np.empty((count, dim))
    for a in range(dim):
        index = np.arange(1, count + 1)
        value, denom = np.zeros(count), 1.0
        while index.any():
            denom *= _PRIMES[a]
            index, remainder = np.divmod(index, _PRIMES[a])
            value += remainder / denom
        points[:, a] = value
    return points


def generate_points(
    domain: CubeDomain,
    scheme: str,
    spacing: float | None = None,
    count: int | None = None,
    seed: int | None = None,
) -> PointSet:
    """Generate interpolation nodes inside the domain.

    scheme "grid" needs ``spacing`` (> 0) and produces the uniform lattice
    including the faces, with the spacing snapped so it divides the side
    evenly. scheme "halton" needs ``count``. scheme "random" needs
    ``count`` and ``seed`` and is deterministic for a fixed seed.
    """
    lo = np.asarray(domain.lower)
    if scheme == "grid":
        if spacing is None or not (spacing > 0.0):
            raise ValueError(f"grid scheme needs spacing > 0, got {spacing}")
        per_axis = max(1, round(domain.side / spacing)) + 1
        return PointSet(domain.dim, uniform_grid(domain, per_axis))
    if scheme == "halton":
        if count is None or count < 1:
            raise ValueError(f"halton scheme needs count >= 1, got {count}")
        return PointSet(domain.dim, lo + domain.side * halton_points(count, domain.dim))
    if scheme == "random":
        if count is None or count < 1:
            raise ValueError(f"random scheme needs count >= 1, got {count}")
        rng = np.random.default_rng(seed)
        pts = lo + domain.side * rng.random((count, domain.dim))
        return PointSet(domain.dim, pts)
    raise ValueError(f"unknown scheme {scheme!r}")
