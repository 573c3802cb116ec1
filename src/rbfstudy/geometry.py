"""Cube domains, point sets, fill distance, and node generators.

The fill distance (the largest hole a domain point can sit in, measured to
the nearest node) is estimated on a dense deterministic probe lattice,
searched exactly by a tree of lattice tiles, each of which keeps only the
nodes that can be nearest to one of its probes. Node generators produce the
grids, Halton sequences, and seeded random clouds used by refinement studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rbfstudy.configvalues import json_object, list_of, number

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

# Slack, as a share of the extent of the probes and nodes together, that the
# fill-distance search adds to each pruning and candidate test. It dwarfs the
# rounding of the few float operations behind a test, so a tile or a node is
# at worst kept needlessly, never dropped wrongly.
_SEARCH_SLACK = 1e-9

# The search starts from the finest tiles whose children, each against every
# node, fit in this many pairs: a small lattice or node set is then searched
# in one step, and a large one skips the coarse levels that prune nothing.
_FIRST_LEVEL_PAIRS = 2**16


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


def uniform_grid(domain: CubeDomain, points_per_axis: int) -> np.ndarray:
    """Uniform lattice over the domain including the faces, shape (M, dim)."""
    if points_per_axis < 2:
        raise ValueError(f"points_per_axis must be >= 2, got {points_per_axis}")
    axes = [
        np.linspace(lo, lo + domain.side, points_per_axis) for lo in domain.lower
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _probe_axes(domain: CubeDomain, resolution: int) -> tuple[list, list]:
    """Per-axis coordinates of the two probe lattices: cell vertices, cell centers."""
    step = domain.side / resolution
    vertices = [lo + step * np.arange(resolution + 1) for lo in domain.lower]
    centers = [lo + step * (np.arange(resolution) + 0.5) for lo in domain.lower]
    return vertices, centers


def default_fill_resolution(dim: int) -> int:
    """Per-axis scan resolution: 128 for dim <= 2, 32 for dim >= 3."""
    return 128 if dim <= 2 else 32


def fill_distance(domain: CubeDomain, nodes: PointSet, resolution: int | None = None) -> float:
    """Largest distance from a probe point of the domain to its nearest node.

    The true supremum over the whole cube is sampled on a lattice of cell
    vertices and centers with ``resolution`` cells per axis, so the result
    is a lower bound that converges to the supremum as the resolution
    grows. Deterministic for a fixed resolution. The lattice is searched
    exactly (``_lattice_fill2``): the result is the float that a brute-force
    search over every probe and node gives.
    """
    if len(nodes) == 0:
        raise ValueError("fill distance of an empty node set is undefined")
    if nodes.dim != domain.dim:
        raise ValueError(f"node dim {nodes.dim} != domain dim {domain.dim}")
    if resolution is None:
        resolution = default_fill_resolution(domain.dim)
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    pts = nodes.points
    extent = np.maximum(pts.max(axis=0), domain.upper) - np.minimum(pts.min(axis=0), domain.lower)
    slack = _SEARCH_SLACK * float(np.linalg.norm(extent))
    # index len(pts) pads candidate lists: a node at infinity, never within reach
    coords = [np.append(pts[:, a], np.inf) for a in range(domain.dim)]
    fill2 = 0.0
    for axes in _probe_axes(domain, resolution):
        fill2 = _lattice_fill2(axes, coords, fill2, slack)
    return math.sqrt(fill2)


def _tiles(axis: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and half-widths of consecutive runs of ``width`` coordinates."""
    starts = np.arange(0, len(axis), width)
    lo, hi = axis[starts], axis[np.minimum(starts + width, len(axis)) - 1]
    mid = 0.5 * (lo + hi)
    return mid, np.maximum(mid - lo, hi - mid)


def _lattice_fill2(axes: list, coords: list, fill2: float, slack: float) -> float:
    """Largest squared nearest-node distance over one probe lattice, or ``fill2``.

    The lattice (the product of the ``axes`` coordinates) is split into
    tiles of ``width`` consecutive probes per axis, ``width`` a power of two
    that halves level by level down to single probes. The first level
    starts from every node (see ``_FIRST_LEVEL_PAIRS``). Each tile keeps
    the candidates among its parent's that can be nearest to one of its
    points: with D the distance to the nearest node, c the tile's midpoint
    and r its half-diagonal, every point p of the tile has
    D(p) <= D(c) + r, so its nearest node lies within D(c) + 2r of c. A
    tile whose D(c) + r is below a known lower bound of the result (some
    tile's D(c) - r, or ``fill2``) holds no farthest probe and is dropped.
    At single probes the squared distance to each candidate is summed axis
    by axis from axis 0, as a brute-force search over all nodes sums it,
    so the result is that search's float exactly.

    ``coords`` holds the node coordinates per axis, each ending in a
    padding node at infinity; ``slack`` widens every test (see
    ``_SEARCH_SLACK``). The largest array has one entry per candidate of
    each child of the tiles kept, never one per probe and node.
    """
    dim, pad = len(axes), len(coords[0]) - 1
    width = max(2, 1 << (max(len(a) for a in axes) - 1).bit_length())
    while width > 2 and math.prod(
            -(-len(a) // (width // 2)) for a in axes) * 2**dim * pad <= _FIRST_LEVEL_PAIRS:
        width //= 2
    tiles = np.indices([-(-len(a) // width) for a in axes]).reshape(dim, -1).T
    cand = np.broadcast_to(np.arange(pad), (len(tiles), pad))
    lower = math.sqrt(fill2)
    while True:
        width //= 2
        count, k = cand.shape
        split = (count,) + (2,) * dim
        d2 = reach2 = 0.0
        valid = True
        children = []
        for a in range(dim):
            mid, half = _tiles(axes[a], width)
            shape = (count,) + (1,) * a + (2,) + (1,) * (dim - a - 1)
            child = 2 * tiles[:, a, None] + (0, 1)
            valid = valid & (child < len(mid)).reshape(shape)
            child = np.minimum(child, len(mid) - 1)
            diff = mid[child][..., None] - coords[a][cand][:, None, :]
            sq = (diff * diff).reshape(shape + (k,))
            d2 = d2 + sq if a else sq
            reach2 = reach2 + (half[child] ** 2).reshape(shape)
            children.append(np.broadcast_to(child.reshape(shape), split).ravel())
        d2 = d2.reshape(-1, k)
        near2 = d2.min(axis=1)
        valid = np.broadcast_to(valid, split).ravel()
        if width == 1:
            return max(fill2, float(near2[valid].max()))
        near = np.sqrt(near2)
        reach = np.sqrt(np.broadcast_to(reach2, split).ravel())
        lower = max(lower, float((near - reach)[valid].max()))
        keep = np.flatnonzero(valid & (near + reach + slack >= lower))
        if not len(keep):  # the lattice searched before holds a farther probe
            return fill2
        tiles = np.stack([c[keep] for c in children], axis=1)
        within = d2[keep] <= ((near[keep] + 2.0 * reach[keep] + slack) ** 2)[:, None]
        cand = _compact(cand, keep >> dim, within, pad)


def _compact(cand: np.ndarray, parents: np.ndarray, within: np.ndarray, pad: int) -> np.ndarray:
    """Row i: the entries of ``cand[parents[i]]`` where ``within[i]``, padded with ``pad``."""
    counts = within.sum(axis=1)
    rows, cols = np.nonzero(within)
    slots = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    out = np.full((len(within), counts.max()), pad, dtype=np.intp)
    out[rows, slots] = cand[parents[rows], cols]
    return out


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
