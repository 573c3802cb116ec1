import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rbfstudy
from rbfstudy.geometry import (
    CubeDomain,
    PointSet,
    fill_distance,
    generate_points,
    halton_points,
    uniform_grid,
)


class TestDomainsAndPointSets:
    def test_cube_validation(self):
        with pytest.raises(ValueError):
            CubeDomain(1, (0.0,), 0.0)
        with pytest.raises(ValueError):
            CubeDomain(2, (0.0,), 1.0)

    def test_pointset_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PointSet.from_array([[0.1], [0.1]])

    def test_pointset_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointSet.from_array([[0.1], [math.nan]])

    def test_pointset_copies_and_freezes(self):
        arr = np.array([[0.1], [0.2]])
        ps = PointSet.from_array(arr)
        arr[0, 0] = 9.0  # caller's array stays writable
        assert ps.points[0, 0] == 0.1
        with pytest.raises(ValueError):
            ps.points[0, 0] = 3.0


class TestFillDistance:
    def test_three_points_unit_interval(self):
        domain = CubeDomain.unit(1)
        nodes = PointSet.from_array([[0.0], [0.5], [1.0]])
        for r in (8, 16, 100):
            assert fill_distance(domain, nodes, r) == pytest.approx(0.25, abs=1e-12)

    def test_single_point(self):
        domain = CubeDomain.unit(1)
        assert fill_distance(domain, PointSet.from_array([[0.5]]), 64) == pytest.approx(0.5)

    def test_2d_grid_against_dense_oracle(self):
        domain = CubeDomain.unit(2)
        nodes = generate_points(domain, "grid", spacing=0.5)
        assert len(nodes) == 9
        expected = 0.25 * math.sqrt(2.0)
        assert fill_distance(domain, nodes, 16) == pytest.approx(expected, abs=1e-12)
        assert fill_distance(domain, nodes, 512) == pytest.approx(expected, abs=1e-12)

    def test_empty_nodes_rejected(self):
        domain = CubeDomain.unit(1)
        with pytest.raises(ValueError):
            fill_distance(domain, PointSet(1, np.zeros((0, 1))), 8)

    def test_monotone_under_extra_node(self):
        rng = np.random.default_rng(11)
        domain = CubeDomain.unit(2)
        pts = rng.random((6, 2))
        base = fill_distance(domain, PointSet.from_array(pts), 64)
        for _ in range(5):
            extra = np.vstack([pts, rng.random((1, 2))])
            assert fill_distance(domain, PointSet.from_array(extra), 64) <= base + 1e-15

    def test_scaling_exact(self):
        rng = np.random.default_rng(12)
        pts = rng.random((8, 2))
        base = fill_distance(CubeDomain.unit(2), PointSet.from_array(pts), 32)
        for t in (0.5, 2.0, 7.0):
            scaled = fill_distance(
                CubeDomain(2, (0.0, 0.0), t), PointSet.from_array(t * pts), 32
            )
            assert scaled == pytest.approx(t * base, rel=1e-12)

    @pytest.mark.parametrize("dim,spacing", [(1, 0.25), (2, 0.25), (2, 0.125)])
    def test_grid_law(self, dim, spacing):
        domain = CubeDomain.unit(dim)
        nodes = generate_points(domain, "grid", spacing=spacing)
        r = 128
        cell = domain.side / r * math.sqrt(dim)
        expected = spacing * math.sqrt(dim) / 2.0
        assert abs(fill_distance(domain, nodes, r) - expected) <= cell


def brute_force_fill(domain, points, resolution):
    """Every probe of the fill lattice against every node, a block of probes
    at a time: the largest squared nearest-node distance, square-rooted once."""
    step = domain.side / resolution
    size = max(1, 2**20 // len(points))
    fill2 = 0.0
    for offsets in (np.arange(resolution + 1), np.arange(resolution) + 0.5):
        axes = [lo + step * offsets for lo in domain.lower]
        probes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        for start in range(0, len(probes), size):
            block = probes[start:start + size]
            d2 = 0.0
            for a in range(domain.dim):
                diff = block[:, None, a] - points[None, :, a]
                d2 = d2 + diff * diff
            fill2 = max(fill2, float(d2.min(axis=1).max()))
    return math.sqrt(fill2)


def _node_set(kind, count, dim, domain, rng):
    lo, side = np.asarray(domain.lower), domain.side
    if kind == "grid":
        return uniform_grid(domain, max(2, round(count ** (1 / dim))))
    if kind == "halton":
        return lo + side * halton_points(count, dim)
    if kind == "random":
        return lo + side * rng.random((count, dim))
    if kind == "faces":
        # every node on a face, so probes on that face tie with it
        pts = lo + side * rng.random((count, dim))
        axis = rng.integers(0, dim, count)
        pts[np.arange(count), axis] = lo[axis] + side * rng.integers(0, 2, count)
        return np.unique(pts, axis=0)
    if kind == "outside":
        return lo + side * (3.0 * rng.random((count, dim)) - 1.0)
    if kind == "on-probes":
        # on vertices of the resolution-64 lattice: exact zeros and many ties
        return lo + side / 64 * np.unique(rng.integers(0, 65, (count, dim)), axis=0)
    if kind == "near-duplicates":
        pts = lo + side * rng.random((count // 2 + 1, dim))
        return np.vstack([pts, np.nextafter(pts, np.inf)])[:count]
    raise ValueError(kind)


def _with_duplicates(points):
    """A PointSet holding repeated points, which its constructor refuses."""
    nodes = PointSet.from_array(np.unique(points, axis=0))
    object.__setattr__(nodes, "points", points)
    return nodes


# (dim, node set, count, resolution); brute force costs probes x nodes
ORACLE_CASES = [
    (1, "grid", 5, 16), (1, "halton", 1, 512), (1, "random", 2000, 512),
    (1, "faces", 40, 64), (1, "outside", 300, 64), (1, "near-duplicates", 50, 512),
    (1, "on-probes", 30, 64),
    (2, "grid", 441, 64), (2, "grid", 25, 512), (2, "halton", 1, 16),
    (2, "halton", 2000, 64), (2, "random", 1000, 16), (2, "random", 20, 512),
    (2, "faces", 200, 64), (2, "outside", 500, 64), (2, "near-duplicates", 300, 64),
    (2, "on-probes", 300, 64),
    (3, "grid", 125, 16), (3, "halton", 2000, 16), (3, "random", 300, 16),
    (3, "halton", 10, 64), (3, "faces", 100, 16), (3, "outside", 400, 16),
    (3, "near-duplicates", 60, 16), (3, "on-probes", 20, 64),
]


class TestFillDistanceSearch:
    """The lattice search returns the brute-force float exactly."""

    @pytest.mark.parametrize("dim, kind, count, resolution", ORACLE_CASES,
                             ids=[f"{d}d-{k}-{n}-r{r}" for d, k, n, r in ORACLE_CASES])
    def test_equals_brute_force(self, dim, kind, count, resolution):
        rng = np.random.default_rng(count * 10 + dim)
        for domain in (CubeDomain.unit(dim), CubeDomain(dim, (-0.3, 2.0, 0.7)[:dim], 1.7)):
            points = _node_set(kind, count, dim, domain, rng)
            nodes = PointSet.from_array(points)
            assert fill_distance(domain, nodes, resolution) == brute_force_fill(
                domain, nodes.points, resolution)

    @pytest.mark.parametrize("dim, resolution", [(1, 512), (2, 64), (3, 16)])
    def test_duplicate_nodes_equal_brute_force(self, dim, resolution):
        rng = np.random.default_rng(dim)
        domain = CubeDomain.unit(dim)
        points = rng.random((30, dim))
        points = np.vstack([points, points[rng.integers(0, 30, 60)]])
        assert fill_distance(domain, _with_duplicates(points), resolution) == brute_force_fill(
            domain, points, resolution)

    def test_memory_stays_far_below_probes_times_nodes(self):
        domain = CubeDomain.unit(2)
        nodes = generate_points(domain, "halton", count=2000)
        resolution = 128
        probes = (resolution + 1) ** 2 + resolution ** 2
        fill_distance(domain, nodes, resolution)
        tracemalloc.start()
        try:
            fill_distance(domain, nodes, resolution)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one double per probe and node would be 528 MB; the search peaks near 2 MB
        assert peak < probes * len(nodes) * 8 / 50


def test_import_leaves_scipy_spatial_out():
    src = str(Path(rbfstudy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, rbfstudy, rbfstudy.cli; print('scipy.spatial' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_every_exported_name_resolves():
    assert len(set(rbfstudy.__all__)) == len(rbfstudy.__all__)
    for name in rbfstudy.__all__:
        assert hasattr(rbfstudy, name), name


class TestGeneratePoints:
    def test_grid_includes_faces(self):
        nodes = generate_points(CubeDomain.unit(1), "grid", spacing=0.5)
        assert np.allclose(nodes.points.ravel(), [0.0, 0.5, 1.0])

    def test_halton_first_three_2d(self):
        nodes = generate_points(CubeDomain.unit(2), "halton", count=3)
        expected = np.array([[1 / 2, 1 / 3], [1 / 4, 2 / 3], [3 / 4, 1 / 9]])
        assert np.allclose(nodes.points, expected, rtol=0.0, atol=1e-15)

    def test_halton_scaled_into_domain(self):
        domain = CubeDomain(1, (2.0,), 4.0)
        nodes = generate_points(domain, "halton", count=4)
        assert np.allclose(nodes.points.ravel(), [4.0, 3.0, 5.0, 2.5])

    def test_random_deterministic(self):
        domain = CubeDomain.unit(3)
        a = generate_points(domain, "random", count=20, seed=7)
        b = generate_points(domain, "random", count=20, seed=7)
        assert np.array_equal(a.points, b.points)
        c = generate_points(domain, "random", count=20, seed=8)
        assert not np.array_equal(a.points, c.points)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            generate_points(CubeDomain.unit(1), "sobol", count=3)

    def test_uniform_grid_shape(self):
        grid = uniform_grid(CubeDomain.unit(2), 5)
        assert grid.shape == (25, 2)
        assert grid.min() == 0.0 and grid.max() == 1.0


def test_halton_van_der_corput_values():
    # classic base-2 radical-inverse sequence
    pts = halton_points(6, 1).ravel()
    assert np.allclose(pts, [1 / 2, 1 / 4, 3 / 4, 1 / 8, 5 / 8, 3 / 8])


def _van_der_corput(index: int, base: int) -> float:
    """Scalar radical inverse: the reference for the vectorized generator."""
    value, denom = 0.0, 1.0
    while index:
        denom *= base
        index, remainder = divmod(index, base)
        value += remainder / denom
    return value


@pytest.mark.parametrize("count,dim", [(1, 3), (250, 3), (2000, 3), (5000, 3), (300, 10)])
def test_halton_same_bits_as_scalar_radical_inverse(count, dim):
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)[:dim]
    expected = np.array(
        [[_van_der_corput(i, base) for base in bases] for i in range(1, count + 1)]
    )
    assert np.array_equal(halton_points(count, dim), expected)


def test_three_dimensional_paths():
    domain = CubeDomain.unit(3)
    nodes = generate_points(domain, "grid", spacing=0.5)
    assert len(nodes) == 27
    # default scan resolution drops to 32 per axis for 3d
    fill = fill_distance(domain, nodes)
    expected = 0.25 * math.sqrt(3.0)
    assert abs(fill - expected) <= math.sqrt(3.0) / 32
