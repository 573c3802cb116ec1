import math

import numpy as np
import pytest

from rbfstudy.geometry import (
    CubeDomain,
    PointSet,
    coverage_check,
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

    def test_csv_round_trip(self, tmp_path):
        pts = PointSet.from_array(np.random.default_rng(0).random((7, 2)))
        path = tmp_path / "points.csv"
        pts.save_csv(path)
        text = path.read_text()
        assert "\r" not in text and not text.startswith("x")  # no header, LF only
        loaded = PointSet.load_csv(path)
        assert np.array_equal(loaded.points, pts.points)


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


class TestCoverageCheck:
    def test_single_subcube_contains_point(self):
        domain = CubeDomain.unit(1)
        assert coverage_check(domain, PointSet.from_array([[0.5]]), 0.5)

    def test_detects_empty_subcube(self):
        domain = CubeDomain.unit(1)
        assert not coverage_check(domain, PointSet.from_array([[0.1]]), 0.25)

    def test_2d_grid_with_boundary(self):
        domain = CubeDomain.unit(2)
        nodes = generate_points(domain, "grid", spacing=0.5)
        assert coverage_check(domain, nodes, 0.5)

    def test_d_out_of_range(self):
        domain = CubeDomain.unit(1)
        nodes = PointSet.from_array([[0.5]])
        with pytest.raises(ValueError):
            coverage_check(domain, nodes, 0.0)
        with pytest.raises(ValueError):
            coverage_check(domain, nodes, 0.6)

    def test_coverage_implies_fill_bound(self):
        rng = np.random.default_rng(13)
        domain = CubeDomain.unit(2)
        for _ in range(10):
            nodes = generate_points(
                domain, "random", count=40, seed=int(rng.integers(2**31))
            )
            for d in (0.2, 0.3):
                if coverage_check(domain, nodes, d):
                    fill = fill_distance(domain, nodes, 64)
                    assert fill <= 2.0 * d * math.sqrt(2.0) + 1e-12


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
    assert coverage_check(domain, nodes, 0.5)
    assert not coverage_check(domain, PointSet.from_array([[0.1, 0.1, 0.1]]), 0.25)
