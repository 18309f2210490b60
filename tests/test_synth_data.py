"""Tests for the synthetic spatial workload generators."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.geometry.polygon import point_in_polygon_set


class TestPolygonDatasets:
    @pytest.mark.parametrize("name", sd.POLYGON_DATASETS)
    def test_deterministic(self, name):
        a = sd.polygon_dataset(name, scale="test")
        b = sd.polygon_dataset(name, scale="test")
        assert a is b  # cached
        np.testing.assert_array_equal(a.edge_x1, b.edge_x1)

    @pytest.mark.parametrize("name,count", [("boroughs", 3), ("neighborhoods", 25), ("census", 64)])
    def test_polygon_counts_test_scale(self, name, count):
        assert len(sd.polygon_dataset(name, scale="test")) == count

    @pytest.mark.parametrize("name,count", [("boroughs", 5), ("neighborhoods", 289), ("census", 576)])
    def test_polygon_counts_bench_scale(self, name, count):
        assert len(sd.polygon_dataset(name, scale="bench")) == count

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            sd.polygon_dataset("countries", scale="test")

    @pytest.mark.parametrize("name", sd.POLYGON_DATASETS)
    def test_tiling_fills_region(self, name):
        """The polygons partition the square: areas sum to extent^2."""
        ps = sd.polygon_dataset(name, scale="test")
        total = sum(p.area() for p in ps.polygons)
        assert total == pytest.approx(sd.EXTENT**2, rel=1e-9)

    @pytest.mark.parametrize("name", sd.POLYGON_DATASETS)
    def test_tiling_largely_disjoint(self, name):
        """"Largely disjoint" like the paper's city polygons: at most a
        sliver of points (<0.2%) claimed by more than one polygon."""
        ps = sd.polygon_dataset(name, scale="test")
        px, py = sd.uniform_points(5000, seed=99)
        pi, _ = point_in_polygon_set(px, py, ps)
        n_multi = len(pi) - len(np.unique(pi))
        assert n_multi <= 10

    @pytest.mark.parametrize("name", sd.POLYGON_DATASETS)
    def test_tiling_covers_on_sample(self, name):
        """Every random point is inside at least one polygon."""
        ps = sd.polygon_dataset(name, scale="test")
        px, py = sd.uniform_points(5000, seed=98)
        pi, _ = point_in_polygon_set(px, py, ps)
        assert len(np.unique(pi)) == 5000

    def test_complexity_ordering(self):
        """Boroughs polygons are far more complex than census polygons
        (the paper: 662 vs 12.5 average vertices)."""
        b = sd.polygon_dataset("boroughs", scale="bench").avg_vertices()
        n = sd.polygon_dataset("neighborhoods", scale="bench").avg_vertices()
        c = sd.polygon_dataset("census", scale="bench").avg_vertices()
        assert b > 10 * n > 10 * c

    def test_ccw_orientation(self):
        for p in sd.polygon_dataset("neighborhoods", scale="test").polygons:
            assert p.area() > 0


class TestPoints:
    def test_taxi_deterministic(self):
        a = sd.taxi_points(1000, seed=5)
        b = sd.taxi_points(1000, seed=5)
        np.testing.assert_array_equal(a[0], b[0])

    def test_taxi_seed_sensitivity(self):
        a = sd.taxi_points(1000, seed=5)
        b = sd.taxi_points(1000, seed=6)
        assert not np.array_equal(a[0], b[0])

    def test_taxi_in_region_strict(self):
        x, y = sd.taxi_points(50_000, seed=1)
        assert x.min() > 0 and y.min() > 0
        assert x.max() < sd.EXTENT and y.max() < sd.EXTENT

    def test_taxi_is_clustered(self):
        """The Manhattan-analog strip holds the bulk of the mass — the skew
        the paper's Tables 4-5 rely on (>90% of taxi points in Manhattan)."""
        x, y = sd.taxi_points(100_000, seed=1)
        strip = (np.abs(x - 0.32 * sd.EXTENT) < 0.1 * sd.EXTENT).mean()
        assert strip > 0.8

    def test_uniform_spread(self):
        x, y = sd.uniform_points(100_000, seed=2)
        # Uniform points are not clustered: every quadrant gets ~25%.
        q = ((x > sd.EXTENT / 2).astype(int) * 2 + (y > sd.EXTENT / 2)).astype(int)
        frac = np.bincount(q, minlength=4) / len(x)
        assert np.all(np.abs(frac - 0.25) < 0.02)

    def test_uniform_custom_mbr(self):
        x, y = sd.uniform_points(1000, mbr=(10, 20, 30, 40), seed=3)
        assert x.min() >= 10 and x.max() <= 30
        assert y.min() >= 20 and y.max() <= 40

    def test_points_np_dispatch(self):
        x, y = sd.points_np("taxi", 10)
        assert len(x) == len(y) == 10
        with pytest.raises(ValueError):
            sd.points_np("hexagonal", 10)


class TestPointsDF:
    def test_schema_and_count(self, spark):
        df = sd.points_df(spark, "uniform", 500, seed=4)
        assert df.columns == ["pid", "x", "y"]
        assert df.count() == 500

    def test_pids_unique(self, spark):
        df = sd.points_df(spark, "taxi", 300, seed=4)
        assert df.select("pid").distinct().count() == 300

    def test_repartition(self, spark):
        df = sd.points_df(spark, "taxi", 100, seed=4, partitions=7)
        assert df.rdd.getNumPartitions() == 7

    @pytest.mark.parametrize("partitions", [None, 3])
    def test_plan_references_rows_instead_of_holding_them(self, spark, partitions):
        """A LocalRelation would re-plan and ship every row on every query."""
        df = sd.points_df(spark, "taxi", 1_000, seed=4, partitions=partitions)
        plan = df._jdf.queryExecution().optimizedPlan().toString()
        assert "LocalRelation" not in plan

    @pytest.mark.parametrize("kind", ["taxi", "uniform"])
    def test_rows_equal_points_np(self, spark, kind):
        df = sd.points_df(spark, kind, 2_000, seed=9, partitions=5)
        pdf = df.toPandas().sort_values("pid", ignore_index=True)
        x, y = sd.points_np(kind, 2_000, seed=9)
        np.testing.assert_array_equal(pdf["pid"].to_numpy(), np.arange(2_000))
        np.testing.assert_array_equal(pdf["x"].to_numpy(), x)
        np.testing.assert_array_equal(pdf["y"].to_numpy(), y)
