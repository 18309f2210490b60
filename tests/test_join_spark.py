"""End-to-end Spark join tests, validated against the DuckDB SQL oracle.

The exact join must match, row for row, a crossing-number PIP join written
in plain SQL and executed by DuckDB (an independent engine sharing no code
with the index or the numpy geometry). The approximate join must be a
superset whose false positives stay within the precision bound.
"""
import gc
import os
import pickle
import sys
import zipfile
import zipimport

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.core import cellid, join
from repro.core.join import (
    PolygonIndexBundle,
    _bundle_broadcast,
    _chunks,
    _drop_zip_importers,
    build_index,
    count_per_polygon,
    probe_batch,
    spatial_join,
    spatial_join_stats,
)
from repro.geometry.polygon import point_to_polygon_distance
from repro.geometry.sql_oracle import PIP_COUNT_SQL, PIP_JOIN_SQL
from repro.oracle import assert_equivalent
from tests.pip_helpers import adversarial_points, oracle_contains, points_frame

N_POINTS = 4_000


@pytest.fixture(scope="module")
def neigh():
    return sd.polygon_dataset("neighborhoods", scale="test")


@pytest.fixture(scope="module")
def points_pdf():
    px, py = sd.taxi_points(N_POINTS, seed=31)
    return pd.DataFrame({"pid": np.arange(N_POINTS, dtype=np.int64), "x": px, "y": py})


@pytest.fixture(scope="module")
def points_sdf(spark, points_pdf):
    return spark.createDataFrame(points_pdf).repartition(8)


#: Points the cell grid does not cover: outside ``[0, extent)`` on one
#: axis, NaN or infinite. None may be paired with a polygon in any mode.
INVALID_XY = [
    (-500.0, 10.0),
    (8692.0, 10.0),
    (10.0, -3000.0),
    (np.nan, 10.0),
    (1e12, 5.0),
    (-np.inf, 5.0),
]


@pytest.fixture(scope="module")
def invalid_sdf(spark):
    """``INVALID_XY`` plus a row whose ``x`` is null."""
    rows = [(i, x, y) for i, (x, y) in enumerate(INVALID_XY)]
    rows.append((len(INVALID_XY), None, 10.0))
    return spark.createDataFrame(rows, "pid long, x double, y double")


def pairs(joined):
    return set(map(tuple, joined.select("pid", "poly_id").toPandas().to_numpy().tolist()))


@pytest.fixture(scope="module")
def exact_bundle(neigh):
    return build_index(neigh, sd.EXTENT, mode="accurate", precision_m=None)


@pytest.fixture(scope="module")
def approx_bundle(neigh):
    return build_index(neigh, sd.EXTENT, mode="approx", precision_m=15.0)


class TestExactJoin:
    def test_matches_sql_oracle(self, spark, neigh, points_pdf, points_sdf, exact_bundle):
        joined = spatial_join(spark, points_sdf, exact_bundle).select("pid", "poly_id")
        assert_equivalent(
            joined, PIP_JOIN_SQL, points=points_pdf, edges=neigh.edges_pdf()
        )

    def test_counts_match_sql_oracle(
        self, spark, neigh, points_pdf, points_sdf, exact_bundle
    ):
        """The paper's probe-phase aggregate: points per polygon."""
        joined = spatial_join(spark, points_sdf, exact_bundle)
        counts = count_per_polygon(joined)
        assert_equivalent(
            counts, PIP_COUNT_SQL, points=points_pdf, edges=neigh.edges_pdf()
        )

    def test_all_structures_agree(self, spark, neigh, points_sdf):
        results = []
        for structure in ("act1", "act2", "act4", "lb", "btree"):
            b = build_index(
                neigh, sd.EXTENT, mode="accurate", precision_m=None, structure=structure
            )
            rows = (
                spatial_join(spark, points_sdf, b)
                .select("pid", "poly_id")
                .toPandas()
                .sort_values(["pid", "poly_id"])
                .reset_index(drop=True)
            )
            results.append(rows)
        for other in results[1:]:
            pd.testing.assert_frame_equal(results[0], other)

    def test_exact_join_on_uniform_points(self, spark, neigh, exact_bundle):
        px, py = sd.uniform_points(N_POINTS, seed=32)
        pdf = pd.DataFrame({"pid": np.arange(N_POINTS, dtype=np.int64), "x": px, "y": py})
        joined = spatial_join(spark, spark.createDataFrame(pdf), exact_bundle)
        assert_equivalent(
            joined.select("pid", "poly_id"),
            PIP_JOIN_SQL,
            points=pdf,
            edges=neigh.edges_pdf(),
        )

    def test_census_dataset(self, spark, points_pdf, points_sdf):
        census = sd.polygon_dataset("census", scale="test")
        b = build_index(census, sd.EXTENT, mode="accurate", precision_m=None)
        joined = spatial_join(spark, points_sdf, b).select("pid", "poly_id")
        assert_equivalent(
            joined, PIP_JOIN_SQL, points=points_pdf, edges=census.edges_pdf()
        )

    @pytest.mark.parametrize("name", sd.POLYGON_DATASETS)
    def test_matches_sql_oracle_on_boundary_points(self, spark, name):
        """Points on vertices, edges and cell borders: the join and the
        oracle follow one boundary rule."""
        pset = sd.polygon_dataset(name, scale="test")
        pdf = points_frame(*adversarial_points(pset))
        b = build_index(pset, sd.EXTENT, mode="accurate", precision_m=None)
        joined = spatial_join(spark, spark.createDataFrame(pdf), b)
        assert_equivalent(
            joined.select("pid", "poly_id"), PIP_JOIN_SQL, points=pdf, edges=pset.edges_pdf()
        )

    def test_true_hits_marked(self, spark, points_sdf, exact_bundle):
        joined = spatial_join(spark, points_sdf, exact_bundle)
        n_true = joined.filter(F.col("true_hit")).count()
        n_all = joined.count()
        assert 0 < n_true <= n_all


class TestApproxJoin:
    def test_superset_of_truth(self, spark, neigh, points_pdf, points_sdf, approx_bundle):
        import duckdb

        joined = spatial_join(spark, points_sdf, approx_bundle)
        got = set(
            map(tuple, joined.select("pid", "poly_id").toPandas().to_numpy().tolist())
        )
        con = duckdb.connect()
        con.register("points", points_pdf)
        con.register("edges", neigh.edges_pdf())
        tdf = con.execute(PIP_JOIN_SQL).fetchdf()
        con.close()
        truth = set(zip(tdf["pid"].tolist(), tdf["poly_id"].tolist()))
        assert truth <= got

    def test_false_positives_within_precision(
        self, spark, neigh, points_pdf, points_sdf
    ):
        """Paper §3.2: any false positive is within the precision bound of
        the matched polygon."""
        import duckdb

        for precision in (60.0, 15.0):
            b = build_index(neigh, sd.EXTENT, mode="approx", precision_m=precision)
            joined = spatial_join(spark, points_sdf, b)
            got = set(
                map(tuple, joined.select("pid", "poly_id").toPandas().to_numpy().tolist())
            )
            con = duckdb.connect()
            con.register("points", points_pdf)
            con.register("edges", neigh.edges_pdf())
            tdf = con.execute(PIP_JOIN_SQL).fetchdf()
            con.close()
            truth = set(zip(tdf["pid"].tolist(), tdf["poly_id"].tolist()))
            px = points_pdf["x"].to_numpy()
            py = points_pdf["y"].to_numpy()
            for pid, poly in got - truth:
                d = point_to_polygon_distance(
                    px[pid : pid + 1], py[pid : pid + 1], neigh.polygons[poly]
                )[0]
                assert d <= precision

    def test_no_pip_tests_in_approx_mode(self, spark, points_sdf, approx_bundle):
        stats = spatial_join_stats(spark, points_sdf, approx_bundle)
        assert int(stats["pip_tests"].iloc[0]) == 0

    def test_finer_precision_fewer_false_positives(self, spark, neigh, points_sdf):
        n = {}
        for precision in (60.0, 15.0):
            b = build_index(neigh, sd.EXTENT, mode="approx", precision_m=precision)
            n[precision] = spatial_join(spark, points_sdf, b).count()
        assert n[15.0] <= n[60.0]


class TestJoinStats:
    def test_stats_consistency(self, spark, points_sdf, exact_bundle):
        stats = spatial_join_stats(spark, points_sdf, exact_bundle)
        row = stats.iloc[0]
        assert row["points"] == N_POINTS
        assert row["pip_tests"] == row["cand_pairs"]
        assert row["sth_points"] <= row["points"]
        assert row["result_pairs"] <= row["true_pairs"] + row["cand_pairs"]

    def test_stats_match_driver_kernel(self, spark, points_pdf, points_sdf, exact_bundle):
        """The Spark per-partition kernel aggregates to the same counters as
        one driver-side batch."""
        stats = spatial_join_stats(spark, points_sdf, exact_bundle)
        _r, _p, _t, driver = probe_batch(
            exact_bundle,
            points_pdf["x"].to_numpy(),
            points_pdf["y"].to_numpy(),
            exact=True,
        )
        for k in ("points", "true_pairs", "cand_pairs", "pip_tests", "sth_points"):
            assert int(stats[k].iloc[0]) == driver[k], k

    @pytest.mark.parametrize("bundle_name", ["approx_bundle", "exact_bundle"])
    def test_stats_equal_summed_driver_stats(
        self, request, spark, points_pdf, points_sdf, invalid_sdf, bundle_name
    ):
        """Every counter, rejected points included, summed over the
        partitions equals the driver kernel's over the same points."""
        bundle = request.getfixturevalue(bundle_name)
        sdf = points_sdf.unionByName(invalid_sdf).repartition(5)
        stats = spatial_join_stats(spark, sdf, bundle)
        inv = np.array(INVALID_XY + [(np.nan, 10.0)])
        rows, _p, _t, driver = probe_batch(
            bundle,
            np.concatenate([points_pdf["x"].to_numpy(), inv[:, 0]]),
            np.concatenate([points_pdf["y"].to_numpy(), inv[:, 1]]),
            exact=bundle.mode == "accurate",
        )
        driver["result_pairs"] = len(rows)
        assert driver["rejected_points"] == len(inv)
        assert set(stats.columns) == set(driver)
        for k, v in driver.items():
            assert int(stats[k].iloc[0]) == v, k


@pytest.mark.parametrize("name", ["boroughs", "neighborhoods", "census"])
def test_refine_candidates_matches_per_polygon_loop(name, points_pdf):
    """The refinement keeps a (point, polygon) pair iff the SQL oracle
    ``PIP_JOIN_SQL``, testing each polygon's edges, puts the point in it."""
    pset = sd.polygon_dataset(name, scale="test")
    bundle = build_index(pset, sd.EXTENT, mode="accurate", precision_m=None)
    ux, uy = sd.uniform_points(N_POINTS, seed=32)
    px = np.concatenate([points_pdf.x.to_numpy(), ux])
    py = np.concatenate([points_pdf.y.to_numpy(), uy])
    rows, polys, is_true = bundle.index.probe_refs(cellid.cell_from_point(px, py, sd.EXTENT))
    keep, n_pip = join.refine_candidates(px, py, rows, polys, is_true, pset)
    want = oracle_contains(px[rows], py[rows], polys, pset)
    np.testing.assert_array_equal(keep, want)
    assert n_pip == (~is_true).sum()
    assert (keep & ~is_true).any() and (~keep).any()


class TestInputDomain:
    """Invalid points are dropped before the probe (ROADMAP aim 3; the
    approximate join's §3.2 bound must hold for every input)."""

    @pytest.mark.parametrize("bundle_name", ["approx_bundle", "exact_bundle"])
    def test_probe_batch_pairs_no_invalid_point(self, request, bundle_name):
        bundle = request.getfixturevalue(bundle_name)
        # The driver-side form of a null coordinate is NaN.
        inv = np.array(INVALID_XY + [(np.nan, 10.0)])
        for exact in (False, True):
            rows, polys, _t, stats = probe_batch(bundle, inv[:, 0], inv[:, 1], exact)
            assert len(rows) == len(polys) == 0
            assert stats["points"] == stats["rejected_points"] == len(inv)
            assert stats["true_pairs"] == stats["cand_pairs"] == stats["sth_points"] == 0

    @pytest.mark.parametrize("bundle_name", ["approx_bundle", "exact_bundle"])
    def test_spatial_join_pairs_no_invalid_point(
        self, request, spark, invalid_sdf, bundle_name
    ):
        bundle = request.getfixturevalue(bundle_name)
        for exact in (False, True):
            assert spatial_join(spark, invalid_sdf, bundle, exact=exact).count() == 0

    def test_rows_index_the_input(self, points_pdf, approx_bundle):
        """With invalid points mixed in, each pair still names the row of
        the input it came from."""
        px = points_pdf["x"].to_numpy()[:500]
        py = points_pdf["y"].to_numpy()[:500]
        rows, polys, _t, _s = probe_batch(approx_bundle, px, py, exact=False)
        inv = np.array(INVALID_XY)
        at = np.arange(0, 500, 500 // len(inv))[: len(inv)]
        mx = np.insert(px, at, inv[:, 0])
        my = np.insert(py, at, inv[:, 1])
        m_rows, m_polys, _t, stats = probe_batch(approx_bundle, mx, my, exact=False)
        assert stats["rejected_points"] == len(inv)
        valid = np.delete(np.arange(len(mx)), at + np.arange(len(at)))
        assert sorted(zip(valid[rows].tolist(), polys.tolist())) == sorted(
            zip(m_rows.tolist(), m_polys.tolist())
        )


class TestInputContract:
    """``spatial_join`` reads ``pid``, ``x`` and ``y`` by name, as long and
    double, whatever else the input holds."""

    def test_extra_columns_and_order_ignored(self, spark, points_sdf, exact_bundle):
        base = pairs(spatial_join(spark, points_sdf, exact_bundle))
        wider = points_sdf.select(
            F.concat(F.lit("p"), F.col("pid").cast("string")).alias("label"), "y", "x", "pid"
        )
        assert pairs(spatial_join(spark, wider, exact_bundle)) == base

    def test_narrow_numeric_types(self, spark, points_pdf, exact_bundle):
        x32 = points_pdf["x"].to_numpy(np.float32)
        y32 = points_pdf["y"].to_numpy(np.float32)
        wide = pd.DataFrame(
            {"pid": points_pdf["pid"], "x": x32.astype(np.float64), "y": y32.astype(np.float64)}
        )
        narrow = pd.DataFrame({"pid": points_pdf["pid"].astype(np.int32), "x": x32, "y": y32})
        narrow_sdf = spark.createDataFrame(narrow)
        assert dict(narrow_sdf.dtypes) == {"pid": "int", "x": "float", "y": "float"}
        joined = spatial_join(spark, narrow_sdf, exact_bundle)
        assert dict(joined.dtypes) == {"pid": "bigint", "poly_id": "bigint", "true_hit": "boolean"}
        assert pairs(joined) == pairs(spatial_join(spark, spark.createDataFrame(wide), exact_bundle))


class TestBundle:
    def test_bundle_records_build_times(self, exact_bundle):
        assert set(exact_bundle.build_seconds) >= {"coverings", "supercovering", "structure"}

    def test_unknown_structure(self, neigh, monkeypatch):
        """The structure name is checked before any covering is computed."""

        def no_covering(*args):
            raise AssertionError("coverings computed for an unknown structure")

        monkeypatch.setattr(join, "compute_coverings", no_covering)
        with pytest.raises(KeyError):
            build_index(neigh, sd.EXTENT, structure="splaytree")

    def test_approx_requires_precision(self, neigh):
        with pytest.raises(ValueError):
            build_index(neigh, sd.EXTENT, mode="approx", precision_m=None)

    def test_unknown_mode(self, neigh):
        with pytest.raises(ValueError):
            build_index(neigh, sd.EXTENT, mode="fuzzy")


class TestChunking:
    """The kernels regroup Arrow batches into chunks of at least
    ``_CHUNK_ROWS`` rows; results must not depend on either size."""

    def test_chunks_regroup_rows(self):
        sizes = [97] * 20 + [0, 60, 0]
        batches = []
        start = 0
        for n in sizes:
            batches.append(pa.RecordBatch.from_pydict({"v": np.arange(start, start + n)}))
            start += n
        chunks = list(_chunks(iter(batches), 1000))
        assert [c.num_rows for c in chunks] == [1067, 933]
        joined = np.concatenate([c.column("v").to_numpy() for c in chunks])
        np.testing.assert_array_equal(joined, np.arange(start))
        assert list(_chunks(iter(batches[20:21]), 1000)) == []
        assert list(_chunks(iter([]), 1000)) == []

    def test_small_batches_several_chunks(
        self, spark, monkeypatch, neigh, points_pdf, approx_bundle, exact_bundle
    ):
        """97-row Arrow batches and 1,000-row chunks: each of the two
        partitions (2,000 rows) forms a full chunk and a short one."""
        sdf = spark.createDataFrame(points_pdf).repartition(2)
        default_approx = pairs(spatial_join(spark, sdf, approx_bundle))
        key = "spark.sql.execution.arrow.maxRecordsPerBatch"
        old = spark.conf.get(key)
        spark.conf.set(key, "97")
        monkeypatch.setattr(join, "_CHUNK_ROWS", 1000)
        try:
            exact = spatial_join(spark, sdf, exact_bundle).select("pid", "poly_id")
            assert_equivalent(exact, PIP_JOIN_SQL, points=points_pdf, edges=neigh.edges_pdf())
            assert pairs(spatial_join(spark, sdf, approx_bundle)) == default_approx
            stats = spatial_join_stats(spark, sdf, exact_bundle)
        finally:
            spark.conf.set(key, old)
        rows, _p, _t, driver = probe_batch(
            exact_bundle, points_pdf["x"].to_numpy(), points_pdf["y"].to_numpy(), exact=True
        )
        driver["result_pairs"] = len(rows)
        for k, v in driver.items():
            assert int(stats[k].iloc[0]) == v, k

    @pytest.mark.parametrize("bundle_name", ["approx_bundle", "exact_bundle"])
    def test_empty_partitions_and_input(self, request, spark, points_pdf, bundle_name):
        bundle = request.getfixturevalue(bundle_name)
        exact = bundle.mode == "accurate"
        three = points_pdf.iloc[:3]
        sparse = spark.createDataFrame(three).repartition(16)
        rows, polys, _t, driver = probe_batch(
            bundle, three["x"].to_numpy(), three["y"].to_numpy(), exact
        )
        driver["result_pairs"] = len(rows)
        assert pairs(spatial_join(spark, sparse, bundle)) == set(
            zip(three["pid"].to_numpy()[rows].tolist(), polys.tolist())
        )
        stats = spatial_join_stats(spark, sparse, bundle)
        for k, v in driver.items():
            assert int(stats[k].iloc[0]) == v, k

        empty = spark.createDataFrame([], "pid long, x double, y double")
        assert spatial_join(spark, empty, bundle).count() == 0
        stats = spatial_join_stats(spark, empty, bundle)
        assert len(stats) == 1
        assert all(int(stats[k].iloc[0]) == 0 for k in driver)


class _FakeBroadcast:
    def __init__(self, path):
        self._path = path
        self.destroyed = False

    def destroy(self):
        self.destroyed = True
        os.unlink(self._path)


class _FakeContext:
    """Stands in for a ``SparkContext``: ``_jsc`` is None once stopped,
    and each broadcast writes a file, as Spark's does."""

    def __init__(self, tmp_path, name):
        self._jsc = object()
        self.tmp_path = tmp_path
        self.name = name
        self.made = 0

    def broadcast(self, value):
        self.made += 1
        path = self.tmp_path / f"{self.name}-{self.made}"
        path.write_bytes(pickle.dumps(value))
        return _FakeBroadcast(str(path))


def _broadcast_id(sc, bundle) -> int:
    return _bundle_broadcast(sc, bundle)._jbroadcast.id()


def _tiny_bundle() -> PolygonIndexBundle:
    return PolygonIndexBundle("act4", None, None, 1.0, "approx", 4.0, 0)


class TestBroadcastOnce:
    """One broadcast per (bundle, context), destroyed with the bundle."""

    def test_joins_share_one_broadcast(self, spark, neigh, points_sdf):
        sc = spark.sparkContext
        b = build_index(neigh, sd.EXTENT, mode="accurate", precision_m=None)
        pickled = pickle.dumps(b, protocol=pickle.HIGHEST_PROTOCOL)
        spatial_join(spark, points_sdf, b).count()
        first = _broadcast_id(sc, b)
        spatial_join(spark, points_sdf, b).count()
        spatial_join_stats(spark, points_sdf, b)
        assert _broadcast_id(sc, b) == first
        # The cached broadcast is not part of the bundle's pickled state.
        assert pickle.dumps(b, protocol=pickle.HIGHEST_PROTOCOL) == pickled
        rebuilt = build_index(neigh, sd.EXTENT, mode="accurate", precision_m=None)
        spatial_join(spark, points_sdf, rebuilt).count()
        assert _broadcast_id(sc, rebuilt) != first

    def test_one_temp_file_removed_with_bundle(self, spark, neigh, points_sdf):
        """``sc.broadcast`` leaves a pickled copy of its value in the
        context's temporary directory until the broadcast is destroyed."""
        sc = spark.sparkContext
        gc.collect()
        before = set(os.listdir(sc._temp_dir))
        b = build_index(neigh, sd.EXTENT, mode="approx", precision_m=60.0)
        for _ in range(5):
            spatial_join(spark, points_sdf, b).count()
        path = _bundle_broadcast(sc, b)._path
        assert set(os.listdir(sc._temp_dir)) - before == {os.path.basename(path)}
        del b
        gc.collect()
        assert not os.path.exists(path)

    def test_new_broadcast_for_other_or_stopped_context(self, tmp_path):
        b = _tiny_bundle()
        c1 = _FakeContext(tmp_path, "c1")
        bc1 = _bundle_broadcast(c1, b)
        assert _bundle_broadcast(c1, b) is bc1 and c1.made == 1
        # A stopped context's broadcast is never reused; its file goes.
        c1._jsc = None
        bc2 = _bundle_broadcast(c1, b)
        assert bc2 is not bc1 and not os.path.exists(bc1._path) and not bc1.destroyed
        # Another live context gets its own; the old live one is destroyed.
        c1._jsc = object()
        c2 = _FakeContext(tmp_path, "c2")
        bc3 = _bundle_broadcast(c2, b)
        assert bc2.destroyed and not os.path.exists(bc2._path)
        assert _bundle_broadcast(c2, b) is bc3
        # The broadcast is part of no copy of the bundle.
        assert pickle.dumps(b) == pickle.dumps(_tiny_bundle())
        del b
        gc.collect()
        assert bc3.destroyed and not os.path.exists(bc3._path)


def test_drop_zip_importers(tmp_path, monkeypatch):
    """Evicting the zip importers keeps imported modules and later imports
    from the same archive working."""
    archive = tmp_path / "plumbing_probe.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("plumbing_probe/__init__.py", "")
        z.writestr("plumbing_probe/a.py", "X = 1\n")
        z.writestr("plumbing_probe/b.py", "Y = 2\n")
    monkeypatch.syspath_prepend(str(archive))

    def zip_importers():
        return [f for f in sys.path_importer_cache.values() if isinstance(f, zipimport.zipimporter)]

    try:
        import plumbing_probe.a

        assert zip_importers()
        _drop_zip_importers()
        assert zip_importers() == []
        assert plumbing_probe.a.X == 1
        import plumbing_probe.b

        assert plumbing_probe.b.Y == 2
    finally:
        for name in ("plumbing_probe", "plumbing_probe.a", "plumbing_probe.b"):
            sys.modules.pop(name, None)
