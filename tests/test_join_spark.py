"""End-to-end Spark join tests, validated against the DuckDB SQL oracle.

The exact join must match, row for row, a crossing-number PIP join written
in plain SQL and executed by DuckDB (an independent engine sharing no code
with the index or the numpy geometry). The approximate join must be a
superset whose false positives stay within the precision bound.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.core import cellid
from repro.core.join import (
    build_index,
    compute_coverings,
    count_per_polygon,
    probe_batch,
    spatial_join,
    spatial_join_stats,
)
from repro.geometry.polygon import point_to_polygon_distance
from repro.geometry.sql_oracle import PIP_COUNT_SQL, PIP_JOIN_SQL
from repro.oracle import assert_equivalent

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


class TestDistributedBuild:
    def test_spark_coverings_equal_driver(self, spark, neigh):
        for mode, precision in (("approx", 15.0), ("accurate", None)):
            a = compute_coverings(neigh, sd.EXTENT, mode, precision, spark=None)
            b = compute_coverings(neigh, sd.EXTENT, mode, precision, spark=spark)
            assert len(a) == len(b) == len(neigh)
            for (pa, ca, fa), (pb, cb, fb) in zip(a, b):
                assert pa == pb
                np.testing.assert_array_equal(ca, cb)
                np.testing.assert_array_equal(fa, fb)

    def test_spark_built_index_joins_correctly(self, spark, neigh, points_pdf, points_sdf):
        b = build_index(
            neigh, sd.EXTENT, mode="accurate", precision_m=None, spark=spark
        )
        joined = spatial_join(spark, points_sdf, b).select("pid", "poly_id")
        assert_equivalent(
            joined, PIP_JOIN_SQL, points=points_pdf, edges=neigh.edges_pdf()
        )


class TestBundle:
    def test_bundle_records_build_times(self, exact_bundle):
        assert set(exact_bundle.build_seconds) >= {"coverings", "supercovering", "structure"}

    def test_unknown_structure(self, neigh):
        with pytest.raises(KeyError):
            build_index(neigh, sd.EXTENT, structure="splaytree")

    def test_approx_requires_precision(self, neigh):
        with pytest.raises(ValueError):
            build_index(neigh, sd.EXTENT, mode="approx", precision_m=None)

    def test_unknown_mode(self, neigh):
        with pytest.raises(ValueError):
            build_index(neigh, sd.EXTENT, mode="fuzzy")
