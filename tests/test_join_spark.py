"""End-to-end Spark join tests, validated against the DuckDB SQL oracle.

The exact join must match, row for row, a crossing-number PIP join written
in plain SQL and executed by DuckDB (an independent engine sharing no code
with the index or the numpy geometry). The approximate join must be a
superset whose false positives stay within the precision bound.
"""
import gc
import os
import pickle
import re
import sys
import weakref
import zipfile
import zipimport
from concurrent.futures import ThreadPoolExecutor

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


def sorted_counts(counts):
    """``count_per_polygon``'s rows as a pandas frame in polygon order."""
    return counts.toPandas().sort_values("poly_id").reset_index(drop=True)


def join_stats(spark, points, bundle) -> dict:
    """The counters of a counted join of ``points``, from its own pass."""
    return count_per_polygon(spatial_join(spark, points, bundle)).join_stats


def _map_in_arrow_inputs(df) -> dict[str, list[str]]:
    """Each ``MapInArrow`` of ``df``'s executed plan, by function name,
    with the columns it reads, after ``df`` has run."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    found: dict[str, set] = {}
    for name, args in re.findall(r"MapInArrow (\w+)\(([^)]*)\)", plan):
        found.setdefault(name, set()).add(tuple(a.split("#")[0] for a in args.split(", ")))
    assert all(len(v) == 1 for v in found.values()), plan
    return {name: list(v.pop()) for name, v in found.items()}


def kernel_inputs(df):
    """The columns of the points that the probe kernel of ``df``'s executed
    plan reads, after ``df`` has run. A kernel over a packed copy reads
    only its ``chunk`` column, and the copy's ``pack`` read the points'
    columns."""
    found = _map_in_arrow_inputs(df)
    if found.get("kernel") == ["chunk"]:
        assert set(found) == {"kernel", "pack"}, found
        return found["pack"]
    assert list(found) == ["kernel"], found
    return found["kernel"]


def reads_packed(df) -> bool:
    """Whether ``df``'s probe kernel read a packed copy, after ``df`` ran."""
    return "pack" in _map_in_arrow_inputs(df)


def count_kernel_inputs(joined):
    """The columns the pushed-down count's kernel over ``joined``'s inputs
    reads."""
    kernel = join._count_kernel(*joined._join_inputs)
    kernel.collect()
    return kernel_inputs(kernel)


def assert_local_rows(df):
    """``df`` is rows held in its plan: collecting it runs no kernel."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    assert plan.startswith("LocalTableScan") and "MapInArrow" not in plan, plan


def assert_counts_pushed_down(joined):
    """``count_per_polygon(joined)`` counts in the probe kernel, which
    reads only ``x`` and ``y``, and returns the sums as local rows, which
    equal the ``groupBy`` over ``joined``'s pairs (``select`` drops the
    pushdown); returns them."""
    pushed = count_per_polygon(joined)
    got = sorted_counts(pushed)
    assert_local_rows(pushed)
    assert count_kernel_inputs(joined) == ["x", "y"]
    grouped = count_per_polygon(joined.select("*"))
    want = sorted_counts(grouped)
    assert kernel_inputs(grouped) == ["pid", "x", "y"]
    assert list(got.columns) == ["poly_id", "n_points"]
    assert dict(pushed.dtypes) == dict(grouped.dtypes) == {"poly_id": "bigint", "n_points": "bigint"}
    pd.testing.assert_frame_equal(got, want)
    return got


@pytest.fixture
def arrow_confs(spark):
    """The session's conf, with its Arrow batch caps restored after the
    test exactly as the test found them: a cap the session had not set is
    unset again, not set to Spark's default."""
    keys = (join._ARROW_MAX_BYTES, join._ARROW_MAX_RECORDS)
    found = {k: spark.conf.get(k, None) for k in keys}
    yield spark.conf
    for k, v in found.items():
        if v is None:
            spark.conf.unset(k)
        else:
            spark.conf.set(k, v)


def batch_rows(df) -> list[int]:
    """The row count of every Arrow batch a kernel over ``df``'s ``x, y``
    receives."""
    sizes = join._project(df, ("x", "y")).mapInArrow(
        lambda batches: (pa.RecordBatch.from_pydict({"n": [b.num_rows]}) for b in batches),
        "n long",
    )
    return [r.n for r in sizes.collect()]


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
        """The paper's probe-phase aggregate: points per polygon, counted
        in the probe kernel."""
        joined = spatial_join(spark, points_sdf, exact_bundle)
        counts = count_per_polygon(joined)
        assert_equivalent(
            counts, PIP_COUNT_SQL, points=points_pdf, edges=neigh.edges_pdf()
        )
        assert count_kernel_inputs(joined) == ["x", "y"]

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
        stats = join_stats(spark, points_sdf, approx_bundle)
        assert stats["pip_tests"] == 0

    def test_finer_precision_fewer_false_positives(self, spark, neigh, points_sdf):
        n = {}
        for precision in (60.0, 15.0):
            b = build_index(neigh, sd.EXTENT, mode="approx", precision_m=precision)
            n[precision] = spatial_join(spark, points_sdf, b).count()
        assert n[15.0] <= n[60.0]


class TestJoinStats:
    def test_stats_consistency(self, spark, points_sdf, exact_bundle):
        row = join_stats(spark, points_sdf, exact_bundle)
        assert all(type(v) is int for v in row.values())
        assert row["points"] == N_POINTS
        assert row["pip_tests"] == row["cand_pairs"]
        assert row["sth_points"] <= row["points"]
        assert row["result_pairs"] <= row["true_pairs"] + row["cand_pairs"]

    def test_stats_match_driver_kernel(self, spark, points_pdf, points_sdf, exact_bundle):
        """The Spark per-partition kernel aggregates to the same counters as
        one driver-side batch."""
        stats = join_stats(spark, points_sdf, exact_bundle)
        _r, _p, _t, driver = probe_batch(
            exact_bundle,
            points_pdf["x"].to_numpy(),
            points_pdf["y"].to_numpy(),
            exact=True,
        )
        for k in ("points", "true_pairs", "cand_pairs", "pip_tests", "sth_points"):
            assert stats[k] == driver[k], k

    @pytest.mark.parametrize("bundle_name", ["approx_bundle", "exact_bundle"])
    def test_stats_equal_summed_driver_stats(
        self, request, spark, points_pdf, points_sdf, invalid_sdf, bundle_name
    ):
        """Every counter, rejected points included, summed over the
        partitions equals the driver kernel's over the same points."""
        bundle = request.getfixturevalue(bundle_name)
        sdf = points_sdf.unionByName(invalid_sdf).repartition(5)
        stats = join_stats(spark, sdf, bundle)
        inv = np.array(INVALID_XY + [(np.nan, 10.0)])
        rows, _p, _t, driver = probe_batch(
            bundle,
            np.concatenate([points_pdf["x"].to_numpy(), inv[:, 0]]),
            np.concatenate([points_pdf["y"].to_numpy(), inv[:, 1]]),
            exact=bundle.mode == "accurate",
        )
        driver["result_pairs"] = len(rows)
        assert driver["rejected_points"] == len(inv)
        assert set(stats) == set(driver)
        for k, v in driver.items():
            assert stats[k] == v, k

    @pytest.mark.parametrize("bundle_name", ["approx_bundle", "exact_bundle"])
    def test_row_and_packed_paths_equal_driver_stats(
        self, request, spark, points_pdf, persisted_points, bundle_name
    ):
        """The counters of the first count on persisted points, read from
        rows, and of the second, read from their packed copy, equal the
        driver kernel's: on the adversarial points with ``INVALID_XY`` and
        a null ``x``, on 3 points in 16 partitions, and on no points."""
        bundle = request.getfixturevalue(bundle_name)
        points, pdf = persisted_points
        inv = np.array(INVALID_XY + [(np.nan, 10.0)])
        three = points_pdf.iloc[:3]
        cases = [
            (points, np.concatenate([pdf["x"], inv[:, 0]]), np.concatenate([pdf["y"], inv[:, 1]])),
            (spark.createDataFrame(three).repartition(16).persist(), three["x"].to_numpy(), three["y"].to_numpy()),
            (spark.createDataFrame([], "pid long, x double, y double").persist(), np.empty(0), np.empty(0)),
        ]
        try:
            for sdf, x, y in cases:
                rows, _p, _t, driver = probe_batch(bundle, x, y, exact=bundle.mode == "accurate")
                driver["result_pairs"] = len(rows)
                for packed in (False, True):
                    assert join_stats(spark, sdf, bundle) == driver
                    assert reads_packed(bundle._operators[sdf][join._emit_counts][1]) == packed
        finally:
            for sdf, _x, _y in cases[1:]:
                sdf.unpersist()


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
        assert spatial_join(spark, invalid_sdf, bundle).count() == 0

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

    def test_null_pid_stays_null(self, spark, points_pdf, exact_bundle):
        head = points_pdf.iloc[:200]
        rows, polys, _t, _s = probe_batch(exact_bundle, head["x"].to_numpy(), head["y"].to_numpy(), True)
        pids = [None if i == rows[0] else int(p) for i, p in enumerate(head["pid"])]
        sdf = spark.createDataFrame(list(zip(pids, head["x"], head["y"])), "pid long, x double, y double")
        got = spatial_join(spark, sdf, exact_bundle).select("pid", "poly_id").collect()
        want = [(pids[r], int(p)) for r, p in zip(rows, polys)]
        key = lambda pair: (pair[0] is not None, pair)  # noqa: E731
        assert sorted(map(tuple, got), key=key) == sorted(want, key=key)
        assert want[0][0] is None


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
        self, spark, arrow_confs, monkeypatch, neigh, points_pdf, approx_bundle, exact_bundle
    ):
        """97-row Arrow batches and 1,000-row chunks: each of the two
        partitions (2,000 rows) forms a full chunk and a short one."""
        sdf = spark.createDataFrame(points_pdf).repartition(2)
        default = spatial_join(spark, sdf, approx_bundle)
        default_approx = pairs(default)
        arrow_confs.set(join._ARROW_MAX_RECORDS, "97")
        monkeypatch.setattr(join, "_CHUNK_ROWS", 1000)
        exact = spatial_join(spark, sdf, exact_bundle).select("pid", "poly_id")
        assert_equivalent(exact, PIP_JOIN_SQL, points=points_pdf, edges=neigh.edges_pdf())
        # The operator prepared with the default chunks is not reused.
        small = spatial_join(spark, sdf, approx_bundle)
        assert small._jdf is not default._jdf
        assert pairs(small) == default_approx
        assert_counts_pushed_down(spatial_join(spark, sdf, exact_bundle))
        stats = join_stats(spark, sdf, exact_bundle)
        rows, _p, _t, driver = probe_batch(
            exact_bundle, points_pdf["x"].to_numpy(), points_pdf["y"].to_numpy(), exact=True
        )
        driver["result_pairs"] = len(rows)
        for k, v in driver.items():
            assert stats[k] == v, k

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
        stats = join_stats(spark, sparse, bundle)
        for k, v in driver.items():
            assert stats[k] == v, k

        empty = spark.createDataFrame([], "pid long, x double, y double")
        assert spatial_join(spark, empty, bundle).count() == 0
        stats = join_stats(spark, empty, bundle)
        assert set(stats) == set(driver)
        assert all(stats[k] == 0 for k in driver)


class TestArrowByteCap:
    """The kernels' input lifts Spark's Arrow byte cap, which makes the JVM
    measure each batch after every row, only when the session left it
    unset and a positive record cap still bounds every batch."""

    def test_lifted_when_unset(self, spark, arrow_confs, points_sdf, approx_bundle):
        arrow_confs.unset(join._ARROW_MAX_BYTES)
        assert arrow_confs.get(join._ARROW_MAX_BYTES, None) is None
        assert spatial_join(spark, points_sdf, approx_bundle).count() > 0
        assert arrow_confs.get(join._ARROW_MAX_BYTES) == "2147483647"
        # The record cap alone still ends every batch.
        arrow_confs.set(join._ARROW_MAX_RECORDS, "300")
        rows = batch_rows(points_sdf)
        assert sum(rows) == N_POINTS and max(rows) == 300

    def test_explicit_cap_kept(
        self, spark, arrow_confs, neigh, points_pdf, points_sdf, approx_bundle, exact_bundle
    ):
        """Under a 1 KiB cap, batches of a few dozen rows, the join gives
        the default session's pairs, counts and stats."""
        arrow_confs.unset(join._ARROW_MAX_BYTES)
        want = {}
        for name, bundle in (("approx", approx_bundle), ("exact", exact_bundle)):
            joined = spatial_join(spark, points_sdf, bundle)
            counted = count_per_polygon(joined)
            want[name] = (pairs(joined), sorted_counts(counted), counted.join_stats)
        arrow_confs.set(join._ARROW_MAX_BYTES, "1k")
        rows = batch_rows(points_sdf)
        assert sum(rows) == N_POINTS and max(rows) < 100
        for name, bundle in (("approx", approx_bundle), ("exact", exact_bundle)):
            joined = spatial_join(spark, points_sdf, bundle)
            want_pairs, want_counts, want_stats = want[name]
            assert pairs(joined) == want_pairs
            pd.testing.assert_frame_equal(assert_counts_pushed_down(joined), want_counts)
            assert join_stats(spark, points_sdf, bundle) == want_stats
        exact = spatial_join(spark, points_sdf, exact_bundle).select("pid", "poly_id")
        assert_equivalent(exact, PIP_JOIN_SQL, points=points_pdf, edges=neigh.edges_pdf())
        assert arrow_confs.get(join._ARROW_MAX_BYTES) == "1k"

    @pytest.mark.parametrize("records", ["0", "-1"])
    def test_kept_without_record_cap(self, spark, arrow_confs, points_sdf, approx_bundle, records):
        arrow_confs.unset(join._ARROW_MAX_BYTES)
        arrow_confs.set(join._ARROW_MAX_RECORDS, records)
        assert spatial_join(spark, points_sdf, approx_bundle).count() > 0
        assert arrow_confs.get(join._ARROW_MAX_BYTES, None) is None


class TestCountPushdown:
    """``count_per_polygon`` of a ``spatial_join`` result counts points per
    polygon inside the probe kernel; the result equals the ``groupBy``
    over the join's pairs, row for row."""

    @pytest.mark.parametrize("bundle_name", ["approx_bundle", "exact_bundle"])
    def test_equals_groupby_over_pairs(self, request, spark, points_sdf, bundle_name):
        bundle = request.getfixturevalue(bundle_name)
        got = assert_counts_pushed_down(spatial_join(spark, points_sdf, bundle))
        assert len(got) > 1 and (got["n_points"] > 0).all()

    @pytest.mark.parametrize("name", sd.POLYGON_DATASETS)
    def test_exact_counts_match_sql_oracle_on_boundary_points(self, spark, name):
        pset = sd.polygon_dataset(name, scale="test")
        pdf = points_frame(*adversarial_points(pset))
        b = build_index(pset, sd.EXTENT, mode="accurate", precision_m=None)
        joined = spatial_join(spark, spark.createDataFrame(pdf).repartition(3), b)
        assert_equivalent(
            count_per_polygon(joined), PIP_COUNT_SQL, points=pdf, edges=pset.edges_pdf()
        )
        assert_counts_pushed_down(joined)

    @pytest.mark.parametrize("bundle_name", ["approx_bundle", "exact_bundle"])
    def test_invalid_empty_and_sparse_inputs(
        self, request, spark, points_pdf, points_sdf, invalid_sdf, bundle_name
    ):
        """Null, NaN, infinite and out-of-extent points are counted in no
        polygon; empty inputs and empty partitions give no rows."""
        bundle = request.getfixturevalue(bundle_name)
        valid = assert_counts_pushed_down(spatial_join(spark, points_sdf, bundle))
        mixed = points_sdf.unionByName(invalid_sdf).repartition(5)
        pd.testing.assert_frame_equal(
            assert_counts_pushed_down(spatial_join(spark, mixed, bundle)), valid
        )
        assert count_per_polygon(spatial_join(spark, invalid_sdf, bundle)).count() == 0
        empty = spark.createDataFrame([], "pid long, x double, y double")
        assert count_per_polygon(spatial_join(spark, empty, bundle)).count() == 0

        three = points_pdf.iloc[:3]
        sparse = spark.createDataFrame(three).repartition(16)
        _rows, polys, _t, _s = probe_batch(
            bundle, three["x"].to_numpy(), three["y"].to_numpy(), bundle.mode == "accurate"
        )
        got = assert_counts_pushed_down(spatial_join(spark, sparse, bundle))
        ids, n = np.unique(polys, return_counts=True)
        assert got["poly_id"].tolist() == ids.tolist()
        assert got["n_points"].tolist() == n.tolist()

    def test_filtered_join_is_grouped(self, spark, points_sdf, exact_bundle):
        """A DataFrame derived from the join result counts its own rows."""
        joined = spatial_join(spark, points_sdf, exact_bundle)
        counts = count_per_polygon(joined.filter("true_hit"))
        got = sorted_counts(counts)
        assert kernel_inputs(counts) == ["pid", "x", "y"]
        hits = joined.toPandas()
        want = (
            hits[hits["true_hit"]].groupby("poly_id").size().rename("n_points").reset_index()
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        assert got["n_points"].sum() < len(hits)

    def test_cached_join_counts_from_points(self, spark, points_sdf, approx_bundle):
        """``cache()`` returns the join result itself, which keeps its
        inputs: the count still runs over the points' ``x`` and ``y``."""
        joined = spatial_join(spark, points_sdf, approx_bundle)
        want = sorted_counts(count_per_polygon(joined.select("*")))
        assert joined.cache() is joined
        try:
            joined.count()
            counts = count_per_polygon(joined)
            pd.testing.assert_frame_equal(sorted_counts(counts), want)
            assert_local_rows(counts)
            assert count_kernel_inputs(joined) == ["x", "y"]
        finally:
            joined.unpersist()

    def test_one_job_of_one_stage(self, spark, approx_bundle):
        """The count and its ``join_stats`` come from one job of one stage,
        run when ``count_per_polygon`` is called; collecting its result and
        reading the counters run no job."""
        sc = spark.sparkContext
        points = sd.points_df(spark, "taxi", N_POINTS, seed=33)
        xy = points.toPandas()
        joined = spatial_join(spark, points, approx_bundle)
        want = sorted_counts(count_per_polygon(joined.select("*")))
        try:
            sc.setJobGroup("pushed-down-count", "count_per_polygon")
            counts = count_per_polygon(joined)
            sc.setJobGroup("pushed-down-collect", "collect")
            got = pd.DataFrame(counts.collect(), columns=["poly_id", "n_points"])
            stats = counts.join_stats
        finally:
            sc._jsc.clearJobGroup()
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = sc.statusTracker()
        jobs = tracker.getJobIdsForGroup("pushed-down-count")
        assert len(jobs) == 1
        assert len(list(tracker.getJobInfo(jobs[0]).stageIds)) == 1
        assert tracker.getJobIdsForGroup("pushed-down-collect") == []
        pd.testing.assert_frame_equal(got.sort_values("poly_id").reset_index(drop=True), want)
        rows, _p, _t, driver = probe_batch(approx_bundle, xy["x"].to_numpy(), xy["y"].to_numpy(), exact=False)
        assert stats == {**driver, "result_pairs": len(rows)} and len(rows) == want["n_points"].sum()


@pytest.fixture
def persisted_points(spark, neigh, invalid_sdf):
    """The adversarial points of the test neighborhoods, then ``INVALID_XY``
    and a null ``x`` under the next pids, persisted in 5 shuffled
    partitions, and the valid points as pandas; unpersisted afterwards."""
    pdf = points_frame(*adversarial_points(neigh))
    invalid = invalid_sdf.selectExpr(f"pid + {len(pdf)} AS pid", "x", "y")
    sdf = spark.createDataFrame(pdf).unionByName(invalid).repartition(5).persist()
    yield sdf, pdf
    sdf.unpersist()


def oracle_pairs(pdf, pset) -> set:
    """``PIP_JOIN_SQL``'s (pid, poly_id) pairs over ``pdf``."""
    import duckdb

    con = duckdb.connect()
    con.register("points", pdf)
    con.register("edges", pset.edges_pdf())
    tdf = con.execute(PIP_JOIN_SQL).fetchdf()
    con.close()
    return set(zip(tdf["pid"].tolist(), tdf["poly_id"].tolist()))


class TestPreparedOperator:
    """One probe operator per (points, bundle, emitted batch), built on
    first use and reused by later calls; it keeps neither the bundle nor
    the points alive."""

    def test_repeated_calls_share_one_operator(self, spark, points_pdf, approx_bundle, exact_bundle):
        points = spark.createDataFrame(points_pdf)
        count = join._count_kernel(points, approx_bundle)
        assert join._count_kernel(points, approx_bundle) is count
        exact = join._count_kernel(points, exact_bundle)
        assert exact is not count and join._count_kernel(points, exact_bundle) is exact
        assert join._count_kernel(spark.createDataFrame(points_pdf), approx_bundle) is not count
        # Each join result is a new DataFrame over the one prepared plan.
        first, second = spatial_join(spark, points, approx_bundle), spatial_join(spark, points, approx_bundle)
        assert first is not second and first._jdf is second._jdf
        assert spatial_join(spark, points, exact_bundle)._jdf is not first._jdf
        stats = join_stats(spark, points, approx_bundle)
        assert join_stats(spark, points, approx_bundle) == stats
        # One operator for the pairs and one for the count and its counters.
        assert set(approx_bundle._operators[points]) == {join._emit_pairs, join._emit_counts}
        assert approx_bundle._operators[points][join._emit_counts][1] is count
        # Every run probes all points again.
        counts = sorted_counts(count_per_polygon(first))
        pd.testing.assert_frame_equal(sorted_counts(count_per_polygon(second)), counts)
        assert counts["n_points"].sum() == stats["result_pairs"]

    def test_keeps_neither_bundle_nor_points_alive(self, spark, neigh, points_pdf):
        """Once the caller drops them, the bundle's broadcast file goes and
        the points' packed copy is unpersisted."""
        bundle = build_index(neigh, sd.EXTENT, mode="approx", precision_m=60.0)
        points = spark.createDataFrame(points_pdf).persist()
        for _ in range(2):
            count_per_polygon(spatial_join(spark, points, bundle)).collect()
        copies = [points._packed[1]]
        assert join._persisted(copies[0])
        refs = weakref.ref(bundle), weakref.ref(points)
        path = _bundle_broadcast(spark.sparkContext, bundle)._path
        points_jdf = points._jdf
        del bundle, points
        gc.collect()
        try:
            assert [r() for r in refs] == [None, None]
            assert not os.path.exists(path)
            assert not any(join._persisted(c) for c in copies)
        finally:
            points_jdf.unpersist(False)

    def test_threads_share_one_operator(self, spark, points_pdf, exact_bundle):
        """Driver threads asking at once for one (points, bundle) count get
        the operator over rows, first, or the one over the one packed copy
        its first reuse made; later asks get that one too."""
        points = spark.createDataFrame(points_pdf).persist()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                rounds = [
                    list(pool.map(lambda _: join._count_kernel(points, exact_bundle), range(16), timeout=120))
                    for _ in range(2)
                ]
        finally:
            sys.setswitchinterval(switch)
            points.unpersist()
        packed = rounds[1][0]
        assert len({id(op) for op in rounds[0]}) == 2 and any(op is packed for op in rounds[0])
        assert all(op is packed for op in rounds[1])
        assert points._packed[0] == join._packed_rows(spark)

    def test_reused_operator_reads_arrow_caps_when_run(
        self, spark, arrow_confs, monkeypatch, points_sdf, approx_bundle
    ):
        """With 1-row chunks each Arrow batch is probed alone, and each run
        of the one operator batches its input by the caps as they are
        then."""

        def emit_rows(chunk, *_):
            return {"n": join._int64([chunk.num_rows])}

        schema = pa.schema([("n", pa.int64())])
        monkeypatch.setattr(join, "_CHUNK_ROWS", 1)
        arrow_confs.unset(join._ARROW_MAX_BYTES)

        def run():
            operator = join._map_probe(points_sdf, approx_bundle, ("x", "y"), emit_rows, schema)
            rows = [r.n for r in operator.collect()]
            assert sum(rows) == N_POINTS
            return operator, max(rows)

        operator, most = run()
        assert most > 300
        arrow_confs.set(join._ARROW_MAX_RECORDS, "300")
        assert run() == (operator, 300)
        arrow_confs.unset(join._ARROW_MAX_RECORDS)
        arrow_confs.set(join._ARROW_MAX_BYTES, "1k")
        again, most = run()
        assert again is operator and most < 100

    @pytest.mark.parametrize("kind", ["checkpointed", "shuffled", "persisted-shuffled"])
    def test_repeated_counts_one_job_one_task_per_partition(self, spark, approx_bundle, kind):
        """After the first, every count of one join runs one job, and its
        probe stage, the one stage that runs, completes one task per
        partition of the points. On persisted points the second count
        makes the packed copy: adaptive execution first fills it in a job
        of its own, of one task per partition too."""
        sc = spark.sparkContext
        points = sd.points_df(spark, "taxi", N_POINTS, seed=34)
        if kind != "checkpointed":
            points = points.repartition(5)
        if kind == "persisted-shuffled":
            points = points.persist()
        n_partitions = points.rdd.getNumPartitions()
        groups = [f"repeated-count-{kind}-{i}" for i in range(3)]
        try:
            want = sorted_counts(count_per_polygon(spatial_join(spark, points, approx_bundle).select("*")))
            counts = [count_per_polygon(spatial_join(spark, points, approx_bundle))]
            for group in groups:
                sc.setJobGroup(group, "count_per_polygon")
                counts.append(count_per_polygon(spatial_join(spark, points, approx_bundle)))
            sc._jsc.clearJobGroup()
            for got in counts:
                pd.testing.assert_frame_equal(sorted_counts(got), want)
            assert reads_packed(join._count_kernel(points, approx_bundle)) == (kind == "persisted-shuffled")
        finally:
            sc._jsc.clearJobGroup()
            points.unpersist()
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = sc.statusTracker()
        for i, group in enumerate(groups):
            jobs = tracker.getJobIdsForGroup(group)
            assert len(jobs) == (2 if kind == "persisted-shuffled" and i == 0 else 1), group
            for job in jobs:
                stages = [tracker.getStageInfo(s) for s in tracker.getJobInfo(job).stageIds]
                ran = [st for st in stages if st is not None and st.numCompletedTasks]
                assert [(st.numTasks, st.numCompletedTasks) for st in ran] == [(n_partitions, n_partitions)]


class TestPackedPoints:
    """From the second count on persisted points, the kernel reads a
    persisted packed copy of their ``x, y``; counts and their counters
    equal the row path's and the SQL oracle's, and the pairs are still
    probed from rows."""

    @pytest.mark.parametrize("bundle_name", ["approx_bundle", "exact_bundle"])
    def test_equals_row_path_and_oracle(self, request, spark, neigh, persisted_points, bundle_name):
        bundle = request.getfixturevalue(bundle_name)
        points, pdf = persisted_points

        def results():
            joined = spatial_join(spark, points, bundle)
            counted = count_per_polygon(joined)
            return (pairs(joined), sorted_counts(counted), counted.join_stats), joined

        first, joined = results()
        assert not reads_packed(joined) and "_packed" not in points.__dict__
        for _ in range(2):
            again, joined = results()
            assert not reads_packed(joined) and kernel_inputs(joined) == ["pid", "x", "y"]
            count = join._count_kernel(points, bundle)
            assert reads_packed(count) and kernel_inputs(count) == ["x", "y"]
            assert again[0] == first[0]
            pd.testing.assert_frame_equal(again[1], first[1])
            assert again[2] == first[2]
        inv = np.array(INVALID_XY + [(np.nan, 10.0)])
        rows, _p, _t, driver = probe_batch(
            bundle,
            np.concatenate([pdf["x"].to_numpy(), inv[:, 0]]),
            np.concatenate([pdf["y"].to_numpy(), inv[:, 1]]),
            exact=bundle.mode == "accurate",
        )
        driver["result_pairs"] = len(rows)
        assert first[2] == driver
        truth = oracle_pairs(pdf, neigh)
        if bundle.mode == "accurate":
            assert first[0] == truth
            assert_equivalent(
                count_per_polygon(spatial_join(spark, points, bundle)),
                PIP_COUNT_SQL,
                points=pdf,
                edges=neigh.edges_pdf(),
            )
        else:
            assert truth <= first[0]
        assert max(pid for pid, _ in first[0]) < len(pdf)

    def test_unpersist_unpersists_packed_copy(self, spark, points_pdf, approx_bundle):
        points = spark.createDataFrame(points_pdf).persist()
        try:
            want = sorted_counts(count_per_polygon(spatial_join(spark, points, approx_bundle)))
            count_per_polygon(spatial_join(spark, points, approx_bundle))
            copy = points._packed[1]
            assert join._persisted(copy)
        finally:
            points.unpersist()
        counts = count_per_polygon(spatial_join(spark, points, approx_bundle))
        assert "_packed" not in points.__dict__ and not join._persisted(copy)
        assert not reads_packed(join._count_kernel(points, approx_bundle))
        pd.testing.assert_frame_equal(sorted_counts(counts), want)

    @pytest.mark.parametrize("records", [1, 97, 10_000, 1 << 20])
    def test_record_cap_of_slices_fits_a_binary_vector(self, spark, arrow_confs, records):
        """A packed row holds at most ``_packed_rows`` points, so a batch of
        the record cap of packed rows fits in Arrow Java's binary vector,
        nulls in both columns included."""
        arrow_confs.set(join._ARROW_MAX_RECORDS, str(records))
        rows = join._packed_rows(spark)
        column = pa.array(np.arange(rows, dtype=np.float64), mask=np.arange(rows) % 2 == 0)
        packed = join._pack(pa.RecordBatch.from_arrays([column, column], ["x", "y"]))
        assert rows > 0 and records * packed.column(0)[0].as_buffer().size <= 2**31 - 1

    @pytest.mark.parametrize("records", [0, -1, 10**7])
    def test_no_slice_fits_reads_rows(self, spark, arrow_confs, records):
        arrow_confs.set(join._ARROW_MAX_RECORDS, str(records))
        assert join._packed_rows(spark) == 0

    def test_many_slices_per_batch_and_cap_changes(self, spark, arrow_confs, persisted_points, approx_bundle):
        """With a record cap that leaves room for 50 points per packed row,
        each partition's one Arrow batch becomes many packed rows, and the
        kernel reads them all in one batch. A later record cap makes a new
        copy and unpersists the old one; no positive cap reads rows, with
        the same counts and counters."""
        points, _pdf = persisted_points
        per_row = join._PACKED_HEADER_BYTES + 50 * join._PACKED_POINT_BYTES
        arrow_confs.set(join._ARROW_MAX_RECORDS, str(join._PACKED_BATCH_BYTES // per_row))
        assert join._packed_rows(spark) == 50
        want = sorted_counts(count_per_polygon(spatial_join(spark, points, approx_bundle)))
        got = sorted_counts(count_per_polygon(spatial_join(spark, points, approx_bundle)))
        copy = points._packed[1]
        assert reads_packed(join._count_kernel(points, approx_bundle))
        slices = copy.mapInArrow(
            lambda batches: (pa.RecordBatch.from_pydict({"n": [b.num_rows]}) for b in batches), "n long"
        ).collect()
        assert len(slices) == 5 and sum(r.n for r in slices) >= points.count() / 50
        pd.testing.assert_frame_equal(got, want)
        arrow_confs.set(join._ARROW_MAX_RECORDS, "10000")
        got = sorted_counts(count_per_polygon(spatial_join(spark, points, approx_bundle)))
        assert not join._persisted(copy) and points._packed[0] == join._packed_rows(spark)
        assert reads_packed(join._count_kernel(points, approx_bundle))
        pd.testing.assert_frame_equal(got, want)
        stats = join_stats(spark, points, approx_bundle)
        for records in ("0", "-1"):
            arrow_confs.set(join._ARROW_MAX_RECORDS, records)
            counted = count_per_polygon(spatial_join(spark, points, approx_bundle))
            assert_local_rows(counted)
            pd.testing.assert_frame_equal(sorted_counts(counted), want)
            assert counted.join_stats == stats
            assert "_packed" not in points.__dict__
            assert not reads_packed(join._count_kernel(points, approx_bundle))


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
        join_stats(spark, points_sdf, b)
        count_per_polygon(spatial_join(spark, points_sdf, b)).collect()
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
