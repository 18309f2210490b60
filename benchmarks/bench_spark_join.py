"""End-to-end Spark join benchmarks (ACT4 approximate and accurate).

The per-table benchmarks time the paper's single-threaded probe kernels on
the driver; this file times the full DataFrame -> DataFrame operator
(mapInArrow over a broadcast index), the deliverable of this
reproduction.
"""
import os

import pytest

from repro import synth_data as sd
from repro.core.join import build_index, spatial_join
from repro.tables import datasets as ds

SCALE = os.environ.get("REPRO_BENCH_SCALE", "bench")
N_POINTS = 1_000_000 if SCALE == "bench" else 20_000


@pytest.fixture(scope="module")
def points(spark):
    df = sd.points_df(spark, "taxi", N_POINTS, seed=7, partitions=32)
    df = df.persist()
    df.count()
    yield df
    df.unpersist()


@pytest.mark.parametrize("mode", ["approx", "accurate"])
def test_spark_join(benchmark, spark, points, mode):
    pset = sd.polygon_dataset("neighborhoods", scale=SCALE)
    bundle = build_index(
        pset,
        sd.EXTENT,
        mode=mode,
        precision_m=4.0 if mode == "approx" else None,
        structure="act4",
    )

    def run():
        return spatial_join(spark, points, bundle).count()

    pairs = benchmark.pedantic(run, rounds=3, iterations=1)
    assert pairs > 0


def test_spark_join_baseline_structures(benchmark, spark, points):
    """The sorted-vector baseline through the same Spark operator."""
    pset = sd.polygon_dataset("neighborhoods", scale=SCALE)
    bundle = build_index(pset, sd.EXTENT, mode="approx", precision_m=4.0, structure="lb")

    def run():
        return spatial_join(spark, points, bundle).count()

    assert benchmark.pedantic(run, rounds=3, iterations=1) > 0
