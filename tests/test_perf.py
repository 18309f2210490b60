"""Tests for the proxy performance counters."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core import cellid
from repro.core.act import build_act
from repro.core.covering import cover_polygons
from repro.core.supercovering import build_supercovering
from repro.baselines.btree import build_btree
from repro.baselines.sorted_vector import build_sorted_vector
from repro.perf.counters import ProbeCounters, measure_probes


@pytest.fixture(scope="module")
def setup():
    ps = sd.polygon_dataset("neighborhoods", scale="test")
    pids = np.arange(len(ps))
    cells, flags, offs = cover_polygons(ps, pids, sd.EXTENT, 9, np.inf, True)
    sc = build_supercovering(cells, np.repeat(pids, np.diff(offs)), flags, sd.EXTENT)
    px, py = sd.taxi_points(20_000, seed=41)
    return sc, cellid.cell_from_point(px, py, sd.EXTENT)


class TestMeasureProbe:
    def test_act_counters(self, setup):
        sc, pt = setup
        act = build_act(sc, 4)
        c = measure_probes({"ACT4": act}, pt, 1)[0]
        assert isinstance(c, ProbeCounters)
        assert 1.0 <= c.node_accesses <= act.max_depth + 1
        assert c.bytes_touched == pytest.approx(c.node_accesses * 8)
        assert c.throughput_mpts > 0
        assert c.points == len(pt)

    def test_btree_counters(self, setup):
        sc, pt = setup
        bt = build_btree(sc)
        c = measure_probes({"GBT": bt}, pt, 1)[0]
        assert c.node_accesses == bt.n_levels
        assert c.bytes_touched == pytest.approx(bt.n_levels * 256)
        assert c.comparisons == pytest.approx(bt.n_levels * 32)

    def test_lb_counters(self, setup):
        sc, pt = setup
        lb = build_sorted_vector(sc)
        c = measure_probes({"LB": lb}, pt, 1)[0]
        assert c.comparisons == int(np.ceil(np.log2(sc.n_cells))) + 2
        assert c.bytes_touched == pytest.approx(c.comparisons * 8)

    def test_as_row_keys(self, setup):
        sc, pt = setup
        c = measure_probes({"ACT1": build_act(sc, 1)}, pt, 1)[0]
        row = c.as_row()
        assert set(row) == {
            "index",
            "node_accesses",
            "comparisons",
            "bytes_touched",
            "ns_per_point",
            "throughput_mpts",
        }

    def test_ns_consistent_with_throughput(self, setup):
        sc, pt = setup
        c = measure_probes({"ACT2": build_act(sc, 2)}, pt, 2)[0]
        assert c.ns_per_point == pytest.approx(1e3 / c.throughput_mpts, rel=1e-6)
