"""Proxy per-point cost counters for the probe structures (Table 5 analog).

The paper reports hardware counters (cycles, instructions, branch misses,
cache misses) from `perf`. We run numpy kernels, not perf-instrumented C++,
so we report the *mechanisms* those counters measure (DESIGN.md §3):

* ``node_accesses``  — dependent memory accesses per point (drives cycles
  and cache misses for >L3 structures);
* ``comparisons``    — key comparisons per point (drives instructions);
* ``bytes_touched``  — index bytes read per point (drives cache misses);
* ``ns_per_point``   — wall clock per point (cycles analog).

The first three are *derived* from each probe's per-point cost array: for
ACT a node access touches one 8-byte slot; for the B-tree a node access
touches a 256-byte node; for the sorted vector each binary-search step
touches an 8-byte key. ``ns_per_point`` is *measured*: the median of
rounds that time the structures in turn (:func:`interleaved_seconds`).
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass
class ProbeCounters:
    structure: str
    points: int
    node_accesses: float  # mean per point
    comparisons: float  # mean per point
    bytes_touched: float  # mean per point
    ns_per_point: float
    throughput_mpts: float

    def as_row(self) -> dict:
        return {
            "index": self.structure,
            "node_accesses": round(self.node_accesses, 2),
            "comparisons": round(self.comparisons, 2),
            "bytes_touched": round(self.bytes_touched, 1),
            "ns_per_point": round(self.ns_per_point, 1),
            "throughput_mpts": round(self.throughput_mpts, 2),
        }


def measure_probes(
    indexes: dict[str, object], point_ids: np.ndarray, repeats: int
) -> list[ProbeCounters]:
    """Time each structure's ``index.probe`` (median of ``repeats`` rounds
    that probe the structures in turn) and derive the proxy counters.

    ``index.probe`` returns (entries, per-point cost array) where the cost
    array is trie depth for ACT, node accesses for the B-tree, and
    comparisons for the sorted vector — normalized here.
    """
    seconds, results = interleaved_seconds(
        [lambda index=index: index.probe(point_ids) for index in indexes.values()],
        repeats,
    )
    n = len(point_ids)
    out = []
    for structure_name, t, (_entries, cost) in zip(indexes, seconds, results):
        kind = structure_name.lower()
        if kind.startswith("act"):
            node_acc = float((cost + 1).clip(0).mean())  # depth -> accesses
            comparisons = 1.0  # one tag check per resolved entry; no key cmp
            bytes_t = node_acc * 8.0  # one 8-byte slot per node
        elif kind in ("gbt", "btree"):
            node_acc = float(cost.mean())
            comparisons = node_acc * 32.0  # linear in-node scan of 32 keys
            bytes_t = node_acc * 256.0
        else:  # sorted vector (LB)
            comparisons = float(cost.mean())
            node_acc = comparisons  # each comparison is a dependent access
            bytes_t = comparisons * 8.0
        out.append(
            ProbeCounters(
                structure=structure_name,
                points=n,
                node_accesses=node_acc,
                comparisons=comparisons,
                bytes_touched=bytes_t,
                ns_per_point=t / n * 1e9,
                throughput_mpts=n / t / 1e6,
            )
        )
    return out


def interleaved_seconds(
    fns: Sequence[Callable[[], object]], repeats: int
) -> tuple[list[float], list[object]]:
    """Median wall clock of each of ``fns`` over ``repeats`` rounds, and
    each one's last result.

    Every round calls each function once, in turn, so load that comes and
    goes during the measurement slows all of them alike: their ratios are
    what the tables report, and those stay stable where separate best-of-N
    timings would not.
    """
    times: list[list[float]] = [[] for _ in fns]
    results: list[object] = [None] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            results[i] = fn()
            times[i].append(time.perf_counter() - t0)
    return [statistics.median(t) for t in times], results
