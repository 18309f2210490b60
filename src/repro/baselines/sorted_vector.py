"""Sorted-vector baseline (paper's "LB": ``std::lower_bound``).

Cell id / tagged entry pairs in a sorted array; a point lookup is a binary
search followed by containment checks against the two neighboring cells
(the super covering is disjoint and curve-sorted, so the containing cell,
if any, is adjacent to the insertion position — the S2 ``CellUnion``
lookup). The paper's Table 1 notes LB has no extra build cost because the
super covering is already sorted by cell id.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import cellid
from repro.core.supercovering import SuperCovering
from repro.core.values import decode_entries, encode_values


@dataclass
class SortedVectorIndex:
    ids: np.ndarray  # int64, sorted cell ids
    values: np.ndarray  # int64 tagged entries, aligned with ids
    lookup_table: np.ndarray  # int32
    extent: float

    def nbytes(self) -> int:
        # The paper's LB stores (cell id, tagged entry) pairs + the table.
        return int(self.ids.nbytes + self.values.nbytes + self.lookup_table.nbytes)

    def probe(self, point_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (tagged entries, comparisons-per-point proxy)."""
        point_ids = np.asarray(point_ids, np.int64)
        cell = cellid.locate(self.ids, point_ids, np.searchsorted(self.ids, point_ids))
        hit = cell >= 0
        out = np.zeros(len(point_ids), np.int64)
        out[hit] = self.values[cell[hit]]
        comparisons = np.full(
            len(point_ids), int(np.ceil(np.log2(max(2, len(self.ids))))) + 2, np.int64
        )
        return out, comparisons

    def probe_refs(self, point_ids):
        entries, _ = self.probe(point_ids)
        return decode_entries(entries, self.lookup_table)


def build_sorted_vector(sc: SuperCovering) -> SortedVectorIndex:
    values, table = encode_values(sc.ref_offsets, sc.ref_poly, sc.ref_interior)
    return SortedVectorIndex(
        ids=sc.ids,
        values=values,
        lookup_table=table,
        extent=sc.extent,
    )
