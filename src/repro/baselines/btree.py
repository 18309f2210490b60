"""Static B-tree baseline (paper's "GBT": Google's C++ B-tree).

An implicit (bulk-loaded, read-only) B-tree over the sorted cell ids with
32 int64 keys per node (= the paper's most query-efficient 256-byte target
node size). Internal levels store separator keys (the max key of each
child); a lookup descends one node per level (gather + count-less-or-equal,
the linear in-node scan a cache-optimized B-tree does), then finishes in
the leaf with the same containment check as the sorted vector.

The point of this baseline in the paper: a B-tree does *not* benefit from
large (coarse) cells — they sit in leaves like any other key — whereas ACT
finds them near the root (Table 3).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import cellid
from repro.core.supercovering import SuperCovering
from repro.core.values import decode_entries, encode_values

NODE_KEYS = 32  # 32 * 8 B = 256-byte nodes, the paper's GBT node size

_SENTINEL = np.int64(np.iinfo(np.int64).max)


def _pad_to_nodes(keys: np.ndarray) -> np.ndarray:
    pad = (-len(keys)) % NODE_KEYS
    if pad:
        keys = np.concatenate([keys, np.full(pad, _SENTINEL, np.int64)])
    return keys


@dataclass
class BTreeIndex:
    ids: np.ndarray  # leaf level: sorted cell ids
    values: np.ndarray
    lookup_table: np.ndarray
    levels: list[np.ndarray] = field(default_factory=list)  # top-down internals
    extent: float = 0.0

    @property
    def n_levels(self) -> int:
        """Tree height including the leaf level."""
        return len(self.levels) + 1

    def nbytes(self) -> int:
        return int(
            self.ids.nbytes
            + self.values.nbytes
            + self.lookup_table.nbytes
            + sum(l.nbytes for l in self.levels)
        )

    def probe(self, point_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (tagged entries, node-accesses per point)."""
        point_ids = np.asarray(point_ids, np.int64)
        npts = len(point_ids)
        out = np.zeros(npts, np.int64)
        n = len(self.ids)
        if n == 0:
            return out, np.zeros(npts, np.int64)
        node = np.zeros(npts, np.int64)
        n_leaf_chunks = (n + NODE_KEYS - 1) // NODE_KEYS
        for li, lvl in enumerate(self.levels):
            keys = lvl[node[:, None] * NODE_KEYS + np.arange(NODE_KEYS)]
            child = (keys <= point_ids[:, None]).sum(axis=1)
            node = node * NODE_KEYS + child
            limit = (
                len(self.levels[li + 1]) // NODE_KEYS
                if li + 1 < len(self.levels)
                else n_leaf_chunks
            )
            node = np.minimum(node, limit - 1)
        # In-leaf search: gather the leaf chunk and scan it, as a B-tree
        # would — then the containment check against the matched cell and
        # its left neighbor (the covering is disjoint and curve-sorted).
        base = node * NODE_KEYS
        leaf = self.ids[np.minimum(base[:, None] + np.arange(NODE_KEYS), n - 1)]
        within = (leaf <= point_ids[:, None]).sum(axis=1)
        cell = cellid.locate(self.ids, point_ids, np.minimum(base + within, n))
        hit = cell >= 0
        out[hit] = self.values[cell[hit]]
        return out, np.full(npts, self.n_levels, np.int64)

    def probe_refs(self, point_ids):
        entries, _ = self.probe(point_ids)
        return decode_entries(entries, self.lookup_table)


def build_btree(sc: SuperCovering) -> BTreeIndex:
    """Bulk-load the implicit B-tree from the (already sorted) covering."""
    values, table = encode_values(sc.ref_offsets, sc.ref_poly, sc.ref_interior)
    levels: list[np.ndarray] = []
    keys = sc.ids
    while len(keys) > NODE_KEYS:
        n_chunks = (len(keys) + NODE_KEYS - 1) // NODE_KEYS
        chunk_last = np.minimum((np.arange(n_chunks) + 1) * NODE_KEYS - 1, len(keys) - 1)
        separators = keys[chunk_last]
        levels.insert(0, _pad_to_nodes(separators))
        keys = separators
    return BTreeIndex(
        ids=sc.ids,
        values=values,
        lookup_table=table,
        levels=levels,
        extent=sc.extent,
    )
