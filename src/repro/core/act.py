"""Adaptive Cell Trie (ACT) — the paper's core data structure (§3.1.2–3.1.3).

A static radix tree over the 60-bit quadtree paths of super-covering cells.
The fanout is ``4**delta`` where ``delta`` is the number of quadtree levels
consumed per trie level (paper variants: ACT1/ACT2/ACT4 = delta 1/2/4;
ACT4's fanout-256 nodes are 256 x 8-byte slots, like the paper).

Design points mirrored from the paper:

* **Key extension**: a cell whose level is not a multiple of ``delta``
  is replaced by its descendants at the next supported granularity, so a
  node lookup is a single offset access and no per-cell level is stored.
  (Implemented without materializing the descendants: such a cell simply
  fills a contiguous *range of slots* in its node.)
* **Tagged pointer/value slots**: because super-covering cells are
  disjoint, a slot never needs both a pointer and a value; the 2 low bits
  tag the slot (see :mod:`repro.core.values`). Empty slots are 0 — the
  sentinel meaning "false hit".
* **Common prefix at the root only** (path compression elsewhere did not
  pay off in the paper).
* Values can live at any depth; larger cells sit closer to the root, which
  is why skewed real-world points (mostly hitting large interior cells)
  probe fewer nodes — Tables 3 and 4.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import cellid
from repro.core.supercovering import SuperCovering
from repro.core.values import decode_entries, encode_values
from repro.geometry.polygon import _ranges


@dataclass
class ActIndex:
    """Immutable ACT over one super covering."""

    delta: int  # quadtree levels per trie level (1, 2, or 4)
    prefix_depth: int  # number of trie levels compressed at the root
    prefix_value: int  # the shared first prefix_depth*B bits
    entries: np.ndarray  # int64[n_nodes * fanout]
    lookup_table: np.ndarray  # int32
    n_nodes: int
    extent: float
    max_depth: int  # deepest trie level holding any value

    @property
    def bits_per_level(self) -> int:
        return 2 * self.delta

    @property
    def fanout(self) -> int:
        return 4**self.delta

    def nbytes(self) -> int:
        return int(self.entries.nbytes + self.lookup_table.nbytes)

    def probe(
        self, point_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probe leaf-level point cell ids (paper Listing 2), vectorized.

        Returns ``(tagged_entries, depths)``: entry 0 = false hit; depth is
        the number of node accesses - 1 (the trie level where the traversal
        ended, counting the root as 0); depth -1 = rejected by the root's
        common prefix.
        """
        point_ids = np.asarray(point_ids, np.int64)
        keys = point_ids >> np.int64(1)  # 60-bit leaf path
        n = len(keys)
        out = np.zeros(n, np.int64)
        depths = np.full(n, -1, np.int64)
        B = self.bits_per_level
        fanout_mask = np.int64(self.fanout - 1)
        if self.prefix_depth > 0:
            pshift = np.int64(60 - B * self.prefix_depth)
            active = np.flatnonzero((keys >> pshift) == self.prefix_value)
        else:
            active = np.arange(n)
        node = np.zeros(len(active), np.int64)  # root is node 0
        d = self.prefix_depth
        while len(active) and d < self.max_depth + 1:
            shift = np.int64(60 - B * (d + 1))
            bits = (keys[active] >> shift) & fanout_mask
            e = self.entries[node * np.int64(self.fanout) + bits]
            is_ptr = (e & np.int64(3)) == 0
            done = ~is_ptr | (e == 0)
            fin = active[done]
            out[fin] = e[done]
            depths[fin] = d - self.prefix_depth
            node = (e[~done] >> np.int64(2)) - np.int64(1)
            active = active[~done]
            d += 1
        # Any still-active traversal fell off the tree: treat as false hit.
        depths[active] = d - self.prefix_depth
        return out, depths

    def probe_refs(
        self, point_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(point_row, polygon_id, is_true_hit) triples for a probe batch."""
        entries, _ = self.probe(point_ids)
        return decode_entries(entries, self.lookup_table)


def build_act(sc: SuperCovering, delta: int = 4) -> ActIndex:
    """Build an ACT with ``4**delta`` fanout from a super covering."""
    if delta not in (1, 2, 4):
        raise ValueError("delta must be 1, 2, or 4 (ACT1/ACT2/ACT4)")
    B = 2 * delta
    fanout = 4**delta
    values, table = encode_values(sc.ref_offsets, sc.ref_poly, sc.ref_interior)

    n = sc.n_cells
    if n == 0:
        return ActIndex(
            delta=delta,
            prefix_depth=0,
            prefix_value=0,
            entries=np.zeros(fanout, np.int64),
            lookup_table=table,
            n_nodes=1,
            extent=sc.extent,
            max_depth=0,
        )

    keys = cellid.path_bits(sc.ids)  # 60-bit MSB-aligned paths
    bits2 = 2 * sc.levels().astype(np.int64)  # significant bits per key
    if np.any(bits2 == 0):
        raise ValueError("cannot index the level-0 (root) cell in ACT")

    # Node depth d of each cell: the node consuming bits [d*B, (d+1)*B).
    d_cell = (bits2 + B - 1) // B - 1

    # Common root prefix (whole trie levels only): shared leading bits of
    # all keys, capped by the shallowest cell's node depth.
    lo, hi = keys.min(), keys.max()
    xor = np.int64(lo ^ hi)
    lcp = 60 - (int(xor).bit_length())
    prefix_depth = min(lcp // B, int(d_cell.min()))
    prefix_value = int(lo >> np.int64(60 - B * prefix_depth)) if prefix_depth else 0

    max_depth = int(d_cell.max())

    # Distinct nodes per depth: the cells' own nodes plus all ancestors.
    node_key_of_cell = keys >> (np.int64(60) - np.int64(B) * (d_cell + 1) + np.int64(B))
    # i.e. first d_cell*B bits
    nodes_at: dict[int, np.ndarray] = {}
    for d in range(max_depth, prefix_depth - 1, -1):
        own = node_key_of_cell[d_cell == d]
        from_below = (
            nodes_at[d + 1] >> np.int64(B) if (d + 1) in nodes_at else np.empty(0, np.int64)
        )
        nodes_at[d] = np.unique(np.concatenate([own, from_below]))
    if len(nodes_at[prefix_depth]) != 1:
        raise AssertionError("root depth must contain exactly one node")

    # Assign global node indices (root first, then depth by depth).
    node_base: dict[int, int] = {}
    total = 0
    for d in range(prefix_depth, max_depth + 1):
        node_base[d] = total
        total += len(nodes_at[d])
    entries = np.zeros(total * fanout, np.int64)

    # Child pointers.
    for d in range(prefix_depth + 1, max_depth + 1):
        child_keys = nodes_at[d]
        parent_keys = child_keys >> np.int64(B)
        pidx = node_base[d - 1] + np.searchsorted(nodes_at[d - 1], parent_keys)
        slot = child_keys & np.int64(fanout - 1)
        cidx = node_base[d] + np.arange(len(child_keys))
        entries[pidx * fanout + slot] = (cidx + 1) << np.int64(2)

    # Values: each cell fills 4**(gap) contiguous slots of its node, where
    # gap = (d+1)*B - 2*level is the key-extension shortfall (paper §3.1.2).
    r = bits2 - d_cell * B  # significant bits within the node, 2..B
    slot_hi = (keys >> (np.int64(60) - d_cell * np.int64(B) - r)) & (
        (np.int64(1) << r) - np.int64(1)
    )
    slot_start = slot_hi << (np.int64(B) - r)
    n_slots = np.int64(1) << (np.int64(B) - r)
    nidx = np.empty(n, np.int64)
    for d in range(prefix_depth, max_depth + 1):
        m = d_cell == d
        nidx[m] = node_base[d] + np.searchsorted(nodes_at[d], node_key_of_cell[m])
    base_pos = nidx * fanout + slot_start
    pos = _ranges(base_pos, n_slots)
    if np.any(entries[pos] != 0):
        raise AssertionError("slot collision: super covering not disjoint")
    entries[pos] = np.repeat(values, n_slots)

    return ActIndex(
        delta=delta,
        prefix_depth=prefix_depth,
        prefix_value=prefix_value,
        entries=entries,
        lookup_table=table,
        n_nodes=total,
        extent=sc.extent,
        max_depth=max_depth,
    )
