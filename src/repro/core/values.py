"""Tagged 64-bit value entries + shared lookup table (paper §3.1.2).

Every cell of the super covering maps to a *tagged entry*; the same
encoding is shared by ACT and the baseline structures (paper §4.1: "The
lookup table is the same among all data structures"). The low 2 bits tag:

    0  pointer (ACT internal): payload = child-node index + 1; the whole
       entry being 0 is the sentinel ("false hit" / no cell)
    1  one inlined polygon reference (31 bits)
    2  two inlined polygon references (2 x 31 bits)
    3  payload = offset into the shared int32 lookup table

A 31-bit polygon reference is ``polygon_id << 1 | interior_flag`` — the
least significant bit distinguishes a true hit from a candidate hit, so up
to 2**30 polygons can be indexed. A lookup-table entry is
``[n_true, true polygon ids ..., n_cand, cand polygon ids ...]``; identical
reference lists are stored once.
"""
from __future__ import annotations

import numpy as np

from repro.geometry.polygon import _ranges

TAG_POINTER = 0
TAG_ONE_REF = 1
TAG_TWO_REFS = 2
TAG_OFFSET = 3

_PAYLOAD_MASK = np.int64((1 << 62) - 1)
_REF_MASK = np.int64((1 << 31) - 1)
_MAX_POLYGONS = 1 << 30


def make_ref(poly_id: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """31-bit polygon reference: id << 1 | interior (true-hit) flag.

    Raises ``ValueError`` for an id outside ``[0, 2**30)``, which the 31
    bits cannot hold.
    """
    poly_id = np.asarray(poly_id, np.int64)
    if poly_id.size and (poly_id.min() < 0 or poly_id.max() >= _MAX_POLYGONS):
        raise ValueError(f"polygon ids must lie in [0, {_MAX_POLYGONS})")
    return (poly_id << np.int64(1)) | np.asarray(interior, np.int64)


def encode_values(
    ref_offsets: np.ndarray,
    ref_poly: np.ndarray,
    ref_interior: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell tagged entries + shared lookup table.

    Cells with one or two references inline them (tags 1/2); cells with
    three or more store an offset (tag 3) into the deduplicated lookup
    table. Returns ``(entries int64[n_cells], table int32[...])``.
    """
    n = len(ref_offsets) - 1
    counts = np.diff(ref_offsets)
    entries = np.zeros(n, np.int64)
    refs = make_ref(ref_poly, ref_interior)

    one = np.flatnonzero(counts == 1)
    if len(one):
        entries[one] = (refs[ref_offsets[one]] << np.int64(2)) | np.int64(
            TAG_ONE_REF
        )
    two = np.flatnonzero(counts == 2)
    if len(two):
        r1 = refs[ref_offsets[two]]
        r2 = refs[ref_offsets[two] + 1]
        payload = r1 | (r2 << np.int64(31))
        entries[two] = (payload << np.int64(2)) | np.int64(TAG_TWO_REFS)

    table: list[int] = []
    seen: dict[bytes, int] = {}
    many = np.flatnonzero(counts >= 3)
    for i in many:
        a, b = int(ref_offsets[i]), int(ref_offsets[i + 1])
        t_ids = np.sort(ref_poly[a:b][ref_interior[a:b]]).astype(np.int32)
        c_ids = np.sort(ref_poly[a:b][~ref_interior[a:b]]).astype(np.int32)
        key = t_ids.tobytes() + b"|" + c_ids.tobytes()
        off = seen.get(key)
        if off is None:
            off = len(table)
            seen[key] = off
            table.append(len(t_ids))
            table.extend(int(x) for x in t_ids)
            table.append(len(c_ids))
            table.extend(int(x) for x in c_ids)
        entries[i] = (np.int64(off) << np.int64(2)) | np.int64(TAG_OFFSET)
    return entries, np.asarray(table, np.int32)


def decode_entries(
    entries: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand probe results into flat (row_idx, polygon_id, is_true_hit).

    ``entries[i]`` is the tagged entry for probe row ``i`` (0 = no hit).
    """
    entries = np.asarray(entries, np.int64)
    tag = entries & np.int64(3)
    payload = (entries >> np.int64(2)) & _PAYLOAD_MASK

    rows: list[np.ndarray] = []
    polys: list[np.ndarray] = []
    trues: list[np.ndarray] = []

    one = np.flatnonzero(tag == TAG_ONE_REF)
    if len(one):
        ref = payload[one] & _REF_MASK
        rows.append(one)
        polys.append(ref >> np.int64(1))
        trues.append((ref & np.int64(1)).astype(bool))

    two = np.flatnonzero(tag == TAG_TWO_REFS)
    if len(two):
        r1 = payload[two] & _REF_MASK
        r2 = (payload[two] >> np.int64(31)) & _REF_MASK
        rows.append(np.repeat(two, 2))
        polys.append(np.stack([r1 >> 1, r2 >> 1], axis=1).ravel())
        trues.append(
            np.stack([(r1 & 1).astype(bool), (r2 & 1).astype(bool)], axis=1).ravel()
        )

    many = np.flatnonzero((tag == TAG_OFFSET) & (entries != 0))
    if len(many):
        offs = payload[many]
        nt = table[offs].astype(np.int64)
        nc = table[offs + 1 + nt].astype(np.int64)
        # True-hit section.
        rows.append(np.repeat(many, nt))
        polys.append(table[_ranges(offs + 1, nt)].astype(np.int64))
        trues.append(np.ones(int(nt.sum()), bool))
        # Candidate section.
        rows.append(np.repeat(many, nc))
        polys.append(table[_ranges(offs + 2 + nt, nc)].astype(np.int64))
        trues.append(np.zeros(int(nc.sum()), bool))

    if not rows:
        z = np.empty(0, np.int64)
        return z, z.copy(), np.empty(0, bool)
    return (
        np.concatenate(rows),
        np.concatenate(polys),
        np.concatenate(trues),
    )
