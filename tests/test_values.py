"""Tests for the tagged-entry encoding and the shared lookup table."""
import numpy as np
import pytest

from repro.core.values import (
    TAG_OFFSET,
    TAG_ONE_REF,
    TAG_TWO_REFS,
    decode_entries,
    encode_values,
    make_ref,
)


def encode(ref_lists):
    """Helper: list of [(poly, interior), ...] per cell -> entries/table."""
    offsets = np.cumsum([0] + [len(r) for r in ref_lists]).astype(np.int64)
    polys = np.asarray([p for r in ref_lists for p, _ in r], np.int32)
    ints = np.asarray([f for r in ref_lists for _, f in r], bool)
    return encode_values(offsets, polys, ints)


def decode_cell(entries, table, i):
    rows, polys, trues = decode_entries(entries[i : i + 1], table)
    assert np.all(rows == 0)
    return set(zip(polys.tolist(), trues.tolist()))


class TestMakeRef:
    def test_layout(self):
        # 31-bit ref: poly_id << 1 | interior (paper §3.1.2).
        assert make_ref(np.array([5]), np.array([1]))[0] == 11
        assert make_ref(np.array([5]), np.array([0]))[0] == 10

    def test_max_poly_id(self):
        r = make_ref(np.array([2**30 - 1]), np.array([1]))[0]
        assert r == (2**31 - 1)


class TestEncode:
    def test_one_ref_inlined(self):
        entries, table = encode([[(3, True)]])
        assert entries[0] & 3 == TAG_ONE_REF
        assert len(table) == 0
        assert decode_cell(entries, table, 0) == {(3, True)}

    def test_two_refs_inlined(self):
        entries, table = encode([[(3, True), (9, False)]])
        assert entries[0] & 3 == TAG_TWO_REFS
        assert len(table) == 0
        assert decode_cell(entries, table, 0) == {(3, True), (9, False)}

    def test_three_refs_use_table(self):
        entries, table = encode([[(1, True), (2, False), (3, False)]])
        assert entries[0] & 3 == TAG_OFFSET
        # Layout: [n_true, trues..., n_cand, cands...].
        assert table[0] == 1 and table[1] == 1
        assert table[2] == 2 and set(table[3:5].tolist()) == {2, 3}
        assert decode_cell(entries, table, 0) == {(1, True), (2, False), (3, False)}

    def test_table_deduplicates_identical_ref_lists(self):
        refs = [(1, True), (2, False), (3, False)]
        entries, table = encode([refs, refs, refs])
        assert len(table) == 5  # stored once
        assert len(np.unique(entries)) == 1

    def test_distinct_ref_lists_distinct_offsets(self):
        entries, table = encode(
            [[(1, True), (2, False), (3, False)], [(1, True), (2, False), (4, False)]]
        )
        assert entries[0] != entries[1]
        assert len(table) == 10

    def test_large_poly_ids_two_refs(self):
        """Two inlined 31-bit refs fill all 64 bits (incl. the sign bit)."""
        big = 2**30 - 1
        entries, table = encode([[(big, True), (big - 1, False)]])
        assert decode_cell(entries, table, 0) == {(big, True), (big - 1, False)}

    @pytest.mark.parametrize("n_refs", [1, 2, 3])
    def test_poly_id_limit(self, n_refs):
        """Ids up to 2**30 - 1 round-trip; 2**30 and negatives are rejected
        instead of corrupting the 31-bit reference."""
        top = 2**30 - 1
        refs = [(top - i, i % 2 == 0) for i in range(n_refs)]
        entries, table = encode([refs])
        assert decode_cell(entries, table, 0) == set(refs)
        for bad in (2**30, -1):
            with pytest.raises(ValueError):
                encode([[(bad, False)] + refs[1:]])

    def test_zero_poly_id(self):
        entries, table = encode([[(0, False)]])
        assert entries[0] != 0  # tag bits keep it distinct from the sentinel
        assert decode_cell(entries, table, 0) == {(0, False)}


class TestDecode:
    def test_sentinel_decodes_to_nothing(self):
        rows, polys, trues = decode_entries(np.zeros(5, np.int64), np.empty(0, np.int32))
        assert len(rows) == 0 and len(polys) == 0 and len(trues) == 0

    def test_mixed_batch(self):
        entries, table = encode(
            [
                [(1, True)],
                [(2, False), (3, True)],
                [(4, True), (5, True), (6, False), (7, False)],
            ]
        )
        batch = np.concatenate([entries, np.zeros(1, np.int64)])  # + one miss
        rows, polys, trues = decode_entries(batch, table)
        got = {}
        for r, p, t in zip(rows.tolist(), polys.tolist(), trues.tolist()):
            got.setdefault(r, set()).add((p, t))
        assert got == {
            0: {(1, True)},
            1: {(2, False), (3, True)},
            2: {(4, True), (5, True), (6, False), (7, False)},
        }

    def test_row_indices_align_with_input(self):
        entries, table = encode([[(9, False)]])
        batch = np.concatenate([np.zeros(3, np.int64), entries, np.zeros(2, np.int64)])
        rows, polys, _ = decode_entries(batch, table)
        assert rows.tolist() == [3] and polys.tolist() == [9]

    def test_many_refs(self):
        refs = [(i, i % 2 == 0) for i in range(20)]
        entries, table = encode([refs])
        assert decode_cell(entries, table, 0) == set(refs)

    def test_empty_batch(self):
        rows, polys, trues = decode_entries(np.empty(0, np.int64), np.empty(0, np.int32))
        assert len(rows) == 0
