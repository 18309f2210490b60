"""Tests for the super covering merge and Listing-1 conflict resolution."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import synth_data as sd
from repro.core import cellid
from repro.core.covering import cover_polygons
from repro.core.supercovering import (
    SuperCovering,
    build_supercovering,
    merge_coverings,
)

EXT = 1024.0


def cell(x, y, level):
    return int(cellid.cell_from_xy(np.array([x]), np.array([y]), level)[0])


def refs_of(sc: SuperCovering, i: int) -> set:
    a, b = sc.ref_offsets[i], sc.ref_offsets[i + 1]
    return set(zip(sc.ref_poly[a:b].tolist(), sc.ref_interior[a:b].tolist()))


def cell_index(sc: SuperCovering, cid: int) -> int:
    i = int(np.searchsorted(sc.ids, cid))
    assert i < sc.n_cells and sc.ids[i] == cid
    return i


def difference(c1: int, descs) -> list:
    """Figure 4's ``d = c1 - c2``: the cells, other than the descendants,
    that merging ``c1`` with its descendants ``descs`` produces."""
    descs = [int(d) for d in descs]
    cells = np.array([c1, *descs], np.int64)
    sc = build_supercovering(
        cells, np.arange(len(cells), dtype=np.int32), np.zeros(len(cells), bool), EXT
    )
    return [int(c) for c in sc.ids if int(c) not in descs]


class TestQuadtreeSubtract:
    def test_figure4_difference(self):
        """Paper Figure 4: c1 at level L contains c2 at level L+... the
        difference d consists of 3 * level-gap cells; here gap=1 -> 3."""
        c1 = cell(0, 0, 2)
        c2 = cellid.children(np.array([c1]))[0][0]
        d = difference(c1, [c2])
        assert len(d) == 3
        # d plus c2 tiles c1 exactly (disjoint ranges, full span).
        allc = np.sort(np.array(d + [c2]))
        assert np.all(cellid.range_max(allc[:-1]) < cellid.range_min(allc[1:]))
        assert cellid.range_min(allc).min() == cellid.range_min(np.array([c1]))[0]
        assert cellid.range_max(allc).max() == cellid.range_max(np.array([c1]))[0]

    def test_two_level_gap(self):
        """Gap of 2 levels -> 6 difference cells (paper Figure 4)."""
        c1 = cell(0, 0, 2)
        c2 = cellid.children(cellid.children(np.array([c1]))[0][:1])[0][2]
        d = difference(c1, [c2])
        assert len(d) == 6

    def test_multiple_descendants(self):
        c1 = cell(1, 1, 3)
        kids = cellid.children(np.array([c1]))[0]
        d = difference(c1, np.sort(kids[:2]))
        assert len(d) == 2
        assert set(d) == set(kids[2:].tolist())

    def test_covered_exactly(self):
        c1 = cell(0, 0, 4)
        kids = np.sort(cellid.children(np.array([c1]))[0])
        assert difference(c1, kids) == []


#: Random nested cell sets: (x, y) on a level-6 grid, coarsened to a level
#: in [0, 6] so that cells often contain one another.
_rows = st.lists(
    st.tuples(
        st.integers(0, 63), st.integers(0, 63), st.integers(0, 6),
        st.integers(0, 4), st.booleans(),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(_rows)
def test_merge_matches_listing1_oracle(rows):
    """The merge against a brute-force Listing 1: every point gets the
    refs of all input cells containing it (interior wins), the output is
    sorted and disjoint, and input cells without input descendants
    survive unchanged."""
    xs, ys, lv, polys, flags = (np.array(c) for c in zip(*rows))
    cells = cellid.parent(cellid.cell_from_xy(xs, ys, 6), lv)
    sc = build_supercovering(cells, polys.astype(np.int32), flags.astype(bool), EXT)

    assert np.all(np.diff(sc.ids) > 0)
    assert sc.validate_disjoint()

    # Probe both ends of every input and output cell.
    probes = np.concatenate(
        [cellid.range_min(c) for c in (cells, sc.ids)]
        + [cellid.range_max(c) for c in (cells, sc.ids)]
    )
    found = cellid.locate(sc.ids, probes, np.searchsorted(sc.ids, probes))
    for leaf, i in zip(probes.tolist(), found.tolist()):
        expect: dict = {}
        for c, p, f in zip(cells.tolist(), polys.tolist(), flags.tolist()):
            if cellid.contains(np.array([c]), leaf)[0]:
                expect[p] = expect.get(p, False) or f
        got = refs_of(sc, i) if i >= 0 else set()
        assert got == set(expect.items())

    contains = cellid.contains(cells[:, None], cells[None, :]) & (cells[:, None] != cells[None, :])
    leaves = cells[~contains.any(axis=1)]
    assert np.isin(leaves, sc.ids).all()


class TestBuildSupercovering:
    def test_empty(self):
        sc = build_supercovering(
            np.empty(0, np.int64), np.empty(0, np.int32), np.empty(0, bool), EXT
        )
        assert sc.n_cells == 0
        assert sc.validate_disjoint()

    def test_single_cell(self):
        sc = build_supercovering(
            np.array([cell(2, 3, 4)]), np.array([7], np.int32), np.array([True]), EXT
        )
        assert sc.n_cells == 1
        assert refs_of(sc, 0) == {(7, True)}

    def test_duplicate_cells_merge_refs(self):
        c = cell(1, 1, 3)
        sc = build_supercovering(
            np.array([c, c]), np.array([1, 2], np.int32), np.array([False, False]), EXT
        )
        assert sc.n_cells == 1
        assert refs_of(sc, 0) == {(1, False), (2, False)}

    def test_interior_wins_dedup(self):
        """A (poly, candidate) ref and a (poly, interior) ref on the same
        cell collapse to the interior (true-hit) ref."""
        c = cell(1, 1, 3)
        sc = build_supercovering(
            np.array([c, c]), np.array([4, 4], np.int32), np.array([False, True]), EXT
        )
        assert refs_of(sc, 0) == {(4, True)}

    def test_conflict_resolution_preserves_precision(self):
        """Paper §3.1.1: ancestor c1 (poly A) + descendant c2 (poly B) ->
        c2 keeps its identity with refs {A, B}; the difference d carries A.
        Total region of A preserved, no overlap."""
        c1 = cell(0, 0, 2)
        c2 = int(cellid.children(np.array([c1]))[0][1])
        sc = build_supercovering(
            np.array([c1, c2]),
            np.array([0, 1], np.int32),
            np.array([True, False]),
            EXT,
        )
        assert sc.validate_disjoint()
        assert sc.n_cells == 4  # c2 + 3 difference cells
        i2 = cell_index(sc, c2)
        assert refs_of(sc, i2) == {(0, True), (1, False)}
        for i in range(sc.n_cells):
            if i != i2:
                assert refs_of(sc, i) == {(0, True)}
        # The union of all cells equals c1's range.
        assert cellid.range_min(sc.ids).min() == cellid.range_min(np.array([c1]))[0]
        assert cellid.range_max(sc.ids).max() == cellid.range_max(np.array([c1]))[0]

    def test_three_level_nesting_chain(self):
        """c ⊃ c2 ⊃ c3 with distinct polygons: refs accumulate down the
        chain (c3 sees all three)."""
        c = cell(0, 0, 1)
        c2 = int(cellid.children(np.array([c]))[0][0])
        c3 = int(cellid.children(np.array([c2]))[0][3])
        sc = build_supercovering(
            np.array([c, c2, c3]),
            np.array([0, 1, 2], np.int32),
            np.array([False, False, False]),
            EXT,
        )
        assert sc.validate_disjoint()
        assert refs_of(sc, cell_index(sc, c3)) == {(0, False), (1, False), (2, False)}
        # A fragment of c2 (not c3) carries {0, 1}.
        sibs = cellid.children(np.array([c2]))[0]
        i = cell_index(sc, int(sibs[0]))
        assert refs_of(sc, i) == {(0, False), (1, False)}

    def test_sibling_descendants_no_false_merge(self):
        """Two disjoint descendants under the same ancestor."""
        c1 = cell(0, 0, 2)
        kids = cellid.children(np.array([c1]))[0]
        sc = build_supercovering(
            np.array([c1, int(kids[0]), int(kids[2])]),
            np.array([0, 1, 2], np.int32),
            np.array([False, True, True]),
            EXT,
        )
        assert sc.validate_disjoint()
        assert sc.n_cells == 4
        assert refs_of(sc, cell_index(sc, int(kids[0]))) == {(0, False), (1, True)}
        assert refs_of(sc, cell_index(sc, int(kids[1]))) == {(0, False)}

    def test_coarsest_vs_nearest_ancestor(self):
        """Regression for the nearest-ancestor bug: a mid-level cell between
        a coarse ancestor and a fine descendant must not be overlapped."""
        c = cell(0, 0, 2)
        c2 = int(cellid.children(np.array([c]))[0][1])
        c3 = int(cellid.children(cellid.children(np.array([c2]))[0][:1])[0][0])
        sc = build_supercovering(
            np.array([c, c2, c3]),
            np.array([0, 1, 2], np.int32),
            np.array([False] * 3),
            EXT,
        )
        assert sc.validate_disjoint()
        assert refs_of(sc, cell_index(sc, c3)) == {(0, False), (1, False), (2, False)}


class TestMergeCoverings:
    @pytest.fixture(scope="class")
    def merged(self):
        ps = sd.polygon_dataset("neighborhoods", scale="test")
        pids = np.arange(len(ps))
        cells, flags, offs = cover_polygons(ps, pids, sd.EXTENT, 9, np.inf, True)
        rows = (cells, np.repeat(pids, np.diff(offs)), flags)
        return ps, merge_coverings(rows, sd.EXTENT)

    def test_empty(self):
        empty = np.empty(0, np.int64)
        assert merge_coverings((empty, empty, empty), EXT).n_cells == 0

    def test_disjoint(self, merged):
        _ps, sc = merged
        assert sc.validate_disjoint()

    def test_sorted(self, merged):
        _ps, sc = merged
        assert np.all(np.diff(sc.ids) > 0)

    def test_every_cell_has_refs(self, merged):
        _ps, sc = merged
        assert np.all(sc.ref_counts() >= 1)

    def test_shared_boundary_cells_reference_both_neighbors(self, merged):
        """Cells on the polyline shared by two polygons carry two refs."""
        _ps, sc = merged
        assert (sc.ref_counts() >= 2).sum() > 0

    def test_candidate_mask(self, merged):
        _ps, sc = merged
        m = sc.candidate_mask()
        assert m.dtype == bool and 0 < m.sum() < sc.n_cells

    def test_raw_bytes_positive(self, merged):
        _ps, sc = merged
        assert sc.raw_bytes() > sc.n_cells * 8

    def test_budgeted_merge_handles_conflicts(self):
        """The accurate-mode pipeline (overlapping covering + interior
        covering) merges into a disjoint set with interior-wins refs."""
        ps = sd.polygon_dataset("census", scale="test")
        n = len(ps)
        # Job k is polygon k's covering, job n + k its interior covering.
        cells, _, offs = cover_polygons(
            ps,
            np.tile(np.arange(n), 2),
            sd.EXTENT,
            np.repeat([14, 13], n),
            np.repeat([128, 512], n),
            np.repeat([True, False], n),
        )
        job = np.repeat(np.arange(2 * n), np.diff(offs))
        sc = merge_coverings((cells, job % n, job >= n), sd.EXTENT)
        assert sc.validate_disjoint()
        # No (poly, cand) duplicate where (poly, true) exists on a cell.
        for i in range(0, sc.n_cells, max(1, sc.n_cells // 200)):
            refs = refs_of(sc, i)
            polys = [p for p, _f in refs]
            assert len(polys) == len(set(polys))
