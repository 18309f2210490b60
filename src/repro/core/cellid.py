"""Quadtree cell ids over a planar square region (Google-S2 substitute).

The paper's approach only requires a quadtree-based hierarchical grid whose
cell enumeration gives children a common bit prefix with their parent
(paper §3.4: "any (consistent) enumeration scheme ... is valid"; the Z curve
is explicitly listed). We therefore use a planar Z-order (Morton) quadtree
over the square ``[0, extent) x [0, extent)`` with ``MAX_LEVEL = 30`` levels
and S2-style 64-bit cell ids:

    id = (path << (2*(30-level) + 1)) | (1 << (2*(30-level)))

``path`` is the 2*level-bit Morton interleave of the cell's (x, y) grid
coordinates at ``level`` (x in the higher bit of each pair). The trailing
sentinel "1" bit encodes the level, exactly like S2, so:

* ``lsb = id & -id`` recovers the level,
* a cell contains another iff the other id lies in ``[range_min, range_max]``,
* sorting by id sorts along the space-filling curve,
* children ids share the parent's path prefix (the property ACT needs).

All functions are vectorized over numpy int64 arrays (61 bits used, so the
sign bit is never touched).
"""
from __future__ import annotations

import numpy as np

MAX_LEVEL = 30

_I64 = np.int64


def _as_i64(x) -> np.ndarray:
    return np.asarray(x, dtype=_I64)


def _part1by1(x: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of ``x`` into the even bit positions."""
    x = _as_i64(x) & _I64(0xFFFFFFFF)
    x = (x | (x << 16)) & _I64(0x0000FFFF0000FFFF)
    x = (x | (x << 8)) & _I64(0x00FF00FF00FF00FF)
    x = (x | (x << 4)) & _I64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << 2)) & _I64(0x3333333333333333)
    x = (x | (x << 1)) & _I64(0x5555555555555555)
    return x


def _compact1by1(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_part1by1`: gather the even bit positions."""
    x = _as_i64(x) & _I64(0x5555555555555555)
    x = (x | (x >> 1)) & _I64(0x3333333333333333)
    x = (x | (x >> 2)) & _I64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x >> 4)) & _I64(0x00FF00FF00FF00FF)
    x = (x | (x >> 8)) & _I64(0x0000FFFF0000FFFF)
    x = (x | (x >> 16)) & _I64(0x00000000FFFFFFFF)
    return x


def interleave(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Morton-interleave two <=30-bit coordinates (x in the higher bit)."""
    return (_part1by1(x) << 1) | _part1by1(y)


def deinterleave(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`interleave`: return (x, y)."""
    pos = _as_i64(pos)
    return _compact1by1(pos >> 1), _compact1by1(pos)


def cell_from_xy(x: np.ndarray, y: np.ndarray, level: int) -> np.ndarray:
    """Cell id of the grid cell (x, y) at ``level`` (0 <= x,y < 2**level)."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level {level} out of [0, {MAX_LEVEL}]")
    shift = 2 * (MAX_LEVEL - level)
    path = interleave(x, y)
    return (path << _I64(shift + 1)) | (_I64(1) << _I64(shift))


def cell_from_point(px: np.ndarray, py: np.ndarray, extent: float) -> np.ndarray:
    """Leaf (level-30) cell id containing the point (px, py) in meters."""
    n = _I64(1) << _I64(MAX_LEVEL)
    scale = float(n) / float(extent)
    x = np.clip((np.asarray(px, np.float64) * scale).astype(_I64), 0, int(n) - 1)
    y = np.clip((np.asarray(py, np.float64) * scale).astype(_I64), 0, int(n) - 1)
    return cell_from_xy(x, y, MAX_LEVEL)


def lsb_of(ids: np.ndarray) -> np.ndarray:
    """Lowest set bit of each id (encodes the level)."""
    ids = _as_i64(ids)
    return ids & -ids


def level_of(ids: np.ndarray) -> np.ndarray:
    """Quadtree level of each cell id."""
    lsb = lsb_of(ids).astype(np.float64)
    # lsb is an exact power of two <= 2**60; log2 is exact in float64.
    k = np.rint(np.log2(lsb)).astype(_I64)
    return (_I64(2 * MAX_LEVEL) - k) >> _I64(1)


def range_min(ids: np.ndarray) -> np.ndarray:
    """Smallest leaf-cell id contained in each cell."""
    ids = _as_i64(ids)
    return ids - lsb_of(ids) + _I64(1)


def range_max(ids: np.ndarray) -> np.ndarray:
    """Largest leaf-cell id contained in each cell."""
    ids = _as_i64(ids)
    return ids + lsb_of(ids) - _I64(1)


def contains(ancestor: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Whether each ``ancestor`` cell contains the ``other`` cell (or leaf id)."""
    return (range_min(ancestor) <= _as_i64(other)) & (
        _as_i64(other) <= range_max(ancestor)
    )


def locate(ids: np.ndarray, point_ids: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Index into ``ids`` of the cell containing each leaf id (-1 = none).

    ``ids`` must be sorted and disjoint (a super covering or a grid), and
    ``pos`` is each leaf id's insertion position in ``ids`` — from
    ``np.searchsorted`` or a tree descent. A containing cell then sits
    right before or at that position (the S2 ``CellUnion`` lookup).
    """
    n = len(ids)
    out = np.full(len(point_ids), -1, _I64)
    if n == 0:
        return out
    left = np.maximum(pos - 1, 0)
    right = np.minimum(pos, n - 1)
    lok = (pos > 0) & (range_max(ids[left]) >= point_ids)
    rok = (pos < n) & (range_min(ids[right]) <= point_ids)
    out[lok] = left[lok]
    out[rok] = right[rok]
    return out


def parent(ids: np.ndarray, level) -> np.ndarray:
    """Ancestor of each cell at coarser ``level`` (scalar or per-cell array)."""
    ids = _as_i64(ids)
    shift = _I64(2) * (_I64(MAX_LEVEL) - _as_i64(level))
    new_lsb = _I64(1) << shift
    return (ids & ~((new_lsb << _I64(1)) - _I64(1))) | new_lsb


def children(ids: np.ndarray) -> np.ndarray:
    """The 4 direct children of each cell; shape (..., 4), curve order."""
    ids = _as_i64(ids)
    lsb = lsb_of(ids)
    clsb = lsb >> _I64(2)
    base = (ids - lsb + clsb)[..., None]
    k = np.arange(4, dtype=_I64)
    return base + _I64(2) * k * clsb[..., None]


def path_bits(ids: np.ndarray) -> np.ndarray:
    """60-bit MSB-aligned quadtree path (bits [60-2*level, 60) significant)."""
    ids = _as_i64(ids)
    return (ids - lsb_of(ids)) >> _I64(1)


def cell_bounds(
    ids: np.ndarray, extent: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x0, y0, x1, y1) bounds in meters of each cell."""
    ids = _as_i64(ids)
    lv = level_of(ids)
    pos = path_bits(ids) >> (_I64(2) * (_I64(MAX_LEVEL) - lv))
    x, y = deinterleave(pos)
    side = extent / np.power(2.0, lv.astype(np.float64))
    x0 = x.astype(np.float64) * side
    y0 = y.astype(np.float64) * side
    return x0, y0, x0 + side, y0 + side


def cell_side(level, extent: float):
    """Side length in meters of a cell at ``level``."""
    return extent / np.power(2.0, np.asarray(level, dtype=np.float64))


def min_level_for_precision(bound_m: float, extent: float) -> int:
    """Smallest level whose cell diagonal is <= ``bound_m`` (paper §3.2).

    The approximate join's false positives lie within sqrt(2) * side of the
    polygon, so the largest boundary cell's diagonal must not exceed the
    user's precision bound.
    """
    if bound_m <= 0:
        raise ValueError("precision bound must be positive")
    for level in range(MAX_LEVEL + 1):
        if np.sqrt(2.0) * cell_side(level, extent) <= bound_m:
            return level
    return MAX_LEVEL


def cells_in_rect(
    x0: float, y0: float, x1: float, y1: float, level: int, extent: float
) -> np.ndarray:
    """All cell ids at ``level`` whose area intersects the (closed) rectangle."""
    n = 1 << level
    side = extent / n
    ix0 = max(0, min(n - 1, int(np.floor(x0 / side))))
    iy0 = max(0, min(n - 1, int(np.floor(y0 / side))))
    ix1 = max(0, min(n - 1, int(np.floor(x1 / side))))
    iy1 = max(0, min(n - 1, int(np.floor(y1 / side))))
    xs = np.arange(ix0, ix1 + 1, dtype=_I64)
    ys = np.arange(iy0, iy1 + 1, dtype=_I64)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return cell_from_xy(gx.ravel(), gy.ravel(), level)
