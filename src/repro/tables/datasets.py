"""Shared dataset / covering / index registry for the table harnesses.

Super coverings and indexes are expensive at bench scale, so they are
cached per process (one ``jobs/table.py`` run builds each once for every
table it regenerates). All knobs that the evaluation sweeps — polygon
dataset, precision bound, join mode, training size, structure — are cache
keys.
"""
from __future__ import annotations

import time


from repro import synth_data as sd
from repro.core import cellid
from repro.core.join import build_index, compute_coverings
from repro.core.supercovering import SuperCovering, merge_coverings
from repro.core.training import train_index

#: Probe structures of Tables 2, 3 and 5: the paper's name -> the
#: ``build_index`` structure name.
STRUCTURES = {"ACT1": "act1", "ACT2": "act2", "ACT4": "act4", "GBT": "btree", "LB": "lb"}

#: The paper's precision sweep in meters (Tables 1, Figure 7-middle).
PRECISIONS_M = (60.0, 15.0, 4.0)

#: Precision bound of the approximate indexes of Tables 2-5, in meters.
INDEX_PRECISION_M = 4.0

#: Point workload sizes per scale.
POINTS = {"test": 20_000, "bench": 2_000_000}

#: Training set sizes per scale — the paper's 100 K / 500 K / 1 M scaled
#: with the dataset (DESIGN.md §3).
TRAIN_SIZES = {"test": (2_000, 10_000, 20_000), "bench": (10_000, 50_000, 100_000)}

_cache: dict = {}


def polygons(name: str, scale: str):
    return sd.polygon_dataset(name, scale=scale)


def points(kind: str, scale: str, n: int | None = None, seed: int = 7):
    n = n or POINTS[scale]
    return sd.points_np(kind, n, extent=sd.EXTENT, seed=seed)


def point_cells(kind: str, scale: str, n: int | None = None, seed: int = 7):
    key = ("ptcells", kind, scale, n, seed)
    if key not in _cache:
        px, py = points(kind, scale, n, seed)
        _cache[key] = (px, py, cellid.cell_from_point(px, py, sd.EXTENT))
    return _cache[key]


def supercovering(
    name: str, scale: str, mode: str, precision_m: float | None, n_train: int = 0
) -> tuple[SuperCovering, dict]:
    """Cached super covering + its build timing breakdown.

    ``n_train > 0`` trains the untrained covering (whose timings it keeps)
    with that many taxi points, seed-separated from the query workload
    like the paper's 2009-vs-2010-2016 split.
    """
    key = ("sc", name, scale, mode, precision_m, n_train)
    if key not in _cache:
        pset = polygons(name, scale)
        if n_train > 0:
            sc, times = supercovering(name, scale, mode, precision_m)
            tx, ty = sd.taxi_points(n_train, extent=sd.EXTENT, seed=1)
            sc, _stats = train_index(sc, pset, tx, ty)
        else:
            t0 = time.perf_counter()
            rows = compute_coverings(pset, sd.EXTENT, mode, precision_m)
            t_cov = time.perf_counter() - t0
            t0 = time.perf_counter()
            sc = merge_coverings(rows, sd.EXTENT)
            times = {"coverings": t_cov, "supercovering": time.perf_counter() - t0}
        _cache[key] = (sc, times)
    return _cache[key]


def index(
    name: str,
    scale: str,
    structure: str,
    mode: str,
    precision_m: float | None,
    n_train: int = 0,
):
    """Cached PolygonIndexBundle over the cached super covering."""
    key = ("idx", name, scale, structure, mode, precision_m, n_train)
    if key not in _cache:
        sc, times = supercovering(name, scale, mode, precision_m, n_train)
        bundle = build_index(
            polygons(name, scale),
            sd.EXTENT,
            mode=mode,
            precision_m=precision_m,
            structure=structure,
            supercov=sc,
        )
        bundle.build_seconds.update(times)
        _cache[key] = bundle
    return _cache[key]


def clear_cache() -> None:
    _cache.clear()
