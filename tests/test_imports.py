"""Every ``repro`` module imports, including those no other test imports."""
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro


def test_every_module_imports():
    names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
    assert "repro.core.join" in names and "repro.baselines.shapeindex" in names
    for name in names:
        importlib.import_module(name)


def test_baselines_do_not_import_the_spark_join():
    """The baseline structures run on the driver without Spark."""
    code = (
        "import sys, repro.baselines.rtree, repro.baselines.shapeindex; "
        "assert 'repro.core.join' not in sys.modules and 'pyspark' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_join_imports_no_pandas():
    """Every fresh executor worker imports the join module, and pandas and
    ``pyarrow.compute`` would be most of that import's time. Nor does a
    kernel's per-chunk work import them: regrouping batches into chunks,
    packing and unpacking them, reading ``x, y`` (nulls as NaN) and
    ``pid``, and building the pairs and count batches."""
    code = """
import sys
import numpy as np, pyarrow as pa
from repro.core import join

def imported():
    return {m for m in ("pandas", "pyarrow.compute") if m in sys.modules}

def f64(values):
    return pa.Array.from_buffers(pa.float64(), len(values), [None, pa.py_buffer(np.asarray(values, float))])

assert not imported(), imported()
x = f64(np.arange(4.0))
assert join._float64(x.slice(1, 2)).tolist() == [1.0, 2.0]
valid = pa.py_buffer(np.packbits([1, 0, 1, 1], bitorder="little"))
nulls = pa.Array.from_buffers(pa.float64(), 4, [valid, x.buffers()[1]], null_count=1)
assert str(join._float64(nulls.slice(1, 3)).tolist()) == "[nan, 2.0, 3.0]"
batches = [
    pa.RecordBatch.from_arrays([join._int64([i, i + 1]), f64([i, i]), f64([0.5, 1.5])], ["pid", "x", "y"])
    for i in (0, 2, 4)
]
chunks = list(join._chunks(iter(batches), 4))
packed = [join._pack(c) for c in chunks]
got = list(join._unpacked(iter([pa.Table.from_batches(packed).combine_chunks().to_batches()[0]])))
assert [c.num_rows for c in got] == [4, 2] and all(g.equals(c) for g, c in zip(got, chunks))
out = join._emit_pairs(got[0], np.array([3, 0, 3]), np.array([7, 8, 9]), np.array([True, False, True]), None)
pairs = pa.RecordBatch.from_pydict(out, schema=join._PAIRS)
stats = dict(zip(join._STATS, range(10, 16)))
out = join._emit_counts(None, None, np.array([3, 1, 3]), None, stats)
counts = pa.RecordBatch.from_pydict(out, schema=join._COUNTS)
assert not imported(), imported()
assert pairs.column("pid").to_pylist() == [3, 0, 3] and pairs.column("poly_id").to_pylist() == [7, 8, 9]
assert pairs.column("true_hit").to_pylist() == [True, False, True]
assert counts.column(0).to_pylist() == [1, 3, -1, -2, -3, -4, -5, -6]
assert counts.column(1).to_pylist() == [1, 2, 10, 11, 12, 13, 14, 15]
"""
    subprocess.run([sys.executable, "-c", code], check=True)


def test_perfbench_imports_resolve():
    """Every name the benchmark harness imports from ``repro`` exists, so
    deleting or renaming one fails here rather than in a benchmark run."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "perfbench"), str(root / "src")]
    code = f"import sys; sys.path[:0] = {paths!r}; import run, bench, layers, check, suite, tracing"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=root)
