"""Every ``repro`` module imports, including those no other test imports."""
import importlib
import pkgutil
import subprocess
import sys

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
    ``pyarrow.compute`` would be most of that import's time. Nor does the
    counting kernel's per-chunk work import them: reading ``x, y`` and
    building the count and counter batches."""
    code = """
import sys
import numpy as np, pyarrow as pa
from repro.core import join

def imported():
    return {m for m in ("pandas", "pyarrow.compute") if m in sys.modules}

assert not imported(), imported()
x = pa.Array.from_buffers(pa.float64(), 4, [None, pa.py_buffer(np.arange(4.0))])
assert join._float64(x.slice(1, 2)).tolist() == [1.0, 2.0]
out = join._emit_counts(4, None, None, np.array([3, 1, 3]), None, None)
counts = pa.RecordBatch.from_pydict(out, schema=join._COUNTS)
stats = dict.fromkeys(join._STATS, 0)
out = join._emit_counters(None, [], None, None, stats)
counters = pa.RecordBatch.from_pydict(out, schema=join._COUNTERS)
assert not imported(), imported()
assert counts.column(0).to_pylist() == [1, 3] and counts.column(1).to_pylist() == [1, 2]
assert counters.column("result_pairs").to_pylist() == [0]
"""
    subprocess.run([sys.executable, "-c", code], check=True)
