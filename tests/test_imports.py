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
