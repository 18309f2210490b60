"""Every ``repro`` module imports, including those no other test imports."""
import importlib
import pkgutil

import repro


def test_every_module_imports():
    names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
    assert "repro.core.join" in names and "repro.baselines.shapeindex" in names
    for name in names:
        importlib.import_module(name)
