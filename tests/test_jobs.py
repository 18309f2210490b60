"""The spark-submit entrypoints must at least import and expose main()."""
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1] / "jobs"

#: spark-submit invocations: job name -> (script, table number or None).
JOBS = {f"table{n}": ("table.py", n) for n in range(1, 8)}
JOBS["spatial_join"] = ("spatial_join.py", None)


def load(script):
    path = ROOT / script
    spec = importlib.util.spec_from_file_location(f"job_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", sorted(JOBS))
def test_job_importable(name):
    script, table = JOBS[name]
    mod = load(script)
    assert callable(mod.main)
    if table is not None:
        args = mod.parser().parse_args([str(table), "--scale", "test"])
        assert (args.table, args.scale) == (table, "test")
        assert importlib.util.find_spec(f"repro.tables.table{table}") is not None


def test_all_tables_have_jobs():
    assert {p.name for p in ROOT.glob("*.py")} == {s for s, _ in JOBS.values()}
    assert {t for _, t in JOBS.values()} == set(range(1, 8)) | {None}
    with pytest.raises(SystemExit):
        load("table.py").parser().parse_args(["8"])
