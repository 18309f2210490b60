"""The job entrypoints must at least import and expose main(); the table
entrypoint runs several tables end to end in one process."""
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1] / "jobs"

#: Job invocations: job name -> (script, table argument or None).
JOBS = {f"table{n}": ("table.py", str(n)) for n in range(1, 8)}
JOBS["supplementary"] = ("table.py", "supplementary")
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
        args = mod.parser().parse_args([table, "--scale", "test"])
        assert (args.tables, args.scale) == ([table], "test")
        assert importlib.util.find_spec(f"repro.tables.{mod.TABLES[table]}") is not None


def test_all_tables_have_jobs():
    assert {p.name for p in ROOT.glob("*.py")} == {s for s, _ in JOBS.values()}
    tables = load("table.py").TABLES
    assert {t for _, t in JOBS.values()} == set(tables) | {None}
    # Every harness module in repro.tables is one of the job's tables.
    modules = {p.stem for p in (ROOT.parent / "src/repro/tables").glob("*.py")}
    assert modules - {"__init__", "datasets"} == set(tables.values())
    for bad in (["8"], ["1", "8"], ["figure10"], []):
        with pytest.raises(SystemExit):
            load("table.py").parser().parse_args(bad)


def test_table_job_runs():
    """``python jobs/table.py 1 7 --scale test`` prints Tables 1 and 7 from
    one process on the driver alone: a master no SparkSession can start
    with makes no difference."""
    env = dict(os.environ)
    src = str(ROOT.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYSPARK_SUBMIT_ARGS"] = "--master no-spark-session pyspark-shell"
    out = subprocess.run(
        [sys.executable, str(ROOT / "table.py"), "1", "7", "--scale", "test"],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr
    assert "Table 1 (scale=test)" in out.stdout
    assert "Table 7 (scale=test)" in out.stdout
