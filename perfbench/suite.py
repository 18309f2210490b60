"""Run every workload of the benchmark, untraced and traced, and print all metrics.

    python3 perfbench/suite.py [--seed 1] [--seconds 10]
    python3 perfbench/suite.py --smoke

Each run is ``perfbench/run.py`` in its own process. The suite runs every
workload ``run.py`` defines, including ``exact-boroughs-taxi``, which
BENCHMARK.json leaves out to keep its runs within their time budget.
It checks that every run reports every metric BENCHMARK.json names, with
its unit, and that every result passed the oracle check. ``--smoke`` runs
the workloads at test scale for one second each, and first feeds
deliberately corrupted join results to the oracle check to show that it
catches them.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def run_one(workload: str, seed: int, seconds: float, trace: int, scale: str) -> tuple[dict, list[str]]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1]), lines[:-1]


def validate(result: dict, declared: dict[str, str]) -> list[str]:
    """Problems with one run's result line, against what BENCHMARK.json declares."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    got = result.get("metrics", {})
    if set(got) != set(declared):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))}")
    for name, unit in declared.items():
        m = got.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: {m} (want a number in {unit})")
    return problems


def corrupted_results_are_caught() -> list[str]:
    """Feed wrong join results to the oracle check; return what it missed."""
    sys.path.insert(0, str(ROOT / "src"))
    from check import check_pairs, count_mismatch, sample_pids, truth_pairs
    from repro import synth_data as sd
    from repro.core.join import build_index, probe_batch

    pset = sd.polygon_dataset("neighborhoods", scale="test")
    px, py = sd.taxi_points(20_000, seed=3)
    pids = sample_pids(len(px), 500, seed=4)
    truth = truth_pairs(px, py, pids, pset)

    def pairs(bundle, exact):
        rows, polys, _t, _s = probe_batch(bundle, px[pids], py[pids], exact)
        return {(int(pids[r]), int(p)) for r, p in zip(rows, polys)}

    exact = pairs(build_index(pset, sd.EXTENT, mode="accurate", precision_m=None), True)
    approx = pairs(build_index(pset, sd.EXTENT, mode="approx", precision_m=4.0), False)
    # A coarser index than the check's bound: its false pairs lie too far out.
    coarse = pairs(build_index(pset, sd.EXTENT, mode="approx", precision_m=120.0), False)
    pid, poly = min(truth)
    wrong_poly = (poly + len(pset) // 2) % len(pset)

    cases = {
        "exact join, unchanged (must pass)": (exact, None, True),
        "approximate join, unchanged (must pass)": (approx, 4.0, True),
        "exact join, one true pair dropped": (exact - {(pid, poly)}, None, False),
        "exact join, one pair moved to another polygon": (exact - {(pid, poly)} | {(pid, wrong_poly)}, None, False),
        "approximate join, one far false pair added": (approx | {(pid, wrong_poly)}, 4.0, False),
        "120 m index checked against a 4 m bound": (coarse, 4.0, False),
    }
    missed = []
    for label, (got, bound, should_pass) in cases.items():
        ok = check_pairs(got, truth, px, py, pset, bound).ok
        print(f"  oracle check: {label}: {'pass' if ok else 'caught'}")
        if ok != should_pass:
            missed.append(label)
    counts = {0: 10, 1: 5}
    if count_mismatch({0: 10, 1: 4}, counts) is None or count_mismatch(dict(counts), counts) is not None:
        missed.append("per-polygon count mismatch")
    return missed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--smoke", action="store_true", help="test scale, one second a run, corruption checks")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or (1 if args.smoke else spec["run_seconds"])
    scale = "test" if args.smoke else "bench"

    failures = []
    if args.smoke:
        failures += [f"oracle check missed: {m}" for m in corrupted_results_are_caught()]
    table: dict[str, dict[str, dict]] = {}
    for wl in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            result, summary = run_one(wl, args.seed, seconds, trace, scale)
            print("\n".join(summary))
            failures += [f"{wl} trace={trace}: {p}" for p in validate(result, declared)]
            table.setdefault(wl, {}).update(result["metrics"])

    names = [m["name"] for m in spec["end_to_end"]]
    gated = {w["name"] for w in spec["workloads"]}
    print(f"\n# end-to-end, per workload (gated by BENCHMARK.json: {', '.join(sorted(gated))})")
    print(f"  {'metric':16s}" + "".join(f"{w:>22s}" for w in table))
    for n in names:
        unit = table[next(iter(table))][n]["unit"]
        print(f"  {n:16s}" + "".join(f"{table[w][n]['value']:>22.6g}" for w in table) + f"  {unit}")
    for f in failures:
        print(f"FAIL {f}")
    print("suite: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
