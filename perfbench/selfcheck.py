"""Fast self-check of the benchmark: about a minute on two cores.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json matches the metric catalogue; runs every
workload once at a tiny size, untraced and traced, and asserts that the
result line has exactly its four keys, no failed operation, and every
gated metric with its unit, and that every other metric the workload
measures is printed with its unit; and checks that the benchmark exits
non-zero without a result where the quasivoc sources are missing.
Exits non-zero on the first problem.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selfcheck FAILED: {what}")


def check_manifest() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(doc["command"] == ["python3", "perfbench/run.py"] and doc["paths"] == ["perfbench"],
          "BENCHMARK.json command/paths")
    check({w["name"]: w["why"] for w in doc["workloads"]} == catalog.WORKLOADS,
          "BENCHMARK.json workloads differ from catalog.WORKLOADS")
    check([(e["name"], e["unit"], e["better"], e["bound"]) for e in doc["end_to_end"]]
          == [tuple(e) for e in catalog.END_TO_END], "BENCHMARK.json end_to_end differs")
    check([(e["name"], e["unit"], e["better"]) for e in doc["per_layer"]]
          == [tuple(e[:3]) for e in catalog.PER_LAYER], "BENCHMARK.json per_layer differs")


def printed_units(stdout: str) -> dict:
    """Metric name -> unit from the report's indented metric rows."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3 and parts[0] in catalog.UNITS:
            rows[parts[0]] = parts[2]
    return rows


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int) -> None:
    done = run_tiny(workload, trace)
    where = f"{workload} --trace {trace}"
    check(done.returncode == 0, f"{where} exited {done.returncode}: {done.stderr[-1500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where} result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{where} correct={result['correct']} failed={result['failed']}")
    gated = catalog.PER_LAYER if trace else catalog.END_TO_END
    check(set(result["metrics"]) == {e[0] for e in gated}, f"{where} result-line metric names")
    for name, unit, *_ in gated:
        entry = result["metrics"][name]
        check(entry["unit"] == unit and math.isfinite(entry["value"]), f"{where} {name}={entry}")
    measured = catalog.END_TO_END + catalog.PER_LAYER + [
        e for e in catalog.WORKLOAD_ONLY if workload in e[3]]
    wanted = [e for e in measured
              if trace or e in catalog.END_TO_END or e[0] in catalog.REPORTED]
    rows = printed_units(done.stdout)
    for name, unit, *_ in wanted:
        check(rows.get(name) == unit, f"{where} does not print {name} in {unit}")


def check_bare_checkout() -> None:
    """Without src/quasivoc the benchmark must fail and print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run_tiny("steady-vowel", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0, "bare checkout: exit code 0")
    check('"correct"' not in done.stdout, "bare checkout printed a result")


def main() -> int:
    check_manifest()
    for workload in catalog.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"ok {workload} --trace {trace}", flush=True)
    check_bare_checkout()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
