"""Smoke run of every workload at a tiny scale, in a few seconds.

    python3 perfbench/smoke.py

For each workload it runs ``run.py --scale tiny`` untraced and traced and
checks that the last output line is a result with every metric of
``BENCHMARK.json`` present, numeric and in its declared unit, that the
outputs passed their checks, and that the traced run wrote its spans.  It
also checks that the benchmark refuses to run, without printing a result,
from a directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

SEED = 3


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run(workload, trace)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = last_json(proc.stdout)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("attempted", 0) < 1:
        problems.append(f"{where}: outputs failed their checks: {proc.stdout[-2000:]}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    names = {m["name"] for m in want}
    if set(got) != names:
        problems.append(f"{where}: metric names differ: {sorted(set(got) ^ names)}")
    for m in want:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: {m['name']} = {entry}")
        elif f"{m['name']} = " not in proc.stdout:
            problems.append(f"{where}: {m['name']} not printed by name")
    if trace:
        tag = f"{workload}-s{SEED}-t1-tiny"
        record = json.loads((ROOT / ".perfbench" / "results" / f"{tag}.json").read_text())
        traced = record["passes"][1]
        spans = Path(traced["spans_file"])
        if traced["span_count"] < 1 or not spans.is_file() or not spans.read_text().strip():
            problems.append(f"{where}: no spans written")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["run.py printed a result without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_refuses_without_sources()
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
