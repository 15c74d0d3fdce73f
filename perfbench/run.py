"""Benchmark entry point: one workload, one seed, from the root of a checkout.

    python3 perfbench/run.py --workload mid-train --seed 0 --seconds 45 --trace 0

Runs the workload in a fresh worker process with the BLAS/OpenMP thread
count pinned, prints every metric by name with its unit, writes the full
record under ``.perfbench/results/``, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` an untraced and then a traced worker run, and the metrics are
the per-layer ones, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mid-train", "desk")
# One BLAS/OpenMP thread: on this 2-core class of machine a second thread does
# not speed the mid-scale epochs up, and quality values repeat exactly only at
# a fixed thread count.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEADLINE_S = 170.0
TIMINGS = ("setup_s", "prepare_s", "stage1_epoch_s", "stage2_epoch_s", "eval_s")
PERCENTILES = (99, 95, 90, 75, 50)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for pct in PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            ordered = sorted(samples)
            return pct, ordered[min(n - 1, int(round(pct / 100 * (n - 1))))]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_worker(args, trace: int, work: Path, out: Path, deadline: float) -> dict:
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--seconds", str(args.seconds),
           "--scale", args.scale, "--work", str(work), "--out", str(out)]
    reference = HERE / "desk_reference.json"
    if args.workload == "desk" and args.scale == "full":
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise RuntimeError(f"worker (trace {trace}) exited {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(spec: list[dict], rec: dict) -> tuple[dict, list[str]]:
    metrics, lines = {}, []
    for m in spec:
        name = m["name"]
        if name in TIMINGS:
            # The gated value is the mean: on a shared host the speed flips
            # between states lasting seconds, and a median jumps with
            # whichever state held most of the run, while the mean moves only
            # with the share of time spent in each.
            samples = rec["samples"][name]
            value = statistics.fmean(samples)
            extra = f"mean of n={len(samples)}, median {statistics.median(samples):.6g}"
            tail = tail_percentile(samples)
            if tail:
                extra += f", p{tail[0]} {tail[1]:.6g}"
        elif name == "peak_rss_mb":
            value, extra = rec["peak_rss_mb"], "worker ru_maxrss"
        else:
            value, extra = rec["values"][name], ""
        metrics[name] = {"value": value, "unit": m["unit"]}
        lines.append(f"{name} = {value:.6g} {m['unit']}" + (f"  ({extra})" if extra else ""))
    return metrics, lines


def per_layer(spec: list[dict], plain: dict, traced: dict) -> tuple[dict, list[str]]:
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = ((traced["pipeline_s"] - plain["pipeline_s"])
                                     / plain["pipeline_s"])
    metrics, lines = {}, []
    for m in spec:
        value = float(layers.get(m["name"], 0.0))  # a layer the workload never calls
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        lines.append(f"{m['name']} = {value:.6g} {m['unit']}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crossfuse benchmark, one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test scale")
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not (ROOT / "src" / "crossfuse" / "__init__.py").is_file():
        return fail(f"no crossfuse sources under {ROOT / 'src'}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{args.scale}"
    base = ROOT / ".perfbench"
    work = base / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (base / "results").mkdir(parents=True, exist_ok=True)

    deadline = start + DEADLINE_S
    try:
        plain = run_worker(args, 0, work / "plain", work / "plain.json", deadline)
        traced = (run_worker(args, 1, work / "traced", work / "traced.json", deadline)
                  if args.trace else None)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    shutil.rmtree(work / "plain", ignore_errors=True)
    shutil.rmtree(work / "traced", ignore_errors=True)

    runs = [plain] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if traced:
        metrics, lines = per_layer(spec["per_layer"], plain, traced)
    else:
        metrics, lines = end_to_end(spec["end_to_end"], plain)

    env = {
        "threads": THREADS,
        "thread_vars": list(THREAD_VARS),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": plain["versions"]["numpy"],
        "scipy": plain["versions"]["scipy"],
        "git_revision": git_revision(),
        "source_digest": source_digest(),
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  scale {args.scale}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for key, value in plain["info"].items():
        print(f"info {key}: {value}")
    print(f"failed_frac = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} checked operations)")
    for r in runs:
        for message in r["failures"]:
            print(f"check failed: {message}")

    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"environment": env, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "scale": args.scale, "seconds": args.seconds,
              "wall_s": time.monotonic() - start, "result": result, "passes": runs}
    (base / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1),
                                                   encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
