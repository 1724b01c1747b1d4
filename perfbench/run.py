"""Seeded end-to-end and per-layer benchmark of shorsim.

    python3 perfbench/run.py --workload safe-size --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Runs from the root of a checkout and imports shorsim from its src/. Every
set-up and every measurement runs in a fresh worker process (worker.py),
so no workload inherits another's memory or warm caches. Set-up runs
SETUP_RUNS times and setup_s is their median.

With --trace 0 the result carries the end-to-end metrics of an untraced
pass; with --trace 1 it carries the per-layer metrics of a traced pass,
which runs after an untraced pass whose outcome digest it must equal.
The last line of standard output is one JSON object:

    {"correct": true, "attempted": 1080, "failed": 1, "metrics": {...}}

Exit status 0 when every outcome check passed, 1 when one failed, 2 when
the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 170

# The end-to-end metrics of the result line: those that repeat within
# their bound in BENCHMARK.json from one workload seed to the next.
# sessions_per_s and peak_rss_mb are printed but left out: one session in
# a few hundred builds a ring table that dominates the run's wall time and
# memory, so they swing by more than a quarter between seeds (README.md).
END_TO_END = (
    "setup_s",
    "session_ms_p50",
    "session_ms_p90",
    "success_rate",
    "write_events_per_s",
    "read_events_per_s",
)


def run_worker(args: list[str]) -> tuple[int, dict | None]:
    """Run worker.py to completion; return its exit code and last JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )


def commit() -> str:
    """The checked-out commit read from .git, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    for _ in range(SETUP_RUNS - 1):
        code, out = run_worker([*common, "--setup-only"])
        if code != 0 or out is None:
            raise SystemExit(f"perfbench: {name} set-up failed (exit {code})")
        setups.append(out)
    code, out = run_worker([*common, "--trace", str(trace)])
    if out is None:
        raise SystemExit(f"perfbench: {name} worker failed (exit {code})")
    setups.append(out)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out.get("metrics", {}).items()}
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"}
    for key in out.get("missing", []):
        print(f"{name}: {key} not measured (no such function)", file=sys.stderr)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sessions": out["sessions"],
        "stopped": out.get("stopped"),
        "prob_budget": out.get("prob_budget"),
        "digest": out.get("digest"),
        "setup_runs_s": [s["setup_s"] for s in setups],
        "setup_runs_raw_s": [s["setup_raw_s"] for s in setups],
        "raw": out.get("raw"),
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
    }
    if "error" in out:
        record["error"] = out["error"]
    print(json.dumps(record, sort_keys=True))
    for key, m in metrics.items():
        value = "not measured" if m["value"] is None else f"{m['value']:.6g}"
        note = "" if trace or key in END_TO_END else "  (printed only)"
        print(f"{name}  {key:38s} {value:>14s} {m['unit']}{note}")
    if not trace:
        metrics = {key: metrics[key] for key in END_TO_END if key in metrics}
    return {
        "correct": bool(out["correct"]) and code == 0,
        "attempted": out.get("attempted", out["sessions"]),
        "failed": out.get("failed", out["sessions"]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "shorsim" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/shorsim package", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
