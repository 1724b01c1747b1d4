"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload with --seconds 1, traced and untraced, and checks that
the result line has the shape BENCHMARK.json promises and that every
metric is printed with its unit. Then plants three outcome mismatches (a
wrong factor pair, a traced pass that disagrees with the untraced one, a
transcript that does not read back) and checks that each makes the run
fail. Checks that a deleted function reads as not measured, that the
prob budget stops the same sessions on every pass, and that the
benchmark refuses a directory without src/.
Exits 0 when every check passed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

PRINTED_ONLY = {"sessions_per_s": "1/s", "peak_rss_mb": "MB"}


def check(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def check_workloads(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(tuple(e2e) == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.END_TO_END")
    for w in spec["workloads"]:
        check(w["name"] in run.WORKLOADS, f"unknown workload {w['name']}")
    for name in run.WORKLOADS:
        for trace, expected in ((0, e2e), (1, layer)):
            proc = run_cli("--workload", name, "--seed", "0", "--seconds", "1", "--trace", str(trace))
            check(proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{name}: result keys {sorted(result)}",
            )
            check(result["correct"] is True and result["attempted"] >= 1, f"{name}: {result}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            check(got == expected, f"{name} trace {trace}: metrics {got} != {expected}")
            printed = dict(expected, **(PRINTED_ONLY if not trace else {}))
            for key, unit in printed.items():
                rows = [line.split() for line in proc.stdout.splitlines()]
                check(
                    any(row[:2] == [name, key] and unit in row[2:] for row in rows),
                    f"{name}: {key} [{unit}] not printed",
                )
        print(f"smoke: {name} prints every metric")


def run_planted(tamper, trace: int = 0) -> int:
    """Run safe-size in this process with shorsim.factor replaced by tamper."""
    shorsim = worker.import_shorsim()
    original = shorsim.factor
    shorsim.factor = tamper(original)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = worker.main(
                ["--workload", "safe-size", "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            )
    finally:
        shorsim.factor = original
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    check(result["correct"] is False, "planted mismatch reported correct")
    return code


def wrong_pair(factor):
    def tampered(n, qubits, seed):
        history = factor(n, qubits, seed)
        if history.factors is None:
            return history
        return dataclasses.replace(history, factors=(1, n))

    return tampered


def traced_differs(factor):
    calls = [0]
    sessions = worker.WORKLOADS["safe-size"].session_count(1)

    def tampered(n, qubits, seed):
        history = factor(n, qubits, seed)
        calls[0] += 1
        if calls[0] > sessions:
            return dataclasses.replace(history, total_trials=history.total_trials + 1)
        return history

    return tampered


def check_planted() -> None:
    check(run_planted(wrong_pair) != 0, "a wrong factor pair passed")
    check(run_planted(traced_differs, trace=1) != 0, "a traced-only outcome change passed")
    shorsim = worker.import_shorsim()
    from_jsonl = shorsim.from_jsonl
    shorsim.from_jsonl = lambda text: dataclasses.replace(from_jsonl(text), warnings=("x",))
    try:
        check(run_planted(lambda f: f) != 0, "a transcript that reads back wrong passed")
    finally:
        shorsim.from_jsonl = from_jsonl
    print("smoke: planted mismatches fail the run")


def check_missing_function() -> None:
    """A function a later change deletes reads as not measured, not a crash."""
    shorsim = worker.import_shorsim()
    original = shorsim.sampler.dominant_readouts
    del shorsim.sampler.dominant_readouts
    try:
        t = tracer.Tracer()
        t.install()
        t.uninstall()
    finally:
        shorsim.sampler.dominant_readouts = original
    metrics = t.metrics(1, 0, 0, 0)
    check(t.missing == {"model.dominant_readouts"}, f"missing {t.missing}")
    check(metrics["model.dominant_readouts_s"][0] is None, "a deleted function was measured")
    check(metrics["sampler.draws"][0] == 0, "a present function was not measured")
    print("smoke: a deleted function reads as not measured")


def check_budget() -> None:
    """The session limit is a count, not a clock: two passes stop the same sessions."""
    shorsim = worker.import_shorsim()
    workload = worker.WORKLOADS["safe-size"]
    seeds = worker.session_seeds(workload, 0, 1)
    saved = worker.PROB_BUDGET
    worker.PROB_BUDGET = 200
    budget = worker.ProbBudget()
    try:
        first = worker.run_sessions(shorsim, budget, workload, seeds)
        second = worker.run_sessions(shorsim, budget, workload, seeds)
    finally:
        budget.uninstall()
        worker.PROB_BUDGET = saved
    check(bool(first.stopped), "a budget of 200 prob calls stopped no session")
    check(first.stopped == second.stopped, "two passes stopped different sessions")
    check(first.digest == second.digest, "two passes disagree on outcomes")
    print("smoke: the prob budget stops the same sessions on every pass")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix="perfbench-smoke-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_cli("--workload", "safe-size", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    check(proc.returncode != 0, "a directory without src/ was accepted")
    check(proc.stdout.strip() == "", "a directory without src/ printed a result")
    print("smoke: a directory without src/ is refused")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_workloads(spec)
    check_planted()
    check_missing_function()
    check_budget()
    check_bare_directory()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
