"""One workload in one fresh process: set up, measure, check, report.

Run by run.py, which starts a new interpreter for every set-up and every
measurement so that peak memory and set-up time are the workload's own.
Prints one JSON object as its last line of standard output and exits 1
when an outcome check fails.

    python3 perfbench/worker.py --workload safe-size --seed 0 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload safe-size --seed 0 --seconds 30 --setup-only

README.md beside this file says why each workload exists.
"""

from __future__ import annotations

import time

_WORKER_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

# Session seeds of one workload seed are the block
# [seed * SEED_STRIDE, seed * SEED_STRIDE + sessions): contiguous, and
# disjoint from the block of every other workload seed.
SEED_STRIDE = 10_000_000

# A session that computes more than PROB_BUDGET readout probabilities is
# stopped and counted as a failed session. The lazy ring table of the
# sampler makes the cost of a session heavy-tailed and unbounded
# (factor(25610987, seed=2581) runs a minute and passes 2.5 GB), so
# without a limit one seed could take a run past its time or the
# machine's memory. The budget counts calls of shorsim.sampler.prob, the
# unit of ring-table work (about 4 us each, all told, on the 2-core host
# this benchmark was built on, so the budget is about 2 s of work); being
# a count, not a clock, it stops the same sessions on every run of the
# same code. SAFETY_LIMIT_S is a wall-clock net for a program whose
# sampler no longer calls prob there, and the address-space cap backs
# both up.
PROB_BUDGET = 500_000
SAFETY_LIMIT_S = 30.0
ADDRESS_SPACE_CAP = 1 << 30

# The 2-core host this benchmark was built on switches between a fast and
# a slow state about 1.4x apart, for spans from a tenth of a second to a
# minute; CPU time slows with wall time, so it is not stolen time. Every
# PROBE_EVERY_S the run times a fixed pure-Python reference task, and each
# session and transcript time is scaled by REFERENCE_NOMINAL_S over the
# mean of the probes on either side of it: times are reported at the
# fast state's speed. README.md has the measurements.
PROBE_EVERY_S = 0.1
REFERENCE_NOMINAL_S = 480e-6


@dataclass(frozen=True)
class Workload:
    """A fixed set of (N, L) cells and how many sessions one run makes.

    per_second scales the session count with --seconds so that a run at
    the commit that added this benchmark takes about --seconds; the count
    is the same on every commit measured with the same --seconds. Every
    round_trip_stride-th history is also written and read back.
    """

    name: str
    cells: tuple[tuple[int, int | None], ...]
    per_second: float
    round_trip_stride: int

    def session_count(self, seconds: int) -> int:
        return max(2, math.ceil(self.per_second * seconds))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("safe-size", ((1328881, None), (25610987, None)), 36.0, 3),
        Workload("small-n", ((187, None),), 7500.0, 25),
        Workload("short-register", ((25610987, 30),), 2.5, 1),
        Workload("ten-digit", ((9954647173, None),), 0.7, 1),
    )
}


class CheckFailed(Exception):
    """An outcome of the program is wrong."""


class SessionStopped(Exception):
    """A session passed PROB_BUDGET or SAFETY_LIMIT_S."""


def _stop_session(signum, frame):
    raise SessionStopped


class ProbBudget:
    """Counts shorsim.sampler.prob calls in the current session and stops
    the session when they pass PROB_BUDGET.

    Installed for the whole measurement, untraced and traced pass alike,
    so both stop the same sessions; the tracer wraps this wrapper.
    `installed` is False when the sampler no longer has a prob attribute.
    """

    def __init__(self) -> None:
        try:
            import shorsim.sampler as sampler
        except ImportError:
            sampler = None
        self.calls = 0
        original = getattr(sampler, "prob", None)
        self.installed = original is not None
        if not self.installed:
            return

        def counted(*args, **kwargs):
            self.calls += 1
            if self.calls > PROB_BUDGET:
                raise SessionStopped
            return original(*args, **kwargs)

        sampler.prob = counted
        self._restore = (sampler, original)

    def reset(self) -> None:
        self.calls = 0

    def uninstall(self) -> None:
        if self.installed:
            sampler, original = self._restore
            sampler.prob = original


def _reference_task() -> int:
    x = 0
    for i in range(6_000):
        x = (x * 31 + i) % 1_000_003
    return x


def probe() -> float:
    """Host speed now: the best of three timings of the reference task."""
    clock = time.perf_counter
    best = math.inf
    for _ in range(3):
        t0 = clock()
        _reference_task()
        best = min(best, clock() - t0)
    return best


class SpeedScale:
    """Probes the host between blocks of work and scales raw times.

    A measurement taken while block b is open is scaled by
    REFERENCE_NOMINAL_S over the mean of probes b and b + 1.
    """

    def __init__(self) -> None:
        self.probes = [probe()]
        self.probe_s = 0.0
        self._next = time.perf_counter() + PROBE_EVERY_S

    @property
    def block(self) -> int:
        return len(self.probes) - 1

    def tick(self, last: bool = False) -> None:
        t0 = time.perf_counter()
        if last or t0 >= self._next:
            self.probes.append(probe())
            now = time.perf_counter()
            self.probe_s += now - t0
            self._next = now + PROBE_EVERY_S

    def apply(self, raw: list[float], blocks: list[int]) -> list[float]:
        p = self.probes
        return [t * 2 * REFERENCE_NOMINAL_S / (p[b] + p[b + 1]) for t, b in zip(raw, blocks)]


def import_shorsim():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "shorsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no shorsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import shorsim

    if Path(shorsim.__file__).resolve().parent != SRC / "shorsim":
        raise SystemExit(f"perfbench: imported shorsim from {shorsim.__file__}")
    return shorsim


def session_seeds(workload: Workload, seed: int, seconds: int) -> range:
    """The session seeds of one run; session i factors cells[i % len(cells)]."""
    base = seed * SEED_STRIDE
    return range(base, base + workload.session_count(seconds))


def fingerprint(history) -> list:
    """Everything a seed fixes about a session; elapsed time is left out."""
    return [
        history.params.seed,
        history.params.n,
        history.params.qubits,
        list(history.factors) if history.factors else None,
        history.total_trials,
        history.failure.value if history.failure else None,
        len(history.attempts),
    ]


def check_history(history, n: int) -> None:
    """A reported pair must be two proper divisors of N multiplying to N."""
    if history.params.n != n:
        raise CheckFailed(f"history is for {history.params.n}, not {n}")
    if history.factors is None:
        if history.failure is None:
            raise CheckFailed(f"seed {history.params.seed}: no factors and no failure")
        return
    a, b = history.factors
    if not (1 < a < n and 1 < b < n and a * b == n):
        raise CheckFailed(f"seed {history.params.seed}: {a} * {b} is not a split of {n}")


@dataclass
class Pass:
    """What one pass over a workload's sessions measured.

    Times are raw clock readings; `scale` turns them into times at the
    nominal host speed. wall_s leaves out round trips and probes.
    """

    digest: str = ""
    wall_s: float = 0.0
    succeeded: int = 0
    gcd_shortcuts: int = 0
    stopped: set[int] = field(default_factory=set)
    scale: SpeedScale = field(default_factory=SpeedScale)
    session_s: list[float] = field(default_factory=list)
    session_block: list[int] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    round_trip_block: list[int] = field(default_factory=list)
    events: int = 0
    jsonl_bytes: int = 0


def run_sessions(
    shorsim, budget: ProbBudget, workload: Workload, seeds: range, stopped: set[int] | None = None
) -> Pass:
    """Run every session once, timed around shorsim.factor. Every
    round_trip_stride-th history goes through the transcript right after
    its session, so that the transcript timings spread over the run as
    the session timings do.

    Every session runs under PROB_BUDGET, which stops the same sessions
    in both passes. Without `stopped`, every session also runs under
    SAFETY_LIMIT_S and the seeds of those stopped are collected into
    Pass.stopped. With it (the traced pass), only those seeds run under
    the wall-clock limit and they enter the digest as stopped whatever
    happens, so tracing overhead cannot turn a session that finished into
    one that was stopped or back.
    """
    clock = time.perf_counter
    h = hashlib.sha256()
    first_pass = stopped is None
    result = Pass(stopped=set() if first_pass else stopped)
    scale = result.scale
    cells = workload.cells
    start = clock()
    for i, seed in enumerate(seeds):
        scale.tick()
        n, qubits = cells[i % len(cells)]
        limit = first_pass or seed in result.stopped
        budget.reset()
        t0 = clock()
        try:
            if limit:
                signal.setitimer(signal.ITIMER_REAL, SAFETY_LIMIT_S)
            try:
                history = shorsim.factor(n, qubits, seed)
            finally:
                if limit:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except (SessionStopped, MemoryError):
            history = None
        result.session_s.append(clock() - t0)
        result.session_block.append(scale.block)
        if history is None or (limit and not first_pass):
            result.stopped.add(seed)
            h.update(json.dumps([seed, "stopped"]).encode() + b"\n")
            continue
        check_history(history, n)
        h.update(json.dumps(fingerprint(history)).encode() + b"\n")
        if history.factors is not None:
            result.succeeded += 1
            if history.total_trials == 0:
                result.gcd_shortcuts += 1
        if i % workload.round_trip_stride == 0:
            round_trip(shorsim, history, result)
    scale.tick(last=True)
    result.wall_s = (
        clock() - start - sum(result.write_s) - sum(result.read_s) - scale.probe_s
    )
    result.digest = h.hexdigest()
    return result


def round_trip(shorsim, history, result: Pass) -> None:
    """Write a history as JSONL and as text, parse the JSONL back, compare."""
    clock = time.perf_counter
    t0 = clock()
    text = shorsim.to_jsonl(history)
    lines = shorsim.render_text(history)
    t1 = clock()
    back = shorsim.from_jsonl(text)
    t2 = clock()
    if back != history:
        raise CheckFailed(f"seed {history.params.seed}: from_jsonl(to_jsonl(h)) != h")
    if not lines:
        raise CheckFailed(f"seed {history.params.seed}: empty text transcript")
    result.write_s.append(t1 - t0)
    result.read_s.append(t2 - t1)
    result.round_trip_block.append(result.scale.block)
    result.events += text.count("\n") + 1
    result.jsonl_bytes += len(text)


def setup(workload: Workload, seed: int, seconds: int):
    """Everything before timing starts; returns (shorsim, session seeds)."""
    shorsim = import_shorsim()
    seeds = session_seeds(workload, seed, seconds)
    for n, _ in workload.cells:
        shorsim.multiplicative_order(2, n)  # fills the factorize/lambda caches
    return shorsim, seeds


def end_to_end(p: Pass) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """End-to-end metrics at nominal host speed, and the raw values they scale."""
    scaled_ms = [t * 1000.0 for t in p.scale.apply(p.session_s, p.session_block)]
    raw_ms = [t * 1000.0 for t in p.session_s]
    write_s = sum(p.scale.apply(p.write_s, p.round_trip_block))
    read_s = sum(p.scale.apply(p.read_s, p.round_trip_block))
    metrics = {
        "sessions_per_s": (len(raw_ms) / p.wall_s, "1/s"),
        "session_ms_p50": (statistics.median(scaled_ms), "ms"),
        "session_ms_p90": (statistics.quantiles(scaled_ms, n=10)[-1], "ms"),
        "success_rate": (p.succeeded / len(raw_ms), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "write_events_per_s": (p.events / write_s, "1/s"),
        "read_events_per_s": (p.events / read_s, "1/s"),
    }
    raw = {
        "session_ms_p50": statistics.median(raw_ms),
        "session_ms_p90": statistics.quantiles(raw_ms, n=10)[-1],
        "write_events_per_s": p.events / sum(p.write_s),
        "read_events_per_s": p.events / sum(p.read_s),
        "probe_ms_median": statistics.median(p.scale.probes) * 1000.0,
    }
    return metrics, raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.seconds < 1 or not 0 <= args.seed * SEED_STRIDE + workload.session_count(args.seconds) <= 2**64:
        parser.error("--seconds must be >= 1 and --seed in [0, 1.8e12)")
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    signal.signal(signal.SIGALRM, _stop_session)

    shorsim, seeds = setup(workload, args.seed, args.seconds)
    setup_raw_s = time.perf_counter() - _WORKER_START
    setup_times = {
        "setup_s": setup_raw_s * REFERENCE_NOMINAL_S / probe(),
        "setup_raw_s": setup_raw_s,
    }
    if args.setup_only:
        print(json.dumps(setup_times))
        return 0

    out = {**setup_times, "sessions": len(seeds), "correct": False}
    budget = ProbBudget()
    try:
        plain = run_sessions(shorsim, budget, workload, seeds)
        out.update(
            digest=plain.digest,
            attempted=len(seeds),
            failed=len(seeds) - plain.succeeded,
            stopped=len(plain.stopped),
            prob_budget=PROB_BUDGET if budget.installed else None,
        )
        out["metrics"], out["raw"] = end_to_end(plain)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = run_sessions(shorsim, budget, workload, seeds, plain.stopped)
            finally:
                tracer.uninstall()
            if traced.digest != plain.digest:
                raise CheckFailed("traced and untraced passes disagree on outcomes")
            layer = tracer.metrics(
                len(seeds), traced.gcd_shortcuts, traced.events, traced.jsonl_bytes
            )
            layer["trace.overhead_ratio"] = (traced.wall_s / plain.wall_s, "ratio")
            out["metrics"] = layer
            out["missing"] = sorted(tracer.missing)
        out["correct"] = True
    except CheckFailed as exc:
        out["error"] = str(exc)
        print(f"perfbench: outcome check failed: {exc}", file=sys.stderr)
    finally:
        budget.uninstall()
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
