"""Command line interface: factor, dist, bench.

factor runs one full session and prints the transcript (or JSON lines),
dist exports the readout spectrum of a chosen base as CSV, and bench
times repeated sessions across work-register sizes.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .factorizer import FactoringHistory, factor, run_session
from .model import FactoringParams, PrimeInput, dominant_mass, dominant_readouts, prob
from .numtheory import multiplicative_order
from .transcript import PRIME_WARNING, render_text, to_jsonl

FULL_SPECTRUM_LIMIT = 1 << 20  # largest register dumped exhaustively
MAX_BENCH_SESSIONS = 10_000  # register sizes x runs; one table cell and CSV row each


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="64-bit seed; a fresh random seed is drawn when omitted",
    )
    parser.add_argument(
        "--max-trials",
        type=int,
        default=100,
        metavar="T",
        help="global measurement budget per session (default 100)",
    )
    parser.add_argument(
        "--order-ceiling",
        default="sqrt",
        metavar="C",
        help="largest base order accepted: 'sqrt' (default), 'none', or an integer",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shorsim",
        description="Simulated quantum factoring: exact readout statistics, classical loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="run one factoring session")
    p_factor.add_argument(
        "n", type=int, metavar="N", help="number to factor (composite, at most ten digits)"
    )
    p_factor.add_argument(
        "--qubits",
        type=int,
        default=None,
        metavar="L",
        help="work register size; default is the safe size for N",
    )
    _add_session_flags(p_factor)
    p_factor.add_argument(
        "--format",
        choices=("text", "jsonl"),
        default="text",
        help="transcript rendering (default text)",
    )
    p_factor.add_argument(
        "--out", default=None, metavar="PATH", help="write output to PATH instead of stdout"
    )
    p_factor.set_defaults(func=cmd_factor)

    p_dist = sub.add_parser("dist", help="export a readout spectrum as CSV")
    p_dist.add_argument("n", type=int, metavar="N", help="modulus")
    p_dist.add_argument("y", type=int, metavar="Y", help="base, coprime to N")
    p_dist.add_argument(
        "--qubits",
        type=int,
        default=None,
        metavar="L",
        help="work register size; default is the safe size for N",
    )
    p_dist.add_argument(
        "--rings",
        type=int,
        default=4,
        metavar="K",
        help="neighbor rings per peak in truncated mode (default 4)",
    )
    p_dist.add_argument(
        "--out", default=None, metavar="PATH", help="write CSV to PATH instead of stdout"
    )
    p_dist.set_defaults(func=cmd_dist)

    p_bench = sub.add_parser("bench", help="time sessions across register sizes")
    p_bench.add_argument(
        "n", type=int, metavar="N", help="number to factor (composite, at most ten digits)"
    )
    p_bench.add_argument(
        "--qubits",
        default=None,
        metavar="L1,L2,...",
        help="comma-separated register sizes; default is the safe size for N",
    )
    _add_session_flags(p_bench)
    p_bench.add_argument(
        "--runs",
        type=int,
        default=4,
        metavar="R",
        help=f"sessions per register size (default 4; {MAX_BENCH_SESSIONS} sessions at most)",
    )
    p_bench.add_argument(
        "--out", default=None, metavar="PATH", help="also write per-run rows as CSV to PATH"
    )
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a write that would fail at exit fails here
    except OSError as exc:  # a reader (head, less) closed the pipe, or the device is full
        # point stdout at /dev/null, so the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141  # the conventional 128+SIGPIPE
        return _fail(f"shorsim: cannot write standard output: {exc.strerror or exc}")
    return status


def _parse_ceiling(text: str) -> int | str | None:
    """--order-ceiling as FactoringParams takes it, which checks the range."""
    if text == "sqrt":
        return "sqrt"
    if text == "none":
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"--order-ceiling must be 'sqrt', 'none', or an integer, got {text!r}"
        ) from None


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _write(out: str, mode: str, text: str) -> bool:
    """Write text to the file out; False, after a one-line message, on failure."""
    try:
        with open(out, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(f"shorsim: cannot write {out}: {exc.strerror or exc}")
        return False
    return True


def _emit(text: str, out: str | None) -> bool:
    """Print text, or write it to the file out; False once a write fails."""
    if out is None:
        print(text)
        return True
    return _write(out, "w", text + "\n")


def cmd_factor(args: argparse.Namespace) -> int:
    try:
        history = factor(
            args.n,
            args.qubits,
            args.seed,
            max_trials=args.max_trials,
            order_ceiling=_parse_ceiling(args.order_ceiling),
        )
    except PrimeInput:
        print(PRIME_WARNING)
        return 2
    except ValueError as exc:
        return _fail(f"shorsim: {exc}")
    if args.format == "jsonl":
        text = to_jsonl(history)
    else:
        text = "\n".join(render_text(history))
    if not _emit(text, args.out):
        return 2
    return 0 if history.succeeded else 1


def _spectrum_rows(r: int, q: int, rings: int) -> tuple[list[tuple], bool]:
    """Spectrum rows, and whether they are truncated (rows then carry coverage)."""
    if q <= FULL_SPECTRUM_LIMIT:
        rows: list[tuple] = []
        for c in range(q):
            p = prob(c, r, q)
            if p > 0.0:
                rows.append((c, p))
        return rows, False
    peaks = dominant_readouts(r, q)
    cells = set(peaks)
    for k in range(1, rings + 1):
        for c in peaks:
            cells.add((c + k) % q)
            cells.add((c - k) % q)
    rows = []
    coverage = 0.0
    for c in sorted(cells):
        p = prob(c, r, q)
        coverage += p
        rows.append((c, p, coverage))
    return rows, True


def cmd_dist(args: argparse.Namespace) -> int:
    n, y = args.n, args.y
    try:
        params = FactoringParams(n, args.qubits, seed=0)
        if not 0 < y < n:
            raise ValueError("require 0 < Y < N")
        if args.rings < 0:
            raise ValueError("--rings must be >= 0")
        r = multiplicative_order(y, n)  # NotCoprime is a ValueError
    except ValueError as exc:
        return _fail(f"shorsim: {exc}")
    qubits, q = params.qubits, params.q
    if r > q:
        return _fail(f"shorsim: order {r} of y = {y} exceeds the register size {q}")
    needed = r * (2 * args.rings + 1)
    if q > FULL_SPECTRUM_LIMIT and needed > FULL_SPECTRUM_LIMIT:
        return _fail(
            f"shorsim: order {r} with {args.rings} rings needs {needed} rows,"
            f" more than the limit {FULL_SPECTRUM_LIMIT}"
        )
    rows, truncated = _spectrum_rows(r, q, args.rings)
    header = f"# N={n},L={qubits},y={y},r={r},dominant_mass={dominant_mass(r, q)!r}"
    if truncated:
        header += ",columns=c:prob:coverage"
    out_lines = [header]
    for row in rows:
        out_lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return 0 if _emit("\n".join(out_lines), args.out) else 2


def _format_run(history: FactoringHistory) -> str:
    """A bench cell: the session's milliseconds, then its trials or - for a failure."""
    trials = history.total_trials if history.succeeded else "-"
    return f"{history.elapsed * 1e3:.2f}({trials})"


def cmd_bench(args: argparse.Namespace) -> int:
    if args.runs < 1:
        return _fail("shorsim: --runs must be >= 1")
    try:
        ceiling = _parse_ceiling(args.order_ceiling)
        if args.qubits is None:
            sizes: list[int | None] = [None]  # the safe size for N
        else:
            sizes = [int(part) for part in args.qubits.split(",") if part != ""]
            if not sizes:
                raise ValueError("--qubits takes a comma-separated list of sizes")
        if len(sizes) * args.runs > MAX_BENCH_SESSIONS:
            raise ValueError(
                f"a bench runs at most {MAX_BENCH_SESSIONS} sessions"
                f" (register sizes x --runs), not {len(sizes) * args.runs}"
            )
        # the first size resolves --seed (fresh when omitted) for every size
        first = FactoringParams(
            args.n, sizes[0], args.seed, max_trials=args.max_trials, order_ceiling=ceiling
        )
        per_size = [dataclasses.replace(first, qubits=qubits) for qubits in sizes]
    except PrimeInput:
        print(PRIME_WARNING)
        return 2
    except ValueError as exc:
        return _fail(f"shorsim: {exc}")
    # an unwritable CSV path fails here, before any session runs
    if args.out and not _write(args.out, "a", ""):
        return 2

    print(
        f"Factoring N = {args.n}, {args.runs} runs per register size, seed base {first.seed}"
    )
    lines = ["n,qubits,run,seed,elapsed,trials,outcome,factor1,factor2"]
    for params in per_size:
        cells, done = [], []
        for run in range(args.runs):
            seed = (first.seed + run) % 2**64
            history = run_session(dataclasses.replace(params, seed=seed))
            cells.append(_format_run(history))
            if history.succeeded:
                done.append((history.elapsed, history.total_trials))
            outcome = (history.failure or history.attempts[-1].outcome).value
            f1, f2 = history.factors if history.factors else ("", "")
            lines.append(
                f"{args.n},{params.qubits},{run},{seed},{history.elapsed!r},"
                f"{history.total_trials},{outcome},{f1},{f2}"
            )
        if done:
            avg = (
                f"{math.fsum(e for e, _ in done) / len(done) * 1e3:.2f}"
                f"({round(sum(t for _, t in done) / len(done), 1):g})"
            )
        else:
            avg = "-"
        print(f"L = {params.qubits:3d}: {' '.join(cells)}  avg {avg}")

    if args.out:
        return 0 if _emit("\n".join(lines), args.out) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
