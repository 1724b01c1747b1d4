"""Command line interface: factor, dist, bench.

factor runs one full session and prints the transcript (or JSON lines),
dist exports the readout spectrum of a chosen base as CSV, and bench
times repeated sessions across work-register sizes.
"""

from __future__ import annotations

import argparse
import os
import secrets
import sys
from concurrent.futures import ProcessPoolExecutor
from statistics import mean

from .factorizer import FactoringHistory, factor
from .model import (
    MAX_QUBITS,
    InputTooLarge,
    PrimeInput,
    check_ten_digits,
    dominant_readouts,
    prob,
    safe_qubits,
)
from .numtheory import NotCoprime, multiplicative_order
from .transcript import PRIME_WARNING, render_text, to_jsonl

FULL_SPECTRUM_LIMIT = 1 << 20  # largest register dumped exhaustively


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
        "--runs", type=int, default=4, metavar="R", help="sessions per register size (default 4)"
    )
    p_bench.add_argument(
        "--workers", type=int, default=1, metavar="W", help="parallel worker processes (default 1)"
    )
    p_bench.add_argument(
        "--out", default=None, metavar="PATH", help="also write per-run rows as CSV to PATH"
    )
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream reader (head, less) closed the pipe; suppress the
        # shutdown flush error and exit with the conventional 128+SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _parse_ceiling(text: str) -> int | str | None:
    if text == "sqrt":
        return "sqrt"
    if text == "none":
        return None
    try:
        value = int(text)
    except ValueError:
        raise ValueError(
            f"--order-ceiling must be 'sqrt', 'none', or an integer, got {text!r}"
        ) from None
    if value < 1:
        raise ValueError("--order-ceiling must be positive")
    return value


def _seed_or_fresh(seed: int | None) -> int:
    return seed if seed is not None else secrets.randbits(64)


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
            _seed_or_fresh(args.seed),
            max_trials=args.max_trials,
            order_ceiling=_parse_ceiling(args.order_ceiling),
        )
    except PrimeInput:
        print(PRIME_WARNING)
        return 2
    except (InputTooLarge, ValueError) as exc:
        return _fail(f"shorsim: {exc}")
    if args.format == "jsonl":
        text = to_jsonl(history)
    else:
        text = "\n".join(render_text(history))
    if not _emit(text, args.out):
        return 2
    return 0 if history.succeeded else 1


def _spectrum_rows(r: int, q: int, rings: int) -> tuple[list[tuple], float, bool]:
    """Spectrum rows and the dominant mass; truncated rows carry coverage."""
    peaks = dominant_readouts(r, q)
    peak_mass = sum(prob(c, r, q) for c in peaks)
    if q <= FULL_SPECTRUM_LIMIT:
        rows: list[tuple] = []
        for c in range(q):
            p = prob(c, r, q)
            if p > 0.0:
                rows.append((c, p))
        return rows, peak_mass, False
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
    return rows, peak_mass, True


def cmd_dist(args: argparse.Namespace) -> int:
    n, y = args.n, args.y
    if n < 2:
        return _fail("shorsim: N must be >= 2")
    if not 0 < y < n:
        return _fail("shorsim: require 0 < Y < N")
    if args.rings < 0:
        return _fail("shorsim: --rings must be >= 0")
    try:
        check_ten_digits(n)
        qubits = args.qubits if args.qubits is not None else safe_qubits(n)
        if not 1 <= qubits <= MAX_QUBITS:
            raise ValueError(f"--qubits must be in [1, {MAX_QUBITS}]")
        r = multiplicative_order(y, n)
    except (NotCoprime, PrimeInput, InputTooLarge, ValueError) as exc:
        return _fail(f"shorsim: {exc}")
    q = 1 << qubits
    if r > q:
        return _fail(f"shorsim: order {r} of y = {y} exceeds the register size {q}")
    needed = r * (2 * args.rings + 1)
    if q > FULL_SPECTRUM_LIMIT and needed > FULL_SPECTRUM_LIMIT:
        return _fail(
            f"shorsim: order {r} with {args.rings} rings needs {needed} rows,"
            f" more than the limit {FULL_SPECTRUM_LIMIT}"
        )
    rows, peak_mass, truncated = _spectrum_rows(r, q, args.rings)
    header = f"# N={n},L={qubits},y={y},r={r},dominant_mass={peak_mass!r}"
    if truncated:
        header += ",columns=c:prob:coverage"
    out_lines = [header]
    for row in rows:
        out_lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return 0 if _emit("\n".join(out_lines), args.out) else 2


def _bench_one(task: tuple) -> FactoringHistory:
    n, qubits, seed, max_trials, ceiling = task
    return factor(n, qubits, seed, max_trials=max_trials, order_ceiling=ceiling)


def _format_run(history: FactoringHistory) -> str:
    if not history.succeeded:
        return f"{history.elapsed:.1f}(-)"
    return f"{history.elapsed:.1f}({history.total_trials})"


def cmd_bench(args: argparse.Namespace) -> int:
    if args.runs < 1:
        return _fail("shorsim: --runs must be >= 1")
    if args.workers < 1:
        return _fail("shorsim: --workers must be >= 1")
    try:
        ceiling = _parse_ceiling(args.order_ceiling)
        if args.qubits is None:
            sizes = [safe_qubits(args.n)]
        else:
            sizes = [int(part) for part in args.qubits.split(",") if part != ""]
            if not sizes:
                raise ValueError("--qubits takes a comma-separated list of sizes")
        for qubits in sizes:
            if not 1 <= qubits <= MAX_QUBITS:
                raise ValueError(f"--qubits must be in [1, {MAX_QUBITS}]")
        base_seed = _seed_or_fresh(args.seed)
        tasks = [
            (args.n, qubits, (base_seed + i) % 2**64, args.max_trials, ceiling)
            for qubits in sizes
            for i in range(args.runs)
        ]
        # an unwritable CSV path fails here, before any session runs
        if args.out and not _write(args.out, "a", ""):
            return 2
        if args.workers == 1:
            results = [_bench_one(task) for task in tasks]
        else:
            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                results = list(pool.map(_bench_one, tasks))
    except PrimeInput:
        print(PRIME_WARNING)
        return 2
    except (InputTooLarge, ValueError) as exc:
        return _fail(f"shorsim: {exc}")

    print(
        f"Factoring N = {args.n}, {args.runs} runs per register size, seed base {base_seed}"
    )
    for row, qubits in enumerate(sizes):
        runs = results[row * args.runs : (row + 1) * args.runs]
        cells = " ".join(_format_run(h) for h in runs)
        done = [h for h in runs if h.succeeded]
        if done:
            avg = (
                f"{mean(h.elapsed for h in done):.1f}"
                f"({round(mean(h.total_trials for h in done), 1):g})"
            )
        else:
            avg = "-"
        print(f"L = {qubits:3d}: {cells}  avg {avg}")

    if args.out:
        lines = ["n,qubits,run,seed,elapsed,trials,outcome,factor1,factor2"]
        for index, ((n, qubits, seed, _mt, _oc), history) in enumerate(
            zip(tasks, results)
        ):
            outcome = history.failure.value if history.failure else "success"
            f1, f2 = history.factors if history.factors else ("", "")
            lines.append(
                f"{n},{qubits},{index % args.runs},{seed},{history.elapsed!r},"
                f"{history.total_trials},{outcome},{f1},{f2}"
            )
        return 0 if _emit("\n".join(lines), args.out) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
