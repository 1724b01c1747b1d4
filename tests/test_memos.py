"""The five process-wide memos change what a session costs, never what it
returns, and stay bounded: one row per memo, each check run over every row.
The reader takes its trials and splits from the memos the session fills, so
reading a stream back derives no trial or split the session derived, and
refuses an edited stream alike on cold and warm memos."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable

import pytest

import shorsim.factorizer as factorizer_module
import shorsim.orderfinder as orderfinder_module
import shorsim.sampler as sampler_module
from shorsim import TranscriptError, factor, from_jsonl, to_jsonl
from shorsim.factorizer import _sampler, extract_factors
from shorsim.numtheory import _MEMO_ENTRIES, is_prime
from shorsim.orderfinder import _trial
from shorsim.sampler import _acceptance_height


@dataclasses.dataclass(frozen=True)
class Row:
    """One memo. fill(i) looks up a key no session of WORKLOADS looks up;
    a wrapper put on the module global `wrapped` sees exactly the misses;
    `call`, run for i in range(3 * _MEMO_ENTRIES) in a fresh process on
    distinct keys, leaves the memo full and under `bound` bytes."""

    memo: Any
    fill: Callable[[int], object]
    wrapped: tuple[Any, str] | None
    call: str
    bound: int


# the bounds were fixed before the first run; the README's "Memos" table
# gives what each held, measured on CPython 3.11
MEMOS = {
    # every readout a fresh 96-bit int, at the widest register
    "_acceptance_height": Row(
        _acceptance_height, lambda i: _acceptance_height(i, 3, 1 << 20), (sampler_module, "prob"),
        "_acceptance_height(rng.getrandbits(96), 69820, q)", 1_200_000,
    ),
    "_trial": Row(
        _trial, lambda i: _trial(i, 7, 1 << 20, 15), (orderfinder_module, "convergents"),
        "_trial(rng.getrandbits(96), 2, q, n)", 2_200_000,
    ),
    # even ten-digit arguments, each answered by its first witness
    "is_prime": Row(
        is_prime, lambda i: is_prime((1 << 40) + i), None, "is_prime(n + 1 + 2 * i)", 1_200_000
    ),
    # every r a fresh int, at the widest register
    "_sampler": Row(
        _sampler, lambda i: _sampler(i + 1, 1 << 20), (factorizer_module, "ReadoutSampler"),
        "_sampler(n - 1 - i, 1 << 96)", 2_200_000,
    ),
    # lambda(n) annihilates every unit y
    "extract_factors": Row(
        extract_factors, lambda i: extract_factors(1, i + 1, 15), None,
        "extract_factors(i + 2, math.lcm(99706, 99838), n)", 2_200_000,
    ),
}
EVERY_ROW = pytest.mark.parametrize("name", list(MEMOS))
# factor's keyword arguments per session, in the order one process runs
# them: a bench run of 300 seeds at each N, whose last 50 run on memos the
# 250 before them filled (at 1328881 the split memo mostly misses there
# while the sampler memo hits), and a bench run of 187 with no ceiling at
# 24 qubits and then at 16, whose more than 4096 distinct trials fill the
# trial memo and evict from it while the sampler memo holds each order at
# both register sizes
WORKLOADS = {
    "one-size-per-n": [dict(n=n, seed=s) for n in (187, 1328881) for s in range(300)],
    "two-register-sizes": [
        dict(n=187, qubits=qubits, seed=s, order_ceiling=None)
        for qubits in (24, 16)
        for s in range(2000)
    ],
}
SESSIONS = WORKLOADS["one-size-per-n"]


def sessions(keys):
    """factor(**key) for each key, with the wall time zeroed."""
    return [dataclasses.replace(factor(**key), elapsed=0.0) for key in keys]


def clear_all_memos():
    for row in MEMOS.values():
        row.memo.cache_clear()


@pytest.fixture(scope="module")
def cold():
    """Each workload's sessions, each run on memos cleared just before it,
    as in a fresh process."""
    runs = {}
    for workload, keys in WORKLOADS.items():
        runs[workload] = []
        for key in keys:
            clear_all_memos()
            runs[workload] += sessions([key])
    assert runs["one-size-per-n"][9].total_trials == 10  # factor(187, seed=9) runs ten trials
    return runs


class TestMemos:
    @EVERY_ROW
    def test_warm_sessions_equal_cold_ones(self, name, cold):
        memo = MEMOS[name].memo
        # each session on the memos the sessions before it filled
        clear_all_memos()
        assert sessions(SESSIONS) == cold["one-size-per-n"]
        misses = memo.cache_info().misses
        assert sessions(SESSIONS) == cold["one-size-per-n"]
        assert memo.cache_info().misses == misses  # every lookup a hit

    @EVERY_ROW
    @pytest.mark.parametrize("workload", list(WORKLOADS))
    def test_sessions_agree_once_filled_past_the_bound(self, name, workload, cold):
        # unrelated keys fill the memo, and the sessions evict them
        memo, fill = MEMOS[name].memo, MEMOS[name].fill
        memo.cache_clear()
        for i in range(2 * _MEMO_ENTRIES):
            fill(i)
        filled = memo.cache_info()
        assert filled.currsize == _MEMO_ENTRIES
        assert sessions(WORKLOADS[workload]) == cold[workload]
        info = memo.cache_info()
        assert info.misses > filled.misses and info.currsize == _MEMO_ENTRIES

    @pytest.mark.parametrize("name", [name for name, row in MEMOS.items() if row.wrapped])
    def test_a_wrapped_global_sees_exactly_the_misses(self, name, monkeypatch):
        memo, (module, attr) = MEMOS[name].memo, MEMOS[name].wrapped
        calls, original = [], getattr(module, attr)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, attr, counted)
        memo.cache_clear()
        keys = [dict(n=n, seed=s) for n, seeds in ((187, 200), (1328881, 5)) for s in range(seeds)]
        first = sessions(keys)
        misses = memo.cache_info().misses
        assert len(calls) == misses
        # the same sessions again: every lookup a hit, and no call
        assert sessions(keys) == first
        info = memo.cache_info()
        assert len(calls) == info.misses == misses < info.hits

    @EVERY_ROW
    def test_full_in_a_fresh_process_within_its_bound(self, name):
        # a fresh process, so no free list left by earlier tests hides what
        # the memo allocates: 3 * _MEMO_ENTRIES distinct keys, at q = 2**96
        # and the ten-digit N = 99707 * 99839
        code = (
            "import math, tracemalloc\n"
            "from shorsim.factorizer import _sampler, extract_factors\n"
            "from shorsim.numtheory import _MEMO_ENTRIES, is_prime\n"
            "from shorsim.orderfinder import _trial\n"
            "from shorsim.sampler import RandomSource, _acceptance_height\n"
            "rng, n, q = RandomSource(7), 9954647173, 1 << 96\n"
            "tracemalloc.start()\n"
            f"for i in range(3 * _MEMO_ENTRIES): {MEMOS[name].call}\n"
            f"info = {name}.cache_info()\n"
            "print(tracemalloc.get_traced_memory()[0], info.misses, info.currsize)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        held, misses, size = map(int, out.split())
        assert misses == 3 * _MEMO_ENTRIES and size == _MEMO_ENTRIES
        assert held < MEMOS[name].bound


# sessions that between them write a shared factor alone (187, seed 0),
# ten trials (187, seed 9), a trivial split (187, seed 35), and an odd
# order before a shared factor (1328881, seed 5)
READ_BACK = [(187, 0), (187, 9), (187, 35), (1328881, 5)]
READER_MEMOS = (_trial, extract_factors)


def reader_misses():
    return [memo.cache_info().misses for memo in READER_MEMOS]


class TestReaderSharesTheMemos:
    def test_a_round_trip_after_its_session_adds_no_miss(self):
        totals = [0, 0]
        for n, seed in READ_BACK:
            history = factor(n, seed=seed)
            # one lookup per trial and per verified record
            lookups = [
                sum(len(a.trials) for a in history.attempts),
                sum(a.order is not None for a in history.attempts),
            ]
            before = [memo.cache_info() for memo in READER_MEMOS]
            assert from_jsonl(to_jsonl(history)) == history
            after = [memo.cache_info() for memo in READER_MEMOS]
            assert [a.misses for a in after] == [b.misses for b in before]
            assert [a.hits - b.hits for a, b in zip(after, before)] == lookups
            totals = [t + k for t, k in zip(totals, lookups)]
        assert all(totals)

    @pytest.mark.parametrize(
        "kind,field",
        [
            ("trial", "candidate"),
            ("trial", "verified"),
            ("attempt_verdict", "status"),
            ("attempt_verdict", "factors"),
        ],
    )
    def test_an_edited_stream_is_refused_alike_on_cold_and_warm_memos(self, kind, field):
        edited = 0
        for n, seed in READ_BACK:
            lines = to_jsonl(factor(n, seed=seed)).splitlines()
            for number, line in enumerate(lines, 1):
                event = json.loads(line)
                if event["event"] != kind:
                    continue
                if field == "candidate":
                    event[field] += 1
                elif field == "verified":
                    event[field] = not event[field]
                elif field == "status":
                    event[field] = "order_odd" if event[field] != "order_odd" else "success"
                else:
                    event[field] = [n, n]  # no split gives n twice
                text = "\n".join(lines[: number - 1] + [json.dumps(event)] + lines[number:])
                refusals = []
                for warm in (False, True):
                    clear_all_memos()
                    if warm:
                        factor(n, seed=seed)
                    misses = reader_misses()
                    with pytest.raises(TranscriptError) as info:
                        from_jsonl(text)
                    # on the warm memos every lookup up to the refusal is a hit
                    assert (reader_misses() == misses) is warm
                    refusals.append((info.value.line, str(info.value)))
                assert refusals[0] == refusals[1]
                assert refusals[0][0] == number
                assert f"bad {kind!r} event: {field} " in refusals[0][1]
                edited += 1
        assert edited
