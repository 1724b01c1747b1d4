import copy
import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shorsim.factorizer as factorizer_module
import shorsim.orderfinder as orderfinder_module
from shorsim import TranscriptError, factor, from_jsonl, to_jsonl
from shorsim.factorizer import AttemptRecord, _sampler, _shared_factor, extract_factors
from shorsim.model import FactoringParams
from shorsim.numtheory import _MEMO_ENTRIES, is_prime
from shorsim.orderfinder import OrderResult, _trial, find_order
from shorsim.sampler import RandomSource, ReadoutSampler, _acceptance_height
from conftest import ScriptedRng, ScriptedSampler


def params_for(n, qubits, **kwargs):
    return FactoringParams(n, qubits, seed=0, **kwargs)


class TestFindOrder:
    def test_session_subcycle_base_505980(self):
        # four trials: two undershoots onto order 346, one onto 519, then
        # the full order 1038 verifies
        params = params_for(1328881, 41)
        readouts = [1671511896561, 1366445086543, 1135526459514, 2137586189645]
        trials = find_order(505980, params, ScriptedSampler(readouts), ScriptedRng(), 95)
        assert [dataclasses.astuple(t) for t in trials] == [
            (1671511896561, 346, False),
            (1366445086543, 346, False),
            (1135526459514, 519, False),
            (2137586189645, 1038, True),
        ]

    def test_session_subcycle_base_200298(self):
        params = params_for(1328881, 41)
        trials = find_order(200298, params, ScriptedSampler([656741049346]), ScriptedRng(), 100)
        assert [dataclasses.astuple(t) for t in trials] == [(656741049346, 519, True)]

    def test_budget_exhaustion_leaves_unverified_tail(self):
        # three trials spend the budget; the fourth readout is never drawn
        params = params_for(187, 16)
        sampler = ScriptedSampler([1, 1, 1, 1])
        trials = find_order(56, params, sampler, ScriptedRng(), 3)
        assert len(trials) == 3
        assert not any(t.verified for t in trials)
        assert sampler.readouts == [1]

    def test_trivial_order_one_base(self):
        # y = 1 has order 1: readout 0 extracts candidate 1, which verifies
        params = params_for(187, 16)
        sampler = ReadoutSampler(1, params.q)
        trials = find_order(1, params, sampler, RandomSource(3), 100)
        assert [dataclasses.astuple(t) for t in trials] == [(0, 1, True)]

    def test_real_sampler_small_case(self):
        # order of 7 mod 15 is 4; q = 256 puts all mass on multiples of 64
        params = params_for(15, 8)
        sampler = ReadoutSampler(4, params.q)
        trials = find_order(7, params, sampler, RandomSource(0), 100)
        assert trials[-1].verified
        assert trials[-1].candidate_order == 4
        assert all(t.readout % 64 == 0 for t in trials)

    @given(st.integers(0, 518))
    @settings(max_examples=120, deadline=None)
    def test_dominant_readout_outcome_is_decided_by_gcd(self, m):
        # feeding the peak readout nearest m*q/r: the extracted candidate
        # is r/gcd(m, r) and verification succeeds exactly when gcd is 1
        r, n, q = 519, 1328881, 1 << 41
        params = params_for(n, 41)
        c = (2 * m * q + r - 1) // (2 * r)
        trials = find_order(200298, params, ScriptedSampler([c]), ScriptedRng(), 1)
        g = math.gcd(m, r)
        assert trials[0].candidate_order == r // g
        assert trials[0].verified == (g == 1)


class TestOrderResult:
    """The trial is a frozen, hashable dataclass whose candidate and verdict
    its constructor derives from the readout: OrderResult(readout, y, q,
    n)."""

    def trial(self, readout=2137586189645, y=505980) -> OrderResult:
        return OrderResult(readout, y, 1 << 41, 1328881)

    @pytest.mark.parametrize(
        "readout,y,candidate,verified",
        [
            (2137586189645, 505980, 1038, True),
            (1671511896561, 505980, 346, False),
            (656741049346, 200298, 519, True),
            (0, 505980, 1, False),
        ],
    )
    def test_constructor_derives_candidate_and_verdict(self, readout, y, candidate, verified):
        trial = self.trial(readout=readout, y=y)
        assert (trial.candidate_order, trial.verified) == (candidate, verified)

    def test_derived_fields_cannot_be_passed(self):
        with pytest.raises(TypeError):
            OrderResult(2137586189645, 505980, 1 << 41, 1328881, candidate_order=1038)
        with pytest.raises(TypeError):
            OrderResult(2137586189645, 505980, 1 << 41, 1328881, verified=True)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(self.trial(), y=505980, q=1 << 41, n=1328881, verified=False)
        with pytest.raises(ValueError, match="InitVar 'y' must be specified"):
            dataclasses.replace(self.trial())
        # replace runs the constructor again, so the verdict follows the readout
        again = dataclasses.replace(self.trial(), readout=0, y=505980, q=1 << 41, n=1328881)
        assert again == self.trial(readout=0)

    def test_a_hand_built_verdict_cannot_disagree_with_its_readout(self):
        # a trial once passed its candidate and verdict by hand, so readout 0
        # could claim candidate 16, verified for 56 mod 187, and the record
        # a success that from_jsonl refuses; readout 0 gives candidate 1
        with pytest.raises(TypeError):
            AttemptRecord(56, (OrderResult(0, 16, True),), 187)
        trial = OrderResult(0, 56, 1 << 16, 187)
        assert (trial.candidate_order, trial.verified) == (1, False)
        assert AttemptRecord(56, (trial,), 187).order is None

    @pytest.mark.parametrize("readout", [True, 0.0, "0"])
    def test_a_readout_that_is_not_an_int_is_refused(self, readout):
        # a bool readout was once written as "readout": true, which
        # from_jsonl refuses
        with pytest.raises(TypeError, match=f"^readout must be an int, not {type(readout).__name__}$"):
            self.trial(readout=readout)

    def test_frozen(self):
        trial = self.trial()
        for name in ("readout", "candidate_order", "verified", "y"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trial, name, 1)

    def test_fields_equality_hash_and_repr(self):
        trial = self.trial()
        names = ["readout", "candidate_order", "verified"]
        assert [f.name for f in dataclasses.fields(trial)] == names
        assert dataclasses.astuple(trial) == (2137586189645, 1038, True)
        assert trial == self.trial() and hash(trial) == hash(self.trial())
        assert trial != self.trial(readout=0)
        # y is not stored: a base of the same order verifies the same readout
        assert self.trial(y=205920) == trial
        assert repr(trial) == (
            "OrderResult(readout=2137586189645, candidate_order=1038, verified=True)"
        )

    def test_survives_pickle_and_deepcopy(self):
        trial = self.trial()
        for twin in (pickle.loads(pickle.dumps(trial)), copy.deepcopy(trial)):
            assert twin == trial
            assert (twin.candidate_order, twin.verified) == (1038, True)


def sessions(keys):
    """factor(n, seed=s) for each (n, s), with the wall time zeroed."""
    return [dataclasses.replace(factor(n, seed=s), elapsed=0.0) for n, s in keys]


class TestTrialMemo:
    """The memo of trials and the memo of is_prime change what a session
    costs, never what it returns, and stay bounded."""

    SESSIONS = [(187, s) for s in range(40)] + [(1328881, s) for s in range(5)]

    def test_warm_sessions_equal_cold_ones(self):
        cold = []
        for key in self.SESSIONS:
            _trial.cache_clear()
            is_prime.cache_clear()
            cold += sessions([key])
        assert cold[9].total_trials == 10  # factor(187, seed=9) runs ten trials
        sessions(self.SESSIONS)
        misses = _trial.cache_info().misses, is_prime.cache_info().misses
        warm = sessions(self.SESSIONS)
        # every trial and every primality test a hit
        assert (_trial.cache_info().misses, is_prime.cache_info().misses) == misses
        assert warm == cold
        # a memo filled past its bound with unrelated trials evicts them
        # while the sessions run, and still gives the same sessions
        _trial.cache_clear()
        for c in range(2 * _MEMO_ENTRIES):
            _trial(c, 7, 1 << 20, 15)
        filled = _trial.cache_info()
        assert filled.currsize == _MEMO_ENTRIES
        assert sessions(self.SESSIONS) == cold
        info = _trial.cache_info()
        assert info.misses > filled.misses and info.currsize == _MEMO_ENTRIES

    def test_a_wrapped_convergents_sees_exactly_the_misses(self, monkeypatch):
        calls = []
        convergents = orderfinder_module.convergents

        def counted(c, q, bound):
            calls.append((c, q, bound))
            return convergents(c, q, bound)

        monkeypatch.setattr(orderfinder_module, "convergents", counted)
        _trial.cache_clear()
        keys = [(187, s) for s in range(200)]
        first = sessions(keys)
        misses = _trial.cache_info().misses
        assert len(calls) == misses
        # the same sessions again: every trial a hit, and no call
        assert sessions(keys) == first
        info = _trial.cache_info()
        assert len(calls) == info.misses == misses < info.hits

    def test_a_bool_readout_is_refused_after_its_int(self):
        # True == 1 and hashes the same: only a typed memo keeps True out of
        # the record of readout 1, so find_order still refuses it
        params = FactoringParams(187, 16, 0)
        _trial(1, 56, params.q, 187)
        with pytest.raises(TypeError, match="^readout must be an int, not bool$"):
            find_order(56, params, ScriptedSampler([True]), ScriptedRng(), 1)

    def test_from_jsonl_derives_every_trial_it_reads(self):
        history = factor(1328881, seed=3)
        text = to_jsonl(history)
        before = _trial.cache_info()
        assert from_jsonl(text) == history
        assert _trial.cache_info() == before

    def test_full_at_the_widest_register_in_about_two_megabytes(self):
        # a fresh process, so no free list left by earlier tests hides what
        # the memo allocates: 3 * _MEMO_ENTRIES distinct trials at q = 2**96,
        # each readout a fresh 96-bit int; measured 1.65 MB on CPython 3.11,
        # 1.62 MB on 3.12 and 1.88 MB on 3.10, whose records keep their
        # fields in a dict of their own
        code = (
            "import tracemalloc\n"
            "from shorsim.numtheory import _MEMO_ENTRIES\n"
            "from shorsim.orderfinder import _trial\n"
            "from shorsim.sampler import RandomSource\n"
            "rng, q = RandomSource(7), 1 << 96\n"
            "tracemalloc.start()\n"
            "for _ in range(3 * _MEMO_ENTRIES):\n"
            "    _trial(rng.getrandbits(96), 2, q, 9954647173)\n"
            "info = _trial.cache_info()\n"
            "print(tracemalloc.get_traced_memory()[0], info.misses, info.currsize)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        held, misses, size = map(int, out.split())
        assert misses == 3 * _MEMO_ENTRIES and size == _MEMO_ENTRIES
        assert held < 2_200_000


# the memos of factorizer, each with a call that fills it with keys no
# session of SESSIONS looks up
BASE_MEMOS = {
    "sampler": (_sampler, lambda i: _sampler(i + 1, 1 << 20)),
    "record": (_shared_factor, lambda i: _shared_factor(2 * i + 2, 1 << 40)),
    "split": (extract_factors, lambda i: extract_factors(1, i + 1, 15)),
}


def clear_all_memos():
    for memo in (_trial, is_prime, _acceptance_height, _sampler, _shared_factor, extract_factors):
        memo.cache_clear()


class TestBaseMemos:
    """The memos of each base's sampler, shared-factor record and split
    change what a session costs, never what it returns, and stay bounded."""

    SESSIONS = TestTrialMemo.SESSIONS

    def misses(self):
        return [memo.cache_info().misses for memo, _ in BASE_MEMOS.values()]

    def test_warm_sessions_equal_cold_ones(self):
        cold = []
        for key in self.SESSIONS:
            clear_all_memos()
            cold += sessions([key])
        sessions(self.SESSIONS)
        misses = self.misses()
        assert sessions(self.SESSIONS) == cold
        # every sampler, record and split a hit
        assert self.misses() == misses
        # each memo filled past its bound with unrelated keys evicts them
        # while the sessions run, and still gives the same sessions
        for name, (memo, fill) in BASE_MEMOS.items():
            memo.cache_clear()
            for i in range(2 * _MEMO_ENTRIES):
                fill(i)
            filled = memo.cache_info()
            assert filled.currsize == _MEMO_ENTRIES, name
            assert sessions(self.SESSIONS) == cold, name
            info = memo.cache_info()
            assert info.misses > filled.misses and info.currsize == _MEMO_ENTRIES, name

    def test_a_wrapped_sampler_class_sees_exactly_the_misses(self, monkeypatch):
        built = []

        def counted(r, q):
            built.append((r, q))
            return ReadoutSampler(r, q)

        monkeypatch.setattr(factorizer_module, "ReadoutSampler", counted)
        _sampler.cache_clear()
        keys = [(187, s) for s in range(200)] + [(1328881, s) for s in range(5)]
        first = sessions(keys)
        misses = _sampler.cache_info().misses
        assert len(built) == len(set(built)) == misses
        # the same sessions again: every sampler a hit, and none built
        assert sessions(keys) == first
        info = _sampler.cache_info()
        assert len(built) == info.misses == misses < info.hits

    def test_a_float_order_is_refused_after_its_int(self):
        # 2.0 == 2 and hashes the same: only a typed memo keeps (4, 2.0, 15)
        # out of the entry of (4, 2, 15), so the split still raises
        assert extract_factors(4, 2, 15)[1] == (5, 3)
        with pytest.raises(TypeError, match="pow"):
            extract_factors(4, 2.0, 15)

    @pytest.mark.parametrize("n,seed", [(187, 9), (187, 35), (1328881, 3)])
    @pytest.mark.parametrize("field", ["status", "factors"])
    def test_an_edited_verdict_is_refused_on_a_warm_split_memo(self, n, seed, field):
        lines = to_jsonl(factor(n, seed=seed)).splitlines()
        for number, line in enumerate(lines, 1):
            event = json.loads(line)
            if event["event"] != "attempt_verdict":
                continue
            if field == "status":
                event["status"] = "order_odd" if event["status"] != "order_odd" else "success"
            else:
                event["factors"] = [1, n]
            edited = lines.copy()
            edited[number - 1] = json.dumps(event, sort_keys=True)
            text = "\n".join(edited)
            refusals = []
            for warm in (False, True):
                extract_factors.cache_clear()
                if warm:
                    factor(n, seed=seed)
                before = extract_factors.cache_info()
                with pytest.raises(TranscriptError) as info:
                    from_jsonl(text)
                after = extract_factors.cache_info()
                # the reader's splits are all hits once the session has run
                assert after.misses == before.misses if warm else after.misses > before.misses
                refusals.append((info.value.line, str(info.value)))
            assert refusals[0] == refusals[1]
            assert refusals[0][0] == number and f"bad 'attempt_verdict' event: {field}" in refusals[0][1]

    @pytest.mark.parametrize(
        "memo,call",
        [
            # every r a fresh int, at the widest register
            ("_sampler", "_sampler(n - 1 - i, 1 << 96)"),
            # multiples of the prime 99707, each record with fresh factor ints
            ("_shared_factor", "_shared_factor(99707 * (i + 1), n)"),
            # lambda(n) annihilates every unit y
            ("extract_factors", "extract_factors(i + 2, math.lcm(99706, 99838), n)"),
        ],
        ids=["sampler", "record", "split"],
    )
    def test_full_in_about_two_megabytes(self, memo, call):
        # a fresh process, so no free list left by earlier tests hides what
        # the memo allocates, at the ten-digit N = 99707 * 99839: 3 *
        # _MEMO_ENTRIES distinct keys
        code = (
            "import math, tracemalloc\n"
            "from shorsim.numtheory import _MEMO_ENTRIES\n"
            "from shorsim.factorizer import _sampler, _shared_factor, extract_factors\n"
            "n = 9954647173\n"
            "tracemalloc.start()\n"
            f"for i in range(3 * _MEMO_ENTRIES): {call}\n"
            f"info = {memo}.cache_info()\n"
            "print(tracemalloc.get_traced_memory()[0], info.misses, info.currsize)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        held, misses, size = map(int, out.split())
        assert misses == 3 * _MEMO_ENTRIES and size == _MEMO_ENTRIES
        assert held < 2_200_000
