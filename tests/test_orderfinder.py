import copy
import dataclasses
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim.factorizer import AttemptRecord
from shorsim.model import FactoringParams
from shorsim.orderfinder import OrderResult, _trial, find_order
from shorsim.sampler import RandomSource, ReadoutSampler
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
        assert [dataclasses.astuple(t)[:3] for t in trials] == [
            (1671511896561, 346, False),
            (1366445086543, 346, False),
            (1135526459514, 519, False),
            (2137586189645, 1038, True),
        ]
        # each trial stores the base, register and modulus it was measured for
        assert {dataclasses.astuple(t)[3:] for t in trials} == {(505980, 1 << 41, 1328881)}

    def test_session_subcycle_base_200298(self):
        params = params_for(1328881, 41)
        trials = find_order(200298, params, ScriptedSampler([656741049346]), ScriptedRng(), 100)
        assert [dataclasses.astuple(t) for t in trials] == [
            (656741049346, 519, True, 200298, 1 << 41, 1328881)
        ]

    def test_budget_exhaustion_leaves_unverified_tail(self):
        # three trials spend the budget; the fourth readout is never drawn
        params = params_for(187, 16)
        sampler = ScriptedSampler([1, 1, 1, 1])
        trials = find_order(56, params, sampler, ScriptedRng(), 3)
        assert len(trials) == 3
        assert not any(t.verified for t in trials)
        assert sampler.readouts == [1]

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
            dataclasses.replace(self.trial(), verified=False)
        # replace runs the constructor again on the stored y, q and n, so the
        # verdict follows the readout and the base
        assert dataclasses.replace(self.trial()) == self.trial()
        assert dataclasses.replace(self.trial(), readout=0) == self.trial(readout=0)
        assert not dataclasses.replace(self.trial(), y=505981).verified

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

    @pytest.mark.parametrize("name", ["y", "q", "n"])
    @pytest.mark.parametrize("value", [True, 36.0], ids=["bool", "float"])
    def test_a_field_that_is_not_an_int_is_named(self, name, value):
        # a float q once failed inside q & (q - 1), and a float n inside pow,
        # in words that named no field; a bool q of True was taken as 2**0
        args = dict(readout=0, y=36, q=1 << 16, n=187)
        args[name] = value
        for build in (OrderResult, _trial):
            with pytest.raises(TypeError, match=f"^{name} must be an int, not {type(value).__name__}$"):
                build(*args.values())

    @pytest.mark.parametrize(
        "args,message",
        [
            pytest.param((70000, 36, 1 << 16, 187), "require 0 <= c < q", id="readout-past-q"),
            pytest.param((1 << 16, 36, 1 << 16, 187), "require 0 <= c < q", id="readout-at-q"),
            pytest.param((-1, 36, 1 << 16, 187), "require 0 <= c < q", id="negative-readout"),
            pytest.param((8, 36, 8, 187), "require 0 <= c < q", id="readout-at-small-q"),
            pytest.param((0, 36, 0, 187), "require 0 <= c < q", id="empty-register"),
            pytest.param((5, 1000, 1 << 16, 187), "y 1000 is not in [2, 187)", id="y-past-n"),
            pytest.param((5, 187, 1 << 16, 187), "y 187 is not in [2, 187)", id="y-at-n"),
            pytest.param((0, 1, 1 << 16, 187), "y 1 is not in [2, 187)", id="y-of-order-one"),
            pytest.param((5, 36, 1 << 16, 1), "y 36 is not in [2, 1)", id="modulus-one"),
            pytest.param((3, 2, 16, 2), "y 2 is not in [2, 2)", id="modulus-two"),
            pytest.param((5, 36, 100, 187), "q must be a power of two", id="q-not-a-power"),
            pytest.param((5, 36, 3 << 16, 187), "q must be a power of two", id="q-three-powers"),
        ],
    )
    def test_a_trial_outside_its_rules_is_refused(self, args, message):
        # the one home of these rules: convergents and the stream's reader
        # trust them; the memo stores nothing for a call that raises, so it
        # raises again rather than return a stored trial
        for build in (OrderResult, _trial, _trial):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(*args)

    def test_frozen(self):
        trial = self.trial()
        for name in ("readout", "candidate_order", "verified", "y", "q", "n", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trial, name, 1)

    def test_fields_equality_hash_and_repr(self):
        trial = self.trial()
        names = ["readout", "candidate_order", "verified", "y", "q", "n"]
        assert [f.name for f in dataclasses.fields(trial)] == names
        assert dataclasses.astuple(trial) == (2137586189645, 1038, True, 505980, 1 << 41, 1328881)
        assert trial == self.trial() and hash(trial) == hash(self.trial())
        assert trial != self.trial(readout=0)
        # y is stored: a base of the same order verifies the same readout,
        # but its trial is another one
        other = self.trial(y=205920)
        assert (other.candidate_order, other.verified) == (1038, True) and other != trial
        assert repr(trial) == (
            "OrderResult(readout=2137586189645, candidate_order=1038, verified=True, "
            "y=505980, q=2199023255552, n=1328881)"
        )

    def test_survives_pickle_and_deepcopy(self):
        trial = self.trial()
        for twin in (pickle.loads(pickle.dumps(trial)), copy.deepcopy(trial)):
            assert twin == trial
            assert (twin.candidate_order, twin.verified) == (1038, True)

