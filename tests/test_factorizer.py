import copy
import dataclasses
import inspect
import math
import pickle
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shorsim.factorizer
from shorsim import numtheory
from shorsim.factorizer import (
    AttemptRecord,
    FactoringHistory,
    Outcome,
    extract_factors,
    factor,
    pick_y,
    run_session,
)
from shorsim.model import FactoringParams, InputTooLarge, PrimeInput
from shorsim.numtheory import multiplicative_order
from shorsim.orderfinder import OrderResult
from shorsim.sampler import RandomSource
from shorsim.transcript import render_text, to_jsonl
from conftest import (
    PINNED_OUTPUTS,
    ScriptedRng,
    brute_order,
    chunk_loop,
    has_tables,
    order_path,
    output_digests,
    reference_events,
    reference_session,
    reference_text,
    uniforms_for,
)

# y with order 1278 mod 1328881 (order 1 mod 1039, primitive mod 1279)
LONG_ORDER_BASE = 874839


class TestExtractFactors:
    def test_session_success_pair(self):
        outcome, pair = extract_factors(205920, 1038, 1328881)
        assert outcome is Outcome.SUCCESS
        assert pair == (1039, 1279)  # gcd(x+1, N) first, then gcd(x-1, N)

    def test_session_trivial_pair(self):
        # x = 505980**519 is N-1, so the split collapses to (N, 1)
        outcome, pair = extract_factors(505980, 1038, 1328881)
        assert outcome is Outcome.TRIVIAL_FACTORS
        assert pair == (1328881, 1)

    def test_session_odd_order(self):
        outcome, pair = extract_factors(200298, 519, 1328881)
        assert outcome is Outcome.ORDER_ODD
        assert pair is None

    def test_small_case(self):
        outcome, pair = extract_factors(7, 4, 15)
        assert outcome is Outcome.SUCCESS
        assert set(pair) == {3, 5}

    def test_multiple_of_order_also_works(self):
        # 2*order is just as good as long as it annihilates y: here
        # x = 56**16 is 1, so the split is gcd(2, 187) and gcd(0, 187)
        outcome, pair = extract_factors(56, 32, 187)
        assert outcome is Outcome.TRIVIAL_FACTORS
        assert pair == (1, 187)

    def test_oracle_only_success_fraction(self):
        # over seeded random coprime bases the even-order split succeeds
        # well over half the time for a product of two odd primes
        n = 1328881
        rng = RandomSource(8)
        successes = evaluated = 0
        while evaluated < 200:
            y = chunk_loop(rng, 2, n - 1)
            if math.gcd(y, n) != 1:
                continue
            evaluated += 1
            outcome, _ = extract_factors(y, multiplicative_order(y, n), n)
            if outcome is Outcome.SUCCESS:
                successes += 1
        assert successes / evaluated > 0.4


Q41 = 1 << 41  # the safe register of 1328881
# the verified trial of a trivial split of 1328881: 505980**519 is N - 1
TRIVIAL_TRIAL = OrderResult(2137586189645, 505980, Q41, 1328881)


class TestAttemptRecord:
    """The record is a frozen, hashable dataclass whose verdict its
    constructor derives: AttemptRecord(y, trials, n, rejected=())."""

    def record(self, y=505980, trials=(TRIVIAL_TRIAL,), n=1328881, rejected=()) -> AttemptRecord:
        return AttemptRecord(y, trials, n, rejected)

    def test_frozen(self):
        record = AttemptRecord(33, (), 187)
        for name in ("y", "outcome", "order", "trials", "factors", "rejected", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del record.y

    @pytest.mark.parametrize("y", [True, 33.0, "33"])
    def test_a_base_that_is_not_an_int_is_refused(self, y):
        # a bool y was once written as "y": true, which from_jsonl refuses
        with pytest.raises(TypeError, match=f"^y must be an int, not {type(y).__name__}$"):
            AttemptRecord(y, (), 187)

    @pytest.mark.parametrize(
        "rejected,message",
        [
            pytest.param([56], "rejected must be a tuple of ints, not [56]", id="list"),
            pytest.param((56, True), "rejected must be a tuple of ints, not (56, True)", id="bool"),
            pytest.param((56.0, 3), "rejected must be a tuple of ints, not (56.0, 3)", id="float"),
        ],
    )
    def test_rejected_that_is_not_a_tuple_of_ints_is_refused(self, rejected, message):
        # to_jsonl writes each rejected base through str, as true or 56.0
        # for these, which from_jsonl refuses
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            AttemptRecord(33, (), 187, rejected)

    @pytest.mark.parametrize(
        "trials,message",
        [
            pytest.param(
                # readout 1 would give candidate 1, not 2, so the stream of the
                # success this forged trial made was refused on its line 4
                (SimpleNamespace(readout=1, candidate_order=2, verified=True, y=120, q=1 << 16,
                                 n=187),),
                "a trial of 120 is a SimpleNamespace, not an OrderResult", id="look-alike",
            ),
            pytest.param(
                [OrderResult(32768, 120, 1 << 16, 187)], "trials must be a tuple, not list",
                id="list",
            ),
            pytest.param(
                # a subclass may derive its fields otherwise
                (type("Trial", (OrderResult,), {})(32768, 120, 1 << 16, 187),),
                "a trial of 120 is a Trial, not an OrderResult", id="subclass",
            ),
            pytest.param(None, "trials must be a tuple, not NoneType", id="none"),
        ],
    )
    def test_trials_that_are_not_a_tuple_of_order_results_are_refused(self, trials, message):
        # a list made a record that could not be hashed
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            AttemptRecord(120, trials, 187)
        assert AttemptRecord(120, (OrderResult(32768, 120, 1 << 16, 187),), 187).factors == (
            11, 17
        )

    @pytest.mark.parametrize(
        "y,rejected,message",
        [
            pytest.param(198, (), "y 198 is not in [2, 187)", id="y-above-n"),
            pytest.param(187, (), "y 187 is not in [2, 187)", id="y-at-n"),
            pytest.param(1, (), "y 1 is not in [2, 187)", id="y-one"),
            pytest.param(0, (), "y 0 is not in [2, 187)", id="y-zero"),
            pytest.param(33, (56, 0), "rejected base 0 is not in [2, 187)", id="rejected-zero"),
            pytest.param(33, (-3,), "rejected base -3 is not in [2, 187)", id="rejected-negative"),
            pytest.param(33, (1, 56), "rejected base 1 is not in [2, 187)", id="rejected-one"),
            pytest.param(33, (187,), "rejected base 187 is not in [2, 187)", id="rejected-at-n"),
            pytest.param(
                33, (2, 186, 2**70), f"rejected base {2**70} is not in [2, 187)",
                id="rejected-far-above-n",
            ),
        ],
    )
    def test_base_outside_the_range_is_refused(self, y, rejected, message):
        # to_jsonl would write the base, which from_jsonl refuses on its line
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AttemptRecord(y, (), 187, rejected)

    def test_defaults(self):
        # only rejected has a default, and nothing derived can be passed
        assert AttemptRecord(33, (), 187).rejected == ()
        with pytest.raises(TypeError):
            AttemptRecord(33, ())
        with pytest.raises(TypeError):
            AttemptRecord(33, (), 187, outcome=Outcome.SHARED_FACTOR)
        with pytest.raises(TypeError):
            AttemptRecord(33, Outcome.SHARED_FACTOR, (), 187)

    @pytest.mark.parametrize(
        "y,trials,n,outcome,order,factors",
        [
            pytest.param(33, (), 187, Outcome.SHARED_FACTOR, None, (11, 17), id="shared-factor"),
            pytest.param(
                505980, (TRIVIAL_TRIAL,), 1328881, Outcome.TRIVIAL_FACTORS, 1038, (1328881, 1),
                id="trivial-split",
            ),
            pytest.param(
                205920, (OrderResult(1535926647664, 205920, Q41, 1328881),), 1328881,
                Outcome.SUCCESS, 1038, (1039, 1279), id="success",
            ),
            pytest.param(
                200298, (OrderResult(656741049346, 200298, Q41, 1328881),), 1328881,
                Outcome.ORDER_ODD, 519, None, id="odd-order",
            ),
            pytest.param(
                56, (OrderResult(1, 56, 1 << 16, 187),) * 2, 187,
                Outcome.TRIAL_BUDGET_EXHAUSTED, None, None, id="budget-exhausted",
            ),
        ],
    )
    def test_constructor_derives_the_verdict(self, y, trials, n, outcome, order, factors):
        record = AttemptRecord(y, trials, n)
        assert (record.outcome, record.order, record.factors) == (outcome, order, factors)

    @pytest.mark.parametrize(
        "y,trials,message",
        [
            pytest.param(35, (), "y 35 shares no factor with 187", id="shared-factor-with-gcd-1"),
            pytest.param(
                # a trial built for y = 69, of order 5: readout 4369 gives 1/15,
                # which verifies for 69 and would not annihilate 35
                35, (OrderResult(4369, 69, 1 << 16, 187),),
                "a trial of 69 mod 187 is not one of 35 mod 187",
                id="verified-candidate-does-not-annihilate-y",
            ),
            pytest.param(
                35, (OrderResult(0, 35, 1 << 16, 221),),
                "a trial of 35 mod 221 is not one of 35 mod 187",
                id="trial-for-another-n",
            ),
            pytest.param(
                # readout 819 gives 1/80, which verifies, and readout 0 gives
                # 1, which does not: no trial follows a verified one
                35, (OrderResult(819, 35, 1 << 16, 187), OrderResult(0, 35, 1 << 16, 187)),
                "a trial of 35 before its last is verified",
                id="verified-trial-before-the-last",
            ),
            pytest.param(
                # pick_y ends the session on a base that shares a factor with
                # n, before any trial
                11, (OrderResult(0, 11, 1 << 16, 187),),
                "y 11 shares a factor with 187, gcd 11, so no trial runs on it",
                id="trials-on-a-base-sharing-a-factor",
            ),
        ],
    )
    def test_constructor_refuses_a_verdict_no_session_reaches(self, y, trials, message):
        # gcd(35, 187) = 1, and the order of 35 mod 187 is 80; gcd(11, 187) = 11
        with pytest.raises(ValueError, match=f"^{message}$"):
            AttemptRecord(y, trials, 187)

    @given(st.integers(2, 1000), st.integers(2, 1000), st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_base_sharing_a_factor_is_refused_with_a_trial(self, g, m, data):
        n = g * m
        y = g * data.draw(st.integers(1, m - 1))  # in [2, n) with gcd(y, n) >= g
        q = 1 << max(n.bit_length() * 2, 8)
        trial = OrderResult(data.draw(st.integers(0, q - 1)), y, q, n)
        assert not trial.verified  # no power of y is 1 mod n
        with pytest.raises(ValueError, match=f"^y {y} shares a factor with {n}, gcd "):
            AttemptRecord(y, (trial,), n)

    def test_equality_and_hash(self):
        assert self.record() == self.record()
        assert hash(self.record()) == hash(self.record())
        other = OrderResult(1135526459514, 505980, Q41, 1328881)
        assert self.record() != self.record(trials=(other,))
        assert len({self.record(), self.record(), self.record(y=33, trials=(), n=187)}) == 2
        shared = AttemptRecord(33, (), 187)
        assert shared == AttemptRecord(y=33, trials=(), n=187)
        assert hash(shared) == hash(AttemptRecord(33, (), 187))
        # the rejections are part of the pick
        assert shared != AttemptRecord(33, (), 187, (56,))
        assert AttemptRecord(33, (), 187, (56,)) == AttemptRecord(33, (), 187, rejected=(56,))

    def test_not_equal_to_its_values(self):
        record = self.record()
        assert record != dataclasses.astuple(record)
        assert record != (
            record.y, record.outcome, record.order, record.trials, record.factors, record.rejected
        )
        assert record != dataclasses.asdict(record)

    def test_repr(self):
        assert repr(AttemptRecord(33, (), 187)) == (
            "AttemptRecord(y=33, outcome=<Outcome.SHARED_FACTOR: "
            "'shared_factor_shortcut'>, order=None, trials=(), factors=(11, 17), n=187, "
            "rejected=())"
        )
        assert repr(self.record(rejected=(874839,))) == (
            "AttemptRecord(y=505980, outcome=<Outcome.TRIVIAL_FACTORS: 'trivial_factors'>, "
            "order=1038, trials=(OrderResult(readout=2137586189645, "
            "candidate_order=1038, verified=True, y=505980, q=2199023255552, n=1328881),), "
            "factors=(1328881, 1), n=1328881, rejected=(874839,))"
        )

    def test_survives_pickle_and_deepcopy(self):
        for record in (self.record(rejected=(874839,)), AttemptRecord(33, (), 187)):
            for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
                assert twin == record
                assert (twin.outcome, twin.order, twin.factors) == (
                    record.outcome, record.order, record.factors
                )

    def test_dataclass_helpers(self):
        record = self.record()
        names = ["y", "outcome", "order", "trials", "factors", "n", "rejected"]
        assert [f.name for f in dataclasses.fields(record)] == names
        # replace re-runs the constructor on the stored n, and the derived
        # fields cannot be given
        assert dataclasses.replace(record, n=1328881) == record
        assert dataclasses.replace(record, y=33, trials=(), n=187) == AttemptRecord(33, (), 187)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(record, n=1328881, order=519)
        assert dataclasses.replace(record) == record
        assert dataclasses.replace(record, rejected=(874839,)) == self.record(rejected=(874839,))
        assert dataclasses.asdict(record) == {
            "y": 505980,
            "outcome": Outcome.TRIVIAL_FACTORS,
            "order": 1038,
            "trials": ({"readout": 2137586189645, "candidate_order": 1038, "verified": True,
                        "y": 505980, "q": Q41, "n": 1328881},),
            "factors": (1328881, 1),
            "n": 1328881,
            "rejected": (),
        }
        assert dataclasses.astuple(record)[:3] == (505980, Outcome.TRIVIAL_FACTORS, 1038)


def scripted_bases(n: int, *ys: int) -> ScriptedRng:
    """ScriptedRng from which pick_y draws the bases ys of [2, n - 1] in turn."""
    return ScriptedRng(uniforms=[u for y in ys for u in uniforms_for(y, 2, n - 1)])


class TestPickY:
    def test_shared_factor_hit(self):
        # the record of a shared factor carries the pick's rejections
        hit = pick_y(187, scripted_bases(187, 56, 33), 13)
        assert hit == AttemptRecord(33, (), 187, (56,))
        assert (hit.outcome, hit.factors) == (Outcome.SHARED_FACTOR, (11, 17))
        assert pick_y(187, scripted_bases(187, 33), 13) == AttemptRecord(33, (), 187)

    def test_coprime_base_comes_with_exact_order(self):
        assert pick_y(187, scripted_bases(187, 56), 187) == (56, 16, ())

    def test_ceiling_rejections_are_recorded(self):
        # order 16 exceeds the ceiling 13
        assert pick_y(187, scripted_bases(187, 56, 186), 13) == (186, 2, (56,))

    def test_long_order_base_rejected_under_default_ceiling(self):
        ceiling = math.isqrt(1328881)  # 1152
        assert multiplicative_order(LONG_ORDER_BASE, 1328881) == 1278
        got = pick_y(1328881, scripted_bases(1328881, LONG_ORDER_BASE, 205920), ceiling)
        assert got == (205920, 1038, (LONG_ORDER_BASE,))

    @pytest.mark.parametrize(
        "n,tables,rejected,shared",
        [
            pytest.param(187, True, [56, 3], 33, id="tables"),
            pytest.param(187, False, [56, 3], 33, id="steps-odd-n"),
            pytest.param(374, False, [3, 23], 10, id="steps-even-n"),
        ],
    )
    def test_shared_factor_on_either_order_path(self, n, tables, rejected, shared):
        # the order test raises NotCoprime for the shared-factor base, on the
        # table path from a 0 entry and on the steps path from its own gcd
        order_path(n, tables)
        rng = scripted_bases(n, *rejected, shared, 21)
        hit = pick_y(n, rng, 13)
        g = math.gcd(shared, n)
        assert g > 1
        assert hit == AttemptRecord(shared, (), n, tuple(rejected))
        assert (hit.outcome, hit.factors) == (Outcome.SHARED_FACTOR, (g, n // g))
        # no base is taken past the one returned
        assert rng.uniforms == uniforms_for(21, 2, n - 1)
        assert has_tables(n) == tables
        numtheory._ORDERS.clear()


class TestFactor:
    @pytest.mark.parametrize(
        "n,qubits,expected",
        [(15, 8, {3, 5}), (187, 16, {11, 17}), (1328881, 41, {1039, 1279})],
    )
    def test_finds_the_factors(self, n, qubits, expected):
        history = factor(n, qubits, seed=7)
        assert history.succeeded
        assert set(history.factors) == expected
        assert history.warnings == ()

    def test_safe_register_is_the_default(self):
        history = factor(15, seed=1)
        assert history.params.qubits == 8

    def test_replay_is_bit_identical_apart_from_wall_time(self):
        a = factor(187, 16, seed=123)
        b = factor(187, 16, seed=123)
        assert dataclasses.replace(a, elapsed=0.0) == dataclasses.replace(
            b, elapsed=0.0
        )

    @pytest.mark.parametrize("n,seed,jsonl_digest,text_digest", PINNED_OUTPUTS)
    def test_seeded_stream_is_the_same_from_the_order_tables(
        self, n, seed, jsonl_digest, text_digest
    ):
        # the pinned session, run with every order test on the prime-power
        # steps and then on the order tables
        digests = []
        for tables in (False, True):
            order_path(n, tables)
            digests.append(output_digests(factor(n, seed=seed)))
        numtheory._ORDERS.clear()
        assert digests == [(jsonl_digest, text_digest)] * 2

    def test_different_seeds_take_different_paths(self):
        paths = {
            tuple(y for a in factor(187, 16, seed=s).attempts for y in (*a.rejected, a.y))
            for s in range(6)
        }
        assert len(paths) > 1

    def test_attempt_bookkeeping_invariants(self):
        # the max_trials=2 sessions include ones that run out of budget after
        # two or more bases, so the count must run on across base changes
        histories = [factor(1328881, 41, seed=seed) for seed in range(8)]
        histories += [factor(1328881, 41, seed=s, max_trials=2) for s in range(40)]
        for history in histories:
            # every pick is a record, carrying its ceiling rejections
            assert all(type(a) is AttemptRecord for a in history.attempts)
            assert history.total_trials == sum(len(a.trials) for a in history.attempts)
            assert history.total_trials <= history.params.max_trials
            for a in history.attempts:
                if a.outcome in (
                    Outcome.SUCCESS,
                    Outcome.ORDER_ODD,
                    Outcome.TRIVIAL_FACTORS,
                ):
                    assert a.trials and a.trials[-1].verified
                    assert all(not t.verified for t in a.trials[:-1])
                    assert a.order == a.trials[-1].candidate_order
                elif a.outcome is Outcome.TRIAL_BUDGET_EXHAUSTED:
                    assert not a.trials or not a.trials[-1].verified
                else:
                    assert a.outcome is Outcome.SHARED_FACTOR
                    assert a.trials == ()
            if history.succeeded:
                last = history.attempts[-1]
                assert last.outcome in (Outcome.SUCCESS, Outcome.SHARED_FACTOR)
                f1, f2 = history.factors
                assert f1 > 1 and f2 > 1
                assert 1328881 % f1 == 0 and 1328881 % f2 == 0

    def test_shared_factor_shortcut_still_factors(self):
        # find a seed whose first usable draw shares a factor with N
        for seed in range(40):
            history = factor(1328881, 41, seed=seed)
            if history.attempts[-1].outcome is Outcome.SHARED_FACTOR:
                assert set(history.factors) == {1039, 1279}
                assert history.total_trials == 0
                return
        pytest.fail("no shortcut session found in 40 seeds")

    def test_budget_exhaustion_is_reported_honestly(self):
        for seed in range(30):
            history = factor(1328881, 41, seed=seed, max_trials=1)
            if not history.succeeded:
                assert history.failure is Outcome.TRIAL_BUDGET_EXHAUSTED
                assert history.total_trials == 1
                assert history.factors is None
                return
        pytest.fail("no failing session found in 30 seeds")

    def test_honest_mode_accepts_long_orders(self):
        history = factor(187, 16, seed=5, order_ceiling=None)
        assert history.succeeded
        assert not any(a.rejected for a in history.attempts)

    @pytest.mark.parametrize("last", [36, "36", None])
    def test_history_of_attempts_ending_on_no_record_is_refused(self, last):
        # no session ends on a ceiling rejection: a rejected base is carried
        # by the record of its pick, never an attempt of its own
        params = FactoringParams(187, None, 0)
        shared = AttemptRecord(33, (), 187)
        message = f"^attempts\\[1\\] is {re.escape(repr(last))}, not an AttemptRecord$"
        with pytest.raises(TypeError, match=message):
            FactoringHistory(params, (shared, last), 0.0)
        assert FactoringHistory(params, (AttemptRecord(33, (), 187, (36,)),), 0.0).factors == (11, 17)
        # nor does any session end with no attempt: to_jsonl would write a
        # stream that from_jsonl refuses
        ended = "no AttemptRecord ended the session: there are no attempts"
        with pytest.raises(ValueError, match=f"^{ended}$"):
            FactoringHistory(params, (), 0.0)

    def test_explicit_integer_ceiling(self):
        history = factor(187, 16, seed=5, order_ceiling=2)
        assert history.succeeded  # order-2 bases exist (y = 186) and split 187

    def test_multi_prime_modulus_warns_when_split_is_partial(self):
        # 105 = 3 * 5 * 7: gcd pairs often contain a composite cofactor
        seen_warning = False
        for seed in range(30):
            history = factor(105, seed=seed, order_ceiling=None)
            if history.succeeded:
                f1, f2 = history.factors
                assert f1 > 1 and f2 > 1
                assert 105 % f1 == 0 and 105 % f2 == 0
                if history.warnings:
                    seen_warning = True
        assert seen_warning

    def test_prime_input_rejected(self):
        with pytest.raises(PrimeInput):
            factor(1039, seed=0)

    def test_eleven_digit_input_rejected(self):
        with pytest.raises(InputTooLarge):
            factor(12345678901, seed=0)

    def test_input_past_the_int_to_str_limit_rejected(self):
        with pytest.raises(InputTooLarge, match="16610-bit"):
            factor(10**5000)

    def test_bool_ceiling_is_refused(self):
        with pytest.raises(TypeError, match="order_ceiling"):
            factor(187, 16, seed=1, order_ceiling=True)

    def test_float_trial_budget_is_refused(self):
        with pytest.raises(TypeError, match="max_trials must be an int"):
            factor(187, seed=1, max_trials=2.5)

    def test_run_session_refuses_params_that_are_not_factoring_params(self):
        with pytest.raises(TypeError, match="^params must be a FactoringParams, not SimpleNamespace$"):
            run_session(UNCHECKED_PARAMS)

    def test_tiny_register_cannot_stall(self):
        # a 2-qubit register can only accept orders up to q = 4, yet the
        # session still terminates (order-2 bases or a shared factor)
        history = factor(187, 2, seed=9, order_ceiling=None)
        assert history.succeeded or history.failure is not None


# FactoringParams(187, 16, 9)'s fields with a seed it refuses, unchecked
UNCHECKED_PARAMS = SimpleNamespace(
    n=187, q=65536, max_trials=100, qubits=16, seed=-1, order_ceiling=13, ceiling=13
)


# one seeded session per way a session ends: (factor kwargs, last outcome, warned)
SESSION_ENDS = [
    pytest.param(dict(n=187, qubits=16, seed=1), Outcome.SUCCESS, False, id="success"),
    pytest.param(dict(n=187, qubits=16, seed=0), Outcome.SHARED_FACTOR, False, id="shared-factor"),
    pytest.param(
        dict(n=1328881, qubits=41, seed=2, max_trials=1),
        Outcome.TRIAL_BUDGET_EXHAUSTED,
        False,
        id="budget-exhausted",
    ),
    # 105 = 3 * 5 * 7 splits as (35, 3), and 35 is composite
    pytest.param(dict(n=105, seed=1, order_ceiling=None), Outcome.SUCCESS, True, id="warnings"),
]


# records of 187 at L = 16: base 120, of order 2, split by readout 32768
# (candidate 2) in one trial; readout 0 gives candidate 1, which verifies
# for no base but 1, so base 56 spends a budget of one trial on it
SPLIT = AttemptRecord(120, (OrderResult(32768, 120, 1 << 16, 187),), 187)
UNVERIFIED_120 = OrderResult(0, 120, 1 << 16, 187)
BUDGET_SPENT = AttemptRecord(56, (OrderResult(0, 56, 1 << 16, 187),), 187)
# base 69 of 187, of order 5: readout 13107 gives 1/5, an odd order, so the
# session goes on
ODD_69 = AttemptRecord(69, (OrderResult(13107, 69, 1 << 16, 187),), 187)
# records of 15, where base 7 has order 4: readout 64 of 256 gives 1/4 and
# the split (5, 3); readout 0 gives 1, which does not verify
SPLIT_OF_15 = AttemptRecord(7, (OrderResult(64, 7, 1 << 8, 15),), 15)
BUDGET_SPENT_OF_15 = AttemptRecord(7, (OrderResult(0, 7, 1 << 8, 15),), 15)


def derived(history: FactoringHistory) -> tuple:
    return history.factors, history.failure, history.warnings


class TestFactoringHistory:
    @pytest.mark.parametrize("kwargs,last,warned", SESSION_ENDS)
    def test_constructor_derives_what_the_session_reported(self, kwargs, last, warned):
        history = factor(**kwargs)
        assert history.attempts[-1].outcome is last
        assert bool(history.warnings) is warned
        rebuilt = FactoringHistory(history.params, history.attempts, history.elapsed)
        assert rebuilt == history
        assert derived(rebuilt) == derived(history)

    @pytest.mark.parametrize("kwargs,last,warned", SESSION_ENDS)
    def test_survives_pickle_and_deepcopy(self, kwargs, last, warned):
        history = factor(**kwargs)
        for twin in (pickle.loads(pickle.dumps(history)), copy.deepcopy(history)):
            assert twin == history
            assert derived(twin) == derived(history)

    def test_replacing_the_attempts_rederives_the_outcome(self):
        # a session that spends its whole budget of two trials on its success
        history = factor(105, seed=1, order_ceiling=None, max_trials=2)
        assert history.succeeded and history.total_trials == 2
        end = history.attempts[-1]
        # the same trials with the last one unverified: readout 0 gives
        # candidate 1, which no base but 1 verifies, so the budget ran out
        unverified = OrderResult(0, end.y, history.params.q, 105)
        assert not unverified.verified
        cut = AttemptRecord(end.y, end.trials[:-1] + (unverified,), 105)
        failed = dataclasses.replace(history, attempts=history.attempts[:-1] + (cut,))
        assert derived(failed) == (None, Outcome.TRIAL_BUDGET_EXHAUSTED, ())
        assert dataclasses.replace(failed, attempts=history.attempts) == history

    @pytest.mark.parametrize(
        "elapsed,error",
        [
            (math.nan, ValueError),
            (-1.0, ValueError),
            (-0.0, ValueError),
            (math.inf, ValueError),
            (3, TypeError),
            (True, TypeError),
            ("1", TypeError),
        ],
    )
    def test_elapsed_that_no_session_takes_is_refused(self, elapsed, error):
        # to_jsonl would write a summary that from_jsonl refuses
        history = factor(187, seed=9)
        message = f"^elapsed {re.escape(repr(elapsed))} is not a float in \\[0, inf\\)$"
        with pytest.raises(error, match=message):
            dataclasses.replace(history, elapsed=elapsed)
        assert dataclasses.replace(history, elapsed=0.0).elapsed == 0.0

    @pytest.mark.parametrize("entry", [True, 36.0, "36", None])
    def test_attempt_that_is_not_a_record_is_refused(self, entry):
        # named by its position, after a record that ended the session
        history = factor(187, seed=11)
        message = f"^attempts\\[1\\] is {re.escape(repr(entry))}, not an AttemptRecord$"
        with pytest.raises(TypeError, match=message):
            dataclasses.replace(history, attempts=history.attempts[:1] + (entry,))

    def test_attempts_that_are_not_a_tuple_are_refused(self):
        # a list made a history that could not be hashed, and whose stream
        # read back as a history with a tuple, not equal to it
        history = factor(187, 16, 9)
        with pytest.raises(TypeError, match="^attempts must be a tuple, not list$"):
            FactoringHistory(history.params, list(history.attempts), 0.5)
        # nor does a subclass of the record stand in for one
        fake = type("Attempt", (AttemptRecord,), {})(33, (), 187)
        with pytest.raises(TypeError, match="^attempts\\[0\\] is .*, not an AttemptRecord$"):
            FactoringHistory(history.params, (fake,), 0.5)

    def test_params_that_are_not_factoring_params_are_refused(self):
        # the namespace's seed -1 is one FactoringParams refuses, and a
        # stream to_jsonl wrote for it would be refused by from_jsonl
        attempts = factor(187, 16, 9).attempts
        with pytest.raises(TypeError, match="^params must be a FactoringParams, not SimpleNamespace$"):
            FactoringHistory(UNCHECKED_PARAMS, attempts, 0.5)

    def test_derived_fields_cannot_be_passed(self):
        history = factor(187, 16, seed=1)
        head = (history.params, history.attempts, history.elapsed)
        with pytest.raises(TypeError):
            FactoringHistory(*head, total_trials=history.total_trials)
        with pytest.raises(TypeError):
            FactoringHistory(*head, factors=(1, 187))
        with pytest.raises(TypeError):
            FactoringHistory(*head, (1, 187), None)
        for name, value in (("warnings", ("x",)), ("total_trials", 99)):
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(history, **{name: value})

    @pytest.mark.parametrize(
        "max_trials,attempts,message",
        [
            pytest.param(
                100, (BUDGET_SPENT,), "the session stops without factors after 1 of 100 trials",
                id="budget-exhausted-early",
            ),
            pytest.param(
                1, (BUDGET_SPENT, AttemptRecord(120, SPLIT.trials, 187, (36,))),
                "base 120 comes after the session ended at trial 1",
                id="base-after-budget-exhausted",
            ),
            pytest.param(
                100, (SPLIT, SPLIT),
                "base 120 comes after the session ended at trial 1",
                id="base-after-success",
            ),
            pytest.param(
                100, (AttemptRecord(33, (), 187), AttemptRecord(33, (), 187, (36,))),
                "base 33 comes after the session ended at trial 0",
                id="rejection-after-shared-factor",
            ),
            pytest.param(
                100, (AttemptRecord(33, (), 187), SPLIT),
                "base 120 comes after the session ended at trial 0",
                id="base-after-shared-factor",
            ),
            pytest.param(
                1, (AttemptRecord(120, (UNVERIFIED_120, SPLIT.trials[0]), 187),),
                "the attempts run 2 trials, past max_trials 1",
                id="trials-past-max-trials",
            ),
            # a record built for another N: its verdict was derived for that
            # N, so the history would report 15's factors as 187's
            pytest.param(
                100, (ODD_69, AttemptRecord(3, (), 15)),
                "attempts[1] is a record for 15, not 187",
                id="foreign-shared-factor",
            ),
            pytest.param(
                100, (SPLIT_OF_15,), "attempts[0] is a record for 15, not 187",
                id="foreign-verified",
            ),
            pytest.param(
                2, (ODD_69, BUDGET_SPENT_OF_15), "attempts[1] is a record for 15, not 187",
                id="foreign-budget-exhausted",
            ),
            # a trial measured on another register: its readout and
            # candidate were derived for that q, which the stream's banner
            # would not give
            pytest.param(
                1, (AttemptRecord(56, (OrderResult(0, 56, 1 << 17, 187),), 187),),
                "attempts[0] has a trial for q 131072, not 65536",
                id="foreign-register",
            ),
            pytest.param(
                2, (ODD_69, AttemptRecord(120, (OrderResult(65536, 120, 1 << 17, 187),), 187)),
                "attempts[1] has a trial for q 131072, not 65536",
                id="foreign-register-verified",
            ),
        ],
    )
    def test_attempts_no_session_runs_are_refused(self, max_trials, attempts, message):
        params = FactoringParams(187, 16, 0, max_trials=max_trials)
        with pytest.raises(ValueError) as info:
            FactoringHistory(params, attempts, 0.0)
        assert str(info.value) == message

    @given(
        st.sampled_from([15, 21, 105, 187, 1328881]),
        st.sampled_from([1, 2, 5, 100]),
        st.sampled_from(["sqrt", None, 3]),
        st.integers(0, 2**64 - 1),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_only_a_whole_session_is_a_history(self, n, max_trials, order_ceiling, seed, data):
        # no attempt of a session leaves it ended before its last: a prefix
        # ends on an odd order or trivial split with budget left
        session = factor(n, seed=seed, max_trials=max_trials, order_ceiling=order_ceiling)
        k = data.draw(st.integers(0, len(session.attempts)), label="k")
        if k == len(session.attempts):
            history = FactoringHistory(session.params, session.attempts[:k], session.elapsed)
            assert history == session
            assert history.total_trials == sum(len(a.trials) for a in session.attempts)
        else:
            with pytest.raises(ValueError):
                FactoringHistory(session.params, session.attempts[:k], session.elapsed)


# one record of each class, every stored init field away from its default
RECORDS = [
    pytest.param(
        lambda: FactoringParams(187, 16, 5, max_trials=7, order_ceiling=13), id="FactoringParams"
    ),
    pytest.param(lambda: AttemptRecord(505980, (TRIVIAL_TRIAL,), 1328881, (874839,)),
                 id="AttemptRecord"),
    pytest.param(lambda: factor(187, seed=9), id="FactoringHistory"),
    pytest.param(lambda: TRIVIAL_TRIAL, id="OrderResult"),
]


class TestRecordConstructors:
    """Each record's constructor takes exactly its init fields, so a field
    added to a record or renamed cannot drift from a hand-written one."""

    @pytest.mark.parametrize("build", RECORDS)
    def test_signature_lists_the_init_fields(self, build):
        cls = type(build())
        # the fields and InitVars, in the generated constructor's order:
        # the keyword-only ones last
        declared = sorted(
            (f for f in cls.__dataclass_fields__.values() if f.init), key=lambda f: f.kw_only
        )
        expected = [
            (
                f.name,
                inspect.Parameter.KEYWORD_ONLY if f.kw_only
                else inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default,
            )
            for f in declared
        ]
        parameters = inspect.signature(cls).parameters.values()
        assert [(p.name, p.kind, p.default) for p in parameters] == expected

    @pytest.mark.parametrize("build", RECORDS)
    def test_every_field_is_stored_and_replaces_to_an_equal_record(self, build):
        record = build()
        fields = dataclasses.fields(record)
        assert set(vars(record)) == {f.name for f in fields}
        for f in fields:
            if f.init:
                assert dataclasses.replace(record, **{f.name: getattr(record, f.name)}) == record


def plain(history: FactoringHistory) -> tuple[list, int, tuple[int, int] | None]:
    """A history in reference_session's terms: each pick's rejections as
    bare ys, then its record."""
    attempts = []
    for a in history.attempts:
        attempts += a.rejected
        attempts.append((
            a.y,
            a.outcome.value,
            a.order,
            [(t.readout, t.candidate_order, t.verified) for t in a.trials],
            a.factors,
        ))
    return attempts, history.total_trials, history.factors


# odd, even, prime powers and products of three or more primes
COMPOSITES = [
    n for n in range(4, 10**4 + 1) if any(n % d == 0 for d in range(2, math.isqrt(n) + 1))
]


@st.composite
def small_sessions(draw) -> FactoringParams:
    # the small N draw their extreme bases often
    n = draw(st.sampled_from(COMPOSITES[:40]) | st.sampled_from(COMPOSITES))
    safe = (n * n - 1).bit_length()
    # a ceiling equal to some base's order puts bases on its edge
    y = draw(st.integers(2, n - 1), label="base of the ceiling")
    edge = st.just(brute_order(y, n)) if math.gcd(y, n) == 1 else st.nothing()
    return FactoringParams(
        n,
        draw(st.integers(1, safe + 2), label="qubits"),
        draw(st.integers(0, 2**64 - 1), label="seed"),
        max_trials=draw(st.integers(1, 5), label="max_trials"),
        order_ceiling=draw(st.sampled_from(["sqrt", None]) | st.integers(1, n) | edge),
    )


class TestReferenceSession:
    """Whole sessions against an independent second implementation of
    the classical half (conftest.reference_session)."""

    @given(small_sessions())
    @settings(max_examples=200, deadline=None)
    def test_session_is_the_reference_on_either_order_path(self, params):
        expected = reference_session(params)
        for tables in (False, True):
            order_path(params.n, tables)
            history = run_session(params)
            assert plain(history) == expected, tables
        # and its stream and transcript are the README's events and lines
        # of the session
        assert to_jsonl(history).splitlines() == reference_events(history)
        assert render_text(history) == reference_text(history)


class RandomOnlySource(RandomSource):
    """RandomSource whose getrandbits, which every integer method that
    random.Random defines draws from, raises."""

    built = 0

    def __init__(self, seed: int):
        super().__init__(seed)
        RandomOnlySource.built += 1

    def getrandbits(self, k: int) -> int:
        raise AssertionError("a session called a random.Random integer method")


# odd, even and prime-power N at sub-safe, safe and the largest L; the
# even N has no ceiling, so that not every session ends on a shared factor
@pytest.mark.parametrize("n,ceiling", [(1328881, "sqrt"), (2 * 1009, None), (1009**2, "sqrt")])
@pytest.mark.parametrize("qubits", ["sub-safe", "safe", 96])
def test_sessions_draw_integers_only_from_random(n, ceiling, qubits, monkeypatch):
    safe = (n * n - 1).bit_length()
    qubits = {"sub-safe": safe - 8, "safe": safe}.get(qubits, qubits)
    params = [FactoringParams(n, qubits, seed, order_ceiling=ceiling) for seed in range(3)]
    expected = [plain(run_session(p)) for p in params]
    assert any(trials for _, trials, _ in expected)  # the sampler drew too
    monkeypatch.setattr(shorsim.factorizer, "RandomSource", RandomOnlySource)
    built = RandomOnlySource.built
    assert [plain(run_session(p)) for p in params] == expected
    assert RandomOnlySource.built == built + len(params)
