import dataclasses
import hashlib
import math

import pytest

from shorsim import numtheory
from shorsim.factorizer import (
    AttemptRecord,
    Outcome,
    extract_factors,
    factor,
    pick_y,
)
from shorsim.model import InputTooLarge, PrimeInput
from shorsim.numtheory import multiplicative_order
from shorsim.orderfinder import OrderResult
from shorsim.sampler import RandomSource
from conftest import ScriptedRng, order_path

# sessions whose every base, outcome and order are pinned by a hash
PINNED_STREAMS = [
    (1328881, 0, "def5f78c71b2d7c7e06eb283aacaed6dcde4087b2260170cc87dd9b2dedb5832"),
    (25610987, 1, "2557daa5de9cd2c78f4bf6c5ca8ba81745f64509bbedf8a367cdb853261242bf"),
]



def pinned_view(attempts) -> list[tuple]:
    """(y, outcome, order) per attempt, a ceiling rejection as it was first
    pinned, when it was an order_ceiling_rejected record."""
    return [
        (a, "order_ceiling_rejected", None) if type(a) is int else (a.y, a.outcome.value, a.order)
        for a in attempts
    ]


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
        # 2*order is just as good as long as it annihilates y
        outcome, pair = extract_factors(56, 32, 187)
        assert outcome in (Outcome.SUCCESS, Outcome.TRIVIAL_FACTORS)

    def test_rejects_non_annihilating_exponent(self):
        with pytest.raises(ValueError):
            extract_factors(56, 15, 187)

    def test_oracle_only_success_fraction(self):
        # over seeded random coprime bases the even-order split succeeds
        # well over half the time for a product of two odd primes
        n = 1328881
        rng = RandomSource(8)
        successes = evaluated = 0
        while evaluated < 200:
            y = rng.randint(2, n - 1)
            if math.gcd(y, n) != 1:
                continue
            evaluated += 1
            outcome, _ = extract_factors(y, multiplicative_order(y, n), n)
            if outcome is Outcome.SUCCESS:
                successes += 1
        assert successes / evaluated > 0.4


class TestAttemptRecord:
    """The record stays a frozen, hashable dataclass with its own equality."""

    def record(self, **changes) -> AttemptRecord:
        fields = dict(y=505980, outcome=Outcome.TRIVIAL_FACTORS, order=1038,
                      trials=(OrderResult(9, 2137586189645, 1038, True),),
                      factors=(1328881, 1))
        return AttemptRecord(**{**fields, **changes})

    def test_frozen(self):
        record = AttemptRecord(33, Outcome.SHARED_FACTOR, factors=(11, 17))
        for name in ("y", "outcome", "order", "trials", "factors", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del record.y

    def test_defaults(self):
        record = AttemptRecord(33, Outcome.SHARED_FACTOR)
        assert (record.order, record.trials, record.factors) == (None, (), None)
        with pytest.raises(TypeError):
            AttemptRecord(33)

    def test_equality_and_hash(self):
        assert self.record() == self.record()
        assert hash(self.record()) == hash(self.record())
        assert self.record() != self.record(order=519)
        assert len({self.record(), self.record(), self.record(y=3)}) == 2
        shared = AttemptRecord(33, Outcome.SHARED_FACTOR, factors=(11, 17))
        assert shared == AttemptRecord(y=33, outcome=Outcome.SHARED_FACTOR, factors=(11, 17))
        assert hash(shared) == hash(AttemptRecord(33, Outcome.SHARED_FACTOR, factors=(11, 17)))

    def test_not_equal_to_its_values(self):
        record = self.record()
        assert record != dataclasses.astuple(record)
        assert record != (record.y, record.outcome, record.order, record.trials, record.factors)
        assert record != dataclasses.asdict(record)

    def test_repr(self):
        assert repr(AttemptRecord(33, Outcome.SHARED_FACTOR, factors=(11, 17))) == (
            "AttemptRecord(y=33, outcome=<Outcome.SHARED_FACTOR: "
            "'shared_factor_shortcut'>, order=None, trials=(), factors=(11, 17))"
        )
        assert repr(self.record()) == (
            "AttemptRecord(y=505980, outcome=<Outcome.TRIVIAL_FACTORS: 'trivial_factors'>, "
            "order=1038, trials=(OrderResult(trial_index=9, readout=2137586189645, "
            "candidate_order=1038, verified=True),), factors=(1328881, 1))"
        )

    def test_dataclass_helpers(self):
        record = self.record()
        names = ["y", "outcome", "order", "trials", "factors"]
        assert [f.name for f in dataclasses.fields(record)] == names
        assert dataclasses.replace(record, order=519) == self.record(order=519)
        assert dataclasses.replace(record) == record
        assert dataclasses.asdict(record) == {
            "y": 505980,
            "outcome": Outcome.TRIVIAL_FACTORS,
            "order": 1038,
            "trials": ({"trial_index": 9, "readout": 2137586189645,
                        "candidate_order": 1038, "verified": True},),
            "factors": (1328881, 1),
        }
        assert dataclasses.astuple(record)[:3] == (505980, Outcome.TRIVIAL_FACTORS, 1038)


class TestPickY:
    def test_shared_factor_hit(self):
        attempts = []
        hit = pick_y(187, ScriptedRng(integers=[33]), 13, attempts)
        assert hit == AttemptRecord(33, Outcome.SHARED_FACTOR, factors=(11, 17))
        assert attempts == []

    def test_coprime_base_comes_with_exact_order(self):
        attempts = []
        assert pick_y(187, ScriptedRng(integers=[56]), 187, attempts) == (56, 16)
        assert attempts == []

    def test_ceiling_rejections_are_recorded(self):
        attempts = []
        got = pick_y(187, ScriptedRng(integers=[56, 186]), 13, attempts)
        assert got == (186, 2)
        # order 16 exceeds the ceiling 13
        assert attempts == [56]

    def test_long_order_base_rejected_under_default_ceiling(self):
        ceiling = math.isqrt(1328881)  # 1152
        assert multiplicative_order(LONG_ORDER_BASE, 1328881) == 1278
        attempts = []
        got = pick_y(
            1328881, ScriptedRng(integers=[LONG_ORDER_BASE, 205920]), ceiling, attempts
        )
        assert got == (205920, 1038)
        assert attempts == [LONG_ORDER_BASE]

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
        rng = ScriptedRng(integers=rejected + [shared, 21])
        attempts = []
        hit = pick_y(n, rng, 13, attempts)
        g = math.gcd(shared, n)
        assert g > 1
        assert hit == AttemptRecord(shared, Outcome.SHARED_FACTOR, factors=(g, n // g))
        assert attempts == rejected
        assert rng.integers == [21]  # no base is taken past the one returned
        assert (numtheory._order_record(n).tables is not None) == tables
        numtheory._order_record.cache_clear()


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

    @pytest.mark.parametrize("n,seed,digest", PINNED_STREAMS)
    def test_seeded_stream_is_pinned(self, n, seed, digest):
        # every base, outcome and order of the session, hashed; a change to
        # base drawing or order computation that alters any of them shows here
        attempts = pinned_view(factor(n, seed=seed).attempts)
        assert hashlib.sha256(repr(attempts).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n,seed,digest", PINNED_STREAMS)
    def test_seeded_stream_is_the_same_from_the_order_tables(self, n, seed, digest):
        sessions = []
        for tables in (False, True):
            order_path(n, tables)
            sessions.append(factor(n, seed=seed).attempts)
        numtheory._order_record.cache_clear()
        steps, tables = sessions
        assert steps == tables
        attempts = pinned_view(tables)
        assert hashlib.sha256(repr(attempts).encode()).hexdigest() == digest

    def test_different_seeds_take_different_paths(self):
        paths = {
            tuple(a if type(a) is int else a.y for a in factor(187, 16, seed=s).attempts)
            for s in range(6)
        }
        assert len(paths) > 1

    def test_attempt_bookkeeping_invariants(self):
        # the max_trials=2 sessions include ones that run out of budget after
        # two or more bases, so numbering must run on across base changes
        histories = [factor(1328881, 41, seed=seed) for seed in range(8)]
        histories += [factor(1328881, 41, seed=s, max_trials=2) for s in range(40)]
        for history in histories:
            # a ceiling rejection is its bare y; every other base, the last
            # one included, is a record
            assert type(history.attempts[-1]) is AttemptRecord
            records = [a for a in history.attempts if type(a) is not int]
            assert history.total_trials == sum(len(a.trials) for a in records)
            assert history.total_trials <= history.params.max_trials
            indices = [t.trial_index for a in records for t in a.trials]
            assert indices == list(range(1, history.total_trials + 1))
            for a in records:
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
        assert not any(type(a) is int for a in history.attempts)

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

    def test_tiny_register_cannot_stall(self):
        # a 2-qubit register can only accept orders up to q = 4, yet the
        # session still terminates (order-2 bases or a shared factor)
        history = factor(187, 2, seed=9, order_ceiling=None)
        assert history.succeeded or history.failure is not None
