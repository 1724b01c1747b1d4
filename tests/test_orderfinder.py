import math

from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim.model import FactoringParams
from shorsim.orderfinder import OrderResult, find_order
from shorsim.sampler import RandomSource, ReadoutSampler
from conftest import ScriptedRng, ScriptedSampler


def params_for(n, qubits, **kwargs):
    return FactoringParams(n, qubits, seed=0, **kwargs)


class TestFindOrder:
    def test_session_subcycle_base_505980(self):
        # four trials: two undershoots onto order 346, one onto 519, then
        # the full order 1038 verifies; numbering continues from trial 6
        params = params_for(1328881, 41)
        readouts = [1671511896561, 1366445086543, 1135526459514, 2137586189645]
        trials = find_order(
            505980, params, ScriptedSampler(readouts), ScriptedRng(), 6, 95
        )
        assert trials == [
            OrderResult(6, 1671511896561, 346, False),
            OrderResult(7, 1366445086543, 346, False),
            OrderResult(8, 1135526459514, 519, False),
            OrderResult(9, 2137586189645, 1038, True),
        ]

    def test_session_subcycle_base_200298(self):
        params = params_for(1328881, 41)
        trials = find_order(
            200298,
            params,
            ScriptedSampler([656741049346]),
            ScriptedRng(),
            1,
            100,
        )
        assert trials == [OrderResult(1, 656741049346, 519, True)]

    def test_budget_exhaustion_leaves_unverified_tail(self):
        # trials 4, 5 and 6 spend the budget; the fourth readout is never drawn
        params = params_for(187, 16)
        sampler = ScriptedSampler([1, 1, 1, 1])
        trials = find_order(56, params, sampler, ScriptedRng(), 4, 3)
        assert [t.trial_index for t in trials] == [4, 5, 6]
        assert not any(t.verified for t in trials)
        assert sampler.readouts == [1]

    def test_trivial_order_one_base(self):
        # y = 1 has order 1: readout 0 extracts candidate 1, which verifies
        params = params_for(187, 16)
        sampler = ReadoutSampler(1, params.q)
        trials = find_order(1, params, sampler, RandomSource(3), 1, 100)
        assert trials == [OrderResult(1, 0, 1, True)]

    def test_real_sampler_small_case(self):
        # order of 7 mod 15 is 4; q = 256 puts all mass on multiples of 64
        params = params_for(15, 8)
        sampler = ReadoutSampler(4, params.q)
        trials = find_order(7, params, sampler, RandomSource(0), 1, 100)
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
        trials = find_order(
            200298, params, ScriptedSampler([c]), ScriptedRng(), 1, 1
        )
        g = math.gcd(m, r)
        assert trials[0].candidate_order == r // g
        assert trials[0].verified == (g == 1)
