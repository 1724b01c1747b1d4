import dataclasses
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim.model import (
    FactoringParams,
    InputTooLarge,
    PrimeInput,
    dominant_mass,
    dominant_readouts,
    prob,
    safe_qubits,
)
from shorsim.factorizer import run_session
from shorsim.transcript import from_jsonl, to_jsonl
from shorsim.numtheory import multiplicative_order
from conftest import brute_prob, circuit_law, decimal_prob


class TestRegisterSizing:
    @pytest.mark.parametrize(
        "n,expected",
        [(187, 16), (1328881, 41), (25610987, 50), (15, 8), (4, 4), (9999999999, 67)],
    )
    def test_safe_qubits(self, n, expected):
        assert safe_qubits(n) == expected
        # minimality of the safe size
        assert (1 << expected) >= n * n > (1 << (expected - 1))

    def test_prime_rejected(self):
        with pytest.raises(PrimeInput):
            safe_qubits(1039)

    def test_eleven_digits_rejected(self):
        with pytest.raises(InputTooLarge):
            safe_qubits(10**10 + 2)

    def test_ten_to_the_ten_is_the_first_rejected_input(self):
        # 10**10 has eleven digits; 9999999999 is the largest accepted input
        with pytest.raises(InputTooLarge, match="more than ten digits"):
            safe_qubits(10**10)
        with pytest.raises(InputTooLarge):
            FactoringParams(10**10, seed=0)

    def test_input_past_the_int_to_str_limit_names_its_bit_length(self):
        # 10**5000 has more digits than CPython converts to str by default
        with pytest.raises(InputTooLarge, match="^a 16610-bit number has more than ten digits$"):
            FactoringParams(10**5000, seed=0)


class TestFactoringParams:
    def test_defaults(self):
        p = FactoringParams(187, seed=5)
        assert p.qubits == 16
        assert p.q == 1 << 16
        assert p.max_trials == 100
        assert p.order_ceiling == 13  # isqrt(187)
        assert p.seed == 5

    def test_ceiling_modes(self):
        assert FactoringParams(187, seed=0, order_ceiling=None).order_ceiling is None
        assert FactoringParams(187, seed=0, order_ceiling=40).order_ceiling == 40
        with pytest.raises(ValueError):
            FactoringParams(187, seed=0, order_ceiling=0)
        # the ceiling a session applies is capped at q
        for qubits, order_ceiling, ceiling in [
            (16, "sqrt", 13), (16, None, 1 << 16), (3, 100, 8), (3, None, 8), (3, 5, 5)
        ]:
            p = FactoringParams(187, qubits, seed=0, order_ceiling=order_ceiling)
            assert p.ceiling == ceiling

    def test_fresh_seed_when_omitted(self):
        p = FactoringParams(187)
        assert 0 <= p.seed < 2**64

    def test_importing_the_package_loads_neither_secrets_nor_hashlib(self):
        # a fresh interpreter: the seed is drawn from random.SystemRandom,
        # which the sampler's random module already holds
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = "import sys, shorsim; print(sorted({'secrets', 'hashlib'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"

    def test_validation(self):
        with pytest.raises(PrimeInput):
            FactoringParams(1039, seed=0)
        with pytest.raises(InputTooLarge):
            FactoringParams(12345678901, seed=0)
        with pytest.raises(ValueError):
            FactoringParams(187, qubits=0, seed=0)
        with pytest.raises(ValueError):
            FactoringParams(187, seed=-1)
        with pytest.raises(ValueError):
            FactoringParams(187, seed=0, max_trials=0)
        with pytest.raises(ValueError):
            FactoringParams(3, seed=0)

    @pytest.mark.parametrize(
        "args,kwargs,error,message",
        [
            pytest.param((7, 8), {}, PrimeInput, "7 is prime", id="prime-n"),
            pytest.param((187, 0), {}, ValueError, "qubits must be in", id="zero-qubits"),
            pytest.param(
                (187, 16), {"max_trials": 0}, ValueError, "max_trials must be >= 1",
                id="zero-trials",
            ),
        ],
    )
    def test_constructor_refuses_what_no_session_can_run(self, args, kwargs, error, message):
        # no unchecked constructor is left: a session on FactoringParams(7, 8)
        # would run, and then both writers would raise PrimeInput
        with pytest.raises(error, match=message):
            FactoringParams(*args, seed=0, **kwargs)

    def test_fields_follow_factor_and_are_resolved_once(self):
        params = FactoringParams(187, None, 5, max_trials=3)
        assert [f.name for f in dataclasses.fields(params)] == [
            "n", "qubits", "seed", "max_trials", "order_ceiling"
        ]
        assert (params.qubits, params.seed, params.order_ceiling) == (16, 5, 13)
        with pytest.raises(TypeError):
            FactoringParams(187, 16, 5, 3)  # max_trials is keyword-only
        # building again from the resolved fields gives an equal object
        assert dataclasses.replace(params) == params
        assert FactoringParams(**dataclasses.asdict(params)) == params
        with pytest.raises(ValueError, match="max_trials must be >= 1"):
            dataclasses.replace(params, max_trials=0)

    @pytest.mark.parametrize("field", ["qubits", "seed", "max_trials", "order_ceiling"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_refused(self, field, value):
        # True would pass as the int 1: a ceiling of 1, q = 2, one trial
        kwargs = {"n": 187, "qubits": 16, "seed": 0, field: value}
        with pytest.raises(TypeError, match=f"^{field} must not be a bool$"):
            FactoringParams(**kwargs)

    @pytest.mark.parametrize("field", ["qubits", "seed", "max_trials"])
    @pytest.mark.parametrize("value", [1.5, 16.0, "16"])
    def test_non_int_is_refused(self, field, value):
        # 2.5 trials died in range(), a float qubits in 1 << qubits, and a
        # float seed in RandomSource, before they were validated
        kwargs = {"n": 187, "qubits": 16, "seed": 0, field: value}
        name = type(value).__name__
        with pytest.raises(TypeError, match=f"^{field} must be an int, not {name}$"):
            FactoringParams(**kwargs)

    @pytest.mark.parametrize("field", ["n", "qubits", "seed", "max_trials", "order_ceiling"])
    def test_int_subclass_is_refused(self, field):
        # to_jsonl writes ints through str, which a subclass may override:
        # an n whose str is "x" was written as "n": x, which is not JSON
        class Int(int):
            def __str__(self) -> str:
                return "x"

        kwargs = {"n": 187, "qubits": 16, "seed": 0, "max_trials": 100, "order_ceiling": 13}
        kwargs[field] = Int(kwargs[field])
        error = ValueError if field == "order_ceiling" else TypeError
        with pytest.raises(error, match=f"^{field} must be "):
            FactoringParams(**kwargs)

    def test_q_follows_qubits(self):
        params = dataclasses.replace(FactoringParams(187, seed=1), qubits=8)
        assert params.q == 256
        history = run_session(params)
        assert from_jsonl(to_jsonl(history)) == history


class TestProb:
    @pytest.mark.parametrize(
        "c,r,q,message",
        [
            (0, 3, 48, "q must be a power of two"),
            (0, 3, 0, "q must be a power of two"),
            (99, 0, 48, "q must be a power of two"),  # q is checked first
            (0, 0, 16, "require 1 <= r <= q"),
            (0, 17, 16, "require 1 <= r <= q"),
            (16, 17, 16, "require 1 <= r <= q"),  # then r
            (-1, 3, 16, "require 0 <= c < q"),
            (16, 3, 16, "require 0 <= c < q"),
        ],
    )
    def test_refusals(self, c, r, q, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            prob(c, r, q)

    def test_peak_of_divisor_order_is_exactly_one_over_r(self):
        assert prob(4096, 16, 1 << 16) == 1.0 / 16.0

    def test_off_peak_of_divisor_order_is_exactly_zero(self):
        assert prob(1, 16, 1 << 16) == 0.0
        assert prob(4095, 16, 1 << 16) == 0.0

    def test_near_peak_value(self):
        # pinned to the phasor-sum oracle, which the closed form matches
        p = prob(1638, 40, 1 << 16)
        assert p == pytest.approx(0.0143196684291567, rel=1e-12)
        assert p == pytest.approx(brute_prob(1638, 40, 1 << 16), rel=1e-9)

    @pytest.mark.parametrize("c", [0, 1, 820, 1638, 3277, 13107, 32768, 65535])
    def test_matches_phasor_sum(self, c):
        # 40 does not divide q, so the residue classes have unequal sizes
        # and readouts off the peaks, c = 1 among them, are not zero
        assert prob(c, 40, 1 << 16) == pytest.approx(
            brute_prob(c, 40, 1 << 16), rel=1e-9, abs=0.0
        )

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=80)
    def test_matches_phasor_sum_for_every_order(self, bits, data):
        q = 1 << bits
        r = data.draw(st.integers(1, q))
        c = data.draw(st.integers(0, q - 1))
        # the oracle leaves rounding residue of order 1e-30 where the
        # closed form has an exact zero
        assert prob(c, r, q) == pytest.approx(brute_prob(c, r, q), rel=1e-9, abs=1e-20)

    def test_mirror_readouts_agree_at_a_large_register(self):
        # readout c has d = -1 and q - c has d = +1, so the sines take
        # arguments within pi/q of pi for one and of 0 for the other; only
        # exact integer reduction of A*d keeps the two equal
        q, r = 1 << 60, 1_000_003
        c = (pow(q, -1, r) * q - 1) // r
        assert r * c % q == q - 1  # r*c is one short of a multiple of q
        assert prob(c, r, q) == pytest.approx(prob(q - c, r, q), rel=1e-12)
        assert prob(c, r, q) == pytest.approx(1.0 / r, rel=1e-6)

    @given(st.integers(1, 12), st.data())
    def test_nonnegative(self, bits, data):
        q = 1 << bits
        r = data.draw(st.integers(1, q))
        c = data.draw(st.integers(0, q - 1))
        assert prob(c, r, q) >= 0.0

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=40)
    def test_normalizes_exactly_when_r_divides_q(self, bits, data):
        q = 1 << bits
        r = 1 << data.draw(st.integers(0, bits))
        total = math.fsum(prob(c, r, q) for c in range(q))
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=40)
    def test_normalizes_closely_for_typical_orders(self, bits, data):
        q = 1 << bits
        r = data.draw(st.integers(1, q))
        total = math.fsum(prob(c, r, q) for c in range(q))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r", [40, 1000, 12345, 65535])
    def test_normalizes_at_session_register(self, r):
        q = 1 << 16
        assert abs(math.fsum(prob(c, r, q) for c in range(q)) - 1.0) <= 1e-12


# prob's error bound in ulp of the exact value, fixed before it was first
# compared: a sine squared carries up to about 10 unit roundoffs of
# relative error (x / q, pi, their product, a libm sin within one ulp, the
# square), and prob compounds two of them with the products by s and
# r - s, their sum, the denominator's sine squared and the division,
# about 23 in all; a relative error of k unit roundoffs is under k ulp.
# An exact zero must be exactly zero.
PROB_ULPS = 24


class TestProbAtSessionRegisters:
    """prob at the register sizes sessions use, q = 2**41, 2**67 and
    2**96, where the phasor oracle cannot run, against the closed form at
    80 digits."""

    @given(st.sampled_from([41, 67, 96]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_decimal_closed_form(self, bits, data):
        q = 1 << bits
        r = data.draw(
            st.integers(1, 10**10) | st.integers(2, 10**4) | st.integers(q - 10**4, q), label="r"
        )
        m = data.draw(st.integers(0, r - 1), label="m")
        peak = (2 * m * q + r - 1) // (2 * r)  # the readout nearest m * q / r
        half_cell = q // (2 * r)
        offset = data.draw(
            st.sampled_from([0, -1, 1])  # the peak and its neighbours
            | st.integers(-64, 64)  # near the peak
            | st.integers(-half_cell, half_cell),  # anywhere in the peak's cell
            label="offset",
        )
        c = (peak + offset) % q
        exact = decimal_prob(c, r, q)
        error = abs(Decimal(prob(c, r, q)) - exact)
        assert error <= PROB_ULPS * Decimal(math.ulp(float(exact)))

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=80, deadline=None)
    def test_decimal_oracle_matches_phasor_sum(self, bits, data):
        # the two oracles agree where both can run
        q = 1 << bits
        r = data.draw(st.integers(1, q))
        c = data.draw(st.integers(0, q - 1))
        expected = brute_prob(c, r, q)
        assert float(decimal_prob(c, r, q)) == pytest.approx(expected, rel=1e-9, abs=1e-20)


# circuit_law against prob, in absolute terms, fixed before the first
# comparison, in unit roundoffs u = 2**-53 at a register of L <= 12 qubits:
# prob is within PROB_ULPS ulp of P(c) <= 1, so within 24 u. An FFT of
# length 2**L has a normwise relative error under about 8 L u (L stages,
# each a product by a twiddle factor and a sum; Higham, Accuracy and
# Stability of Numerical Algorithms, ch. 24). A group of A register values
# transforms to a vector of norm sqrt(q A) whose entries are at most A, so
# one readout's |.|**2 is off by at most 2 A * 8 L u sqrt(q A), and the
# groups, whose A sum to q, by at most 16 L u in all after the division by
# q**2. Summing r <= 12 groups and squaring add under 16 u: 232 u at
# L = 12, rounded up to 256 u.
CIRCUIT_BOUND = 256 * 2.0**-53


class TestCircuitLaw:
    """prob(c, r, q), which starts from the order r, against the law of the
    circuit itself, which starts from y and N and never computes r."""

    @pytest.mark.parametrize(
        "n,sizes",
        [
            (15, (8, 7)),
            (21, (9, 8)),
            (33, (11, 10)),
            (35, (11, 10)),
            (91, (12, 11)),  # its safe size, 14, is past the 2**12 cap
        ],
    )
    def test_prob_is_the_circuit_law_for_every_usable_base(self, n, sizes):
        # the safe size and the one below it; every N but 15 has orders, 3,
        # 5, 6, 10 or 12, that divide no q
        orders = []
        for qubits in sizes:
            q = 1 << qubits
            for y in range(2, n):
                if math.gcd(y, n) > 1:
                    continue
                r = multiplicative_order(y, n)
                orders.append(r)
                law = circuit_law(y, n, q)
                worst = max(abs(prob(c, r, q) - law[c]) for c in range(q))
                assert worst <= CIRCUIT_BOUND, (y, q, worst)
        assert any(q % r for r in orders) == (n != 15)


class TestDominantReadouts:
    def test_divisor_order_gives_exact_multiples(self):
        assert dominant_readouts(16, 1 << 16) == [4096 * m for m in range(16)]

    def test_order_one(self):
        assert dominant_readouts(1, 1 << 16) == [0]

    def test_session_order_forty(self):
        peaks = dominant_readouts(40, 1 << 16)
        assert len(peaks) == 40
        assert peaks[:3] == [0, 1638, 3277]
        assert peaks[-1] == 63898  # 39 * 65536 / 40 = 63897.6

    def test_half_ties_cannot_occur_for_power_of_two_registers(self):
        # m*q/r lands on a half-integer only if 2*m*q/r is odd, which the
        # power of two in q rules out; the tie-break rule is never exercised.
        q = 64
        for r in range(1, q + 1):
            for m in range(r):
                assert (2 * m * q) % (2 * r) != r

    @given(st.integers(3, 14), st.data())
    @settings(max_examples=60)
    def test_ascending_distinct_and_residual_bounded(self, bits, data):
        q = 1 << bits
        r = data.draw(st.integers(1, q))
        peaks = dominant_readouts(r, q)
        assert len(peaks) == r
        assert all(0 <= c < q for c in peaks)
        assert all(a < b for a, b in zip(peaks, peaks[1:]))
        for c in peaks:
            # r*c lies within r/2 of a multiple of q
            d = r * c % q
            assert 2 * min(d, q - d) <= r

    @given(st.integers(5, 12), st.data())
    @settings(max_examples=25)
    def test_peaks_dominate_everything_two_or_more_away(self, bits, data):
        q = 1 << bits
        r = data.draw(st.integers(1, q // 4))
        peaks = set(dominant_readouts(r, q))
        low = min(prob(c, r, q) for c in peaks)
        near = set(peaks)
        for p in peaks:
            near.add((p + 1) % q)
            near.add((p - 1) % q)
        far = [c for c in range(q) if c not in near]
        if far:
            assert low > max(prob(c, r, q) for c in far)


class TestDominantMass:
    def test_session_value(self):
        assert dominant_mass(40, 1 << 16) == pytest.approx(0.7792, abs=1e-4)

    def test_divisor_order_carries_everything(self):
        assert dominant_mass(16, 1 << 16) == pytest.approx(1.0, abs=1e-12)
