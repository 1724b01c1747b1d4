import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim import numtheory
from shorsim.numtheory import (
    NotCoprime,
    convergents,
    factorize,
    is_prime,
    modpow,
    multiplicative_order,
)
from conftest import (
    brute_convergent,
    brute_order,
    carmichael,
    has_tables,
    order_path,
    prime_powers,
    table_slots,
)


class TestModpow:
    @pytest.mark.parametrize(
        "y,e,n,expected",
        [
            (36, 40, 187, 1),
            (56, 16, 187, 1),
            (205920, 1038, 1328881, 1),
            (205920, 519, 1328881, 874837),
            (2, 10, 1000, 24),
        ],
    )
    def test_values(self, y, e, n, expected):
        assert modpow(y, e, n) == expected

    @pytest.mark.parametrize("y,n", [(2, 9), (36, 187), (7, 15)])
    def test_zero_exponent(self, y, n):
        assert modpow(y, 0, n) == 1

    @given(st.integers(0, 500), st.integers(0, 40), st.integers(2, 500))
    def test_matches_repeated_multiplication(self, y, e, n):
        acc = 1
        for _ in range(e):
            acc = acc * y % n
        assert modpow(y, e, n) == acc


class TestIsPrime:
    @pytest.mark.parametrize("n", [2, 3, 5, 1039, 1279, 3623, 7069, 2147483647])
    def test_primes(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize("n", [0, 1, 4, 187, 1328881, 25610987, 10**10])
    def test_composites_and_small(self, n):
        assert not is_prime(n)

    def test_the_memo_never_serves_a_float_an_ints_answer(self):
        # lru_cache keys a lone int by itself, which no float matches, but an
        # int subclass by the tuple (value,), which (1000003.0,) equals: only
        # a typed memo keeps the float out of that entry, so it still fails
        class Int(int):
            pass

        assert is_prime(1000003) and is_prime(Int(1000003))
        with pytest.raises(TypeError):
            is_prime(1000003.0)

    @pytest.mark.parametrize("n", [7.0, 41.0, 4.0, 43.0, 1000003.0, True, False, "7", None])
    def test_a_non_int_is_refused_before_any_arithmetic(self, n):
        # 7.0, 41.0 and 4.0 were once answered by the trial divisions, and
        # 43.0 failed deep inside on a bit operation
        with pytest.raises(TypeError, match=f"^n must be an int, not {type(n).__name__}$"):
            is_prime(n)

    def test_strong_pseudoprime_not_fooled(self):
        # 3215031751 = 151 * 751 * 28351 passes weak tests to bases 2,3,5,7
        assert 151 * 751 * 28351 == 3215031751
        assert not is_prime(3215031751)

    @given(st.integers(0, 100_000))
    def test_matches_trial_division(self, n):
        by_division = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == by_division

    # psi_k, the least composite that is a strong probable prime to each of
    # the first k prime bases, with its prime factors (Jaeschke 1993;
    # Sorenson and Webster 2017): each must be refused by the witnesses
    # is_prime uses at its size
    @pytest.mark.parametrize(
        "k,psi,factors",
        [
            (5, 2152302898747, (6763, 10627, 29947)),
            (6, 3474749660383, (1303, 16927, 157543)),
            (8, 341550071728321, (10670053, 32010157)),
            (11, 3825123056546413051, (149491, 747451, 34233211)),
            (12, 318665857834031151167461, (399165290221, 798330580441)),
        ],
    )
    def test_least_strong_pseudoprimes_refused(self, k, psi, factors):
        assert math.prod(factors) == psi
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)[:k]
        assert all(strong_probable_prime(psi, a) for a in bases)
        assert not is_prime(psi)

    def test_refused_from_psi_13(self):
        # psi_13, the least strong pseudoprime to every prime base up to 41,
        # the whole witness set: no answer from those bases is exact there
        psi = 3317044064679887385961981
        assert 1287836182261 * 2575672364521 == psi
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
        assert all(strong_probable_prime(psi, a) for a in bases)
        for n in (psi, psi + 2, 2**127 - 1):
            with pytest.raises(ValueError, match=f"^is_prime is exact only below psi_13 = {psi}$"):
                is_prime(n)
        # below it the answers stand: a Mersenne prime, and psi_12 times 3
        assert is_prime(2**61 - 1)
        assert not is_prime(3 * 318665857834031151167461)

    def test_matches_trial_division_over_ten_digits(self):
        # odd n across the ten-digit domain, where only five witnesses run;
        # factorize is trial division
        rng = random.Random(2152302898747)
        for n in [rng.randrange(10**5, 10**10) | 1 for _ in range(300)]:
            assert is_prime(n) == (factorize(n) == ((n, 1),)), n


def strong_probable_prime(n: int, a: int) -> bool:
    """True when odd n > a passes the Miller-Rabin round to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


class TestFactorize:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, ()),
            (2, ((2, 1),)),
            (360, ((2, 3), (3, 2), (5, 1))),
            (1328881, ((1039, 1), (1279, 1))),
            (25610987, ((3623, 1), (7069, 1))),
            (3215031751, ((151, 1), (751, 1), (28351, 1))),
            (9999999967, ((9999999967, 1),)),  # the largest ten-digit prime
            (9954647173, ((99707, 1), (99839, 1))),
            (2 * 4999999937, ((2, 1), (4999999937, 1))),
            (9999999999, ((3, 2), (11, 1), (41, 1), (271, 1), (9091, 1))),
        ],
    )
    def test_values(self, n, expected):
        assert factorize(n) == expected

    @given(st.integers(1, 10_000) | st.integers(1, 9_999_999_999))
    @settings(deadline=None)
    def test_product_and_primality(self, n):
        # over the whole ten-digit domain; is_prime (Miller-Rabin) checks
        # the trial division independently
        factors = factorize(n)
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
        assert all(is_prime(p) and e >= 1 for p, e in factors)
        assert math.prod(p**e for p, e in factors) == n

    def test_matches_the_reference(self):
        # every n up to 10**4, then a power of 2 past 32 bits, a prime
        # square, the largest ten-digit prime and the benchmark moduli, each
        # against prime_powers' trial division of every candidate
        edges = [187, 1328881, 25610987, 9954647173, 9999999999, 2**33, 99991**2, 9999999967]
        for n in [*range(1, 10**4 + 1), *edges]:
            assert factorize(n) == tuple(prime_powers(n)), n

    def test_refuses_outside_the_domain(self):
        for n in (0, -6, 10**10):
            with pytest.raises(ValueError):
                factorize(n)
        # a product of two Mersenne primes is refused before any trial division
        huge = (2**61 - 1) * (2**89 - 1)
        with pytest.raises(ValueError):
            multiplicative_order(2, huge)


class TestMultiplicativeOrder:
    @pytest.mark.parametrize(
        "y,n,expected",
        [
            (56, 187, 16),
            (36, 187, 40),
            (200298, 1328881, 519),
            (505980, 1328881, 1038),
            (205920, 1328881, 1038),
            (1, 187, 1),
            (186, 187, 2),
        ],
    )
    def test_values(self, y, n, expected):
        assert multiplicative_order(y, n) == expected

    def test_ceiling(self):
        assert multiplicative_order(56, 187, ceiling=16) == 16
        assert multiplicative_order(56, 187, ceiling=15) is None

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            multiplicative_order(11, 187)

    def test_rejects_ceiling_below_one(self):
        with pytest.raises(ValueError):
            multiplicative_order(1, 2, ceiling=0)

    @given(
        st.one_of(
            st.integers(2, 20_000),
            st.integers(2, 16).map(lambda k: 2**k),
            st.integers(1, 9).map(lambda k: 3**k),
            st.tuples(st.integers(0, 7), st.integers(0, 5)).map(
                lambda ab: 2 ** ab[0] * 3 ** ab[1] * 5
            ),
        ),
        st.data(),
    )
    @settings(max_examples=300)
    def test_ceiling_matches_brute_iteration(self, n, data):
        # moduli whose lambda repeats a prime (2**k, 3**k, 2**a * 3**b * 5)
        # exercise the largest-prime-first early exit across prime powers
        y = data.draw(st.integers(1, n - 1)) if n > 2 else 1
        if math.gcd(y, n) != 1:
            return
        r = brute_order(y, n)
        ceiling = data.draw(
            st.sampled_from([1, r - 1, r, r + 1, math.isqrt(n)])
            | st.integers(1, 2 * n)
        )
        if ceiling < 1:
            with pytest.raises(ValueError):
                multiplicative_order(y, n, ceiling)
            return
        expected = r if r <= ceiling else None
        assert multiplicative_order(y, n, ceiling) == expected

    @given(st.integers(2, 10_000), st.integers(2, 10_000))
    @settings(max_examples=300)
    def test_matches_brute_iteration(self, n, y):
        y %= n
        if y < 2 or math.gcd(y, n) != 1:
            return
        r = multiplicative_order(y, n)
        assert r == brute_order(y, n)
        # minimality: no proper divisor annihilates y
        for p, _ in factorize(r):
            assert modpow(y, r // p, n) != 1

    @pytest.mark.parametrize(
        "n",
        [
            9954647173,  # 99707 * 99839, ten digits
            2 * 4999999937,  # a component wider than one CPython digit
            8 * 1000003,  # 2**e * p: lambda(2**e) = 2**(e-2)
            2**7 * 99991,  # lambda(2**7) = 2**5 outweighs lambda(99991)'s 2
            1009**2 * 1013,  # p**2 * q: p divides lambda(p**2)
            2 * 1009 * 1013,  # 2 * p * q: the component 2 has lambda 1
            3 * 11 * 1009 * 65537,  # 2 divides all four lambdas: 2, 2, 2**4, 2**16
        ],
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_order_certificate(self, n, data):
        # moduli far beyond brute iteration: check r against its definition
        y = data.draw(st.integers(1, n - 1))
        if math.gcd(y, n) != 1:
            return
        r = multiplicative_order(y, n)
        assert carmichael(n) % r == 0
        assert pow(y, r, n) == 1
        for p, _ in factorize(r):
            assert pow(y, r // p, n) != 1
        ceiling = data.draw(
            st.sampled_from([1, max(1, r - 1), r, r + 1, math.isqrt(n)])
            | st.integers(1, 2 * n)
        )
        got = multiplicative_order(y, n, ceiling)
        assert got == (r if r <= ceiling else None)


def checked_order(y: int, n: int) -> int:
    """multiplicative_order(y, n) at the ceilings None, isqrt(n), r - 1
    and r, each checked against the uncapped order r it returns."""
    r = multiplicative_order(y, n)
    for ceiling in (None, math.isqrt(n), r - 1, r):
        if ceiling == 0:
            with pytest.raises(ValueError):
                multiplicative_order(y, n, ceiling)
            continue
        expected = r if ceiling is None or r <= ceiling else None
        assert multiplicative_order(y, n, ceiling) == expected
    return r


class TestOrderTables:
    """The same orders from the prime-power steps, run for the first tests
    on a modulus, and from the tables built on the test after them."""

    @pytest.fixture(autouse=True)
    def fresh_states(self):
        yield
        numtheory._ORDERS.clear()

    @pytest.mark.parametrize("tables", [False, True], ids=["steps", "tables"])
    @pytest.mark.parametrize(
        "n",
        [
            15,
            187,
            1001,
            3**3 * 5**2 * 7,  # three components, two with p dividing lambda(p**e)
        ],
    )
    def test_every_base_matches_brute_iteration(self, n, tables):
        order_path(n, tables)
        for y in range(n):
            if math.gcd(y, n) != 1:
                # on the table path a non-unit's entry is 0
                with pytest.raises(NotCoprime):
                    multiplicative_order(y, n)
                continue
            r = checked_order(y, n)
            assert r == brute_order(y, n)
            assert multiplicative_order(y + 5 * n, n) == multiplicative_order(y - n, n) == r

    @pytest.mark.parametrize("tables", [False, True], ids=["steps", "tables"])
    @pytest.mark.parametrize(
        "n",
        [
            3**9,  # one component, p divides lambda(p**9)
            5**6 * 7,
            1009 * 1013,
            3 * 11 * 1009 * 65537,
            2**5 * 1009 * 1013,  # a 2-power component keeps the steps
        ],
    )
    def test_seeded_bases_meet_the_order_certificate(self, n, tables):
        order_path(n, tables)
        rng = random.Random(n)
        checked = 0
        while checked < 2000:
            y = rng.randint(2, n - 1)
            if math.gcd(y, n) != 1:
                continue
            r = checked_order(y, n)
            assert pow(y, r, n) == 1
            for p, _ in factorize(r):
                assert pow(y, r // p, n) != 1
            checked += 1

    def test_ten_digit_tables_agree_with_the_steps(self):
        n = 9954647173  # 99707 * 99839
        rng = random.Random(n)
        bases = [y for y in (rng.randint(2, n - 1) for _ in range(2000)) if math.gcd(y, n) == 1]
        orders = []
        for tables in (False, True):
            order_path(n, tables)
            orders.append([checked_order(y, n) for y in bases])
        steps, tables = orders
        assert len(steps) == 2000
        assert tables == steps

    @pytest.mark.parametrize("n", [187, 1009 * 1013, 3 * 11 * 1009 * 65537])
    def test_tables_are_built_on_the_test_after_the_slot_count(self, n, monkeypatch):
        built = counted_builds(monkeypatch)
        numtheory._ORDERS.clear()
        for _ in range(table_slots(n)):
            multiplicative_order(2, n)
        assert built == []
        assert not has_tables(n)
        multiplicative_order(2, n)
        assert built == [n]
        assert has_tables(n)
        for _ in range(3):
            multiplicative_order(2, n)
        assert built == [n]

    def test_many_components_wait_for_their_combinations(self, monkeypatch):
        # nine components: 127 residues, but 3 * 4 * 5 * 5 * 7 * 6 * 7 * 5 * 7
        # combinations of their orders or 0, so the tables wait that long too
        n = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29
        assert n == 3_234_846_615
        built = counted_builds(monkeypatch)
        numtheory._ORDERS.clear()
        residues = sum(p for p, _ in factorize(n))
        assert residues == 127
        expected = brute_order(2, n)
        for _ in range(residues + 1):
            assert multiplicative_order(2, n) == expected
        assert built == []
        assert table_slots(n) == 127 + 3_087_000
        assert numtheory._ORDERS[n][0] == table_slots(n) - (residues + 1)  # the countdown

    def test_even_modulus_never_builds(self, monkeypatch):
        monkeypatch.setattr(numtheory, "_order_tables", None)  # a call would fail
        numtheory._ORDERS.clear()
        expected = brute_order(3, 2 * 1009)
        for _ in range(3 * (2 + 1009)):
            assert multiplicative_order(3, 2 * 1009) == expected
        assert not has_tables(2 * 1009)

    def test_an_evicted_modulus_runs_its_countdown_again(self, monkeypatch):
        monkeypatch.setattr(numtheory, "_MODULI", 2)
        built = counted_builds(monkeypatch)
        numtheory._ORDERS.clear()
        for n in (15, 21, 33):
            for _ in range(table_slots(n) + 1):
                multiplicative_order(1, n)
        assert built == [15, 21, 33]
        assert list(numtheory._ORDERS) == [21, 33]
        # 15 lost its spent countdown with its tables: its next tests run
        # the steps, and it makes room by dropping 21, the oldest
        for _ in range(table_slots(15)):
            assert multiplicative_order(2, 15) == brute_order(2, 15)
        assert built == [15, 21, 33]
        assert list(numtheory._ORDERS) == [33, 15]
        assert not has_tables(15)
        assert multiplicative_order(2, 15) == brute_order(2, 15)
        assert built == [15, 21, 33, 15]
        assert has_tables(15) and has_tables(33)

    @pytest.mark.parametrize(
        "n,build",
        [
            (15, True),
            (3**3 * 5**2 * 7, True),
            (1009 * 1013, True),
            (2**5 * 1009 * 1013, False),  # even: the state alone
            (9954647173, False),  # lambda(n) = 2 * 49853 * 49919 is never trial-divided
        ],
    )
    def test_state_and_tables_factorize_n_and_each_lambda_once(self, n, build, monkeypatch):
        tests = table_slots(n) + 1 if build else 3
        lambdas = [carmichael(p**e) for p, e in prime_powers(n)]
        calls = []
        factorize_ = numtheory.factorize
        monkeypatch.setattr(numtheory, "factorize", lambda k: calls.append(k) or factorize_(k))
        numtheory._ORDERS.clear()
        for _ in range(tests):
            multiplicative_order(1, n)
        assert has_tables(n) == build
        assert calls == [n, *lambdas]


def counted_builds(monkeypatch) -> list[int]:
    """The moduli whose order tables are built from here on, in order: the
    product of the prime-power components each build reads."""
    built = []
    build = numtheory._order_tables

    def counted(state):
        built.append(math.prod(m for _, m, *_ in state[2]))
        return build(state)

    monkeypatch.setattr(numtheory, "_order_tables", counted)
    return built


class TestConvergents:
    # readout -> extracted denominator, q = 2**41, bound 1328881
    PAIRS = [
        (1671511896561, 263, 346),
        (1366445086543, 215, 346),
        (1135526459514, 268, 519),
        (2137586189645, 1009, 1038),
        (656741049346, 155, 519),
        (1535926647664, 725, 1038),
    ]

    @pytest.mark.parametrize("c,num,den", PAIRS)
    def test_session_readouts(self, c, num, den):
        assert convergents(c, 1 << 41, 1328881) == den
        # the convergent itself, num/den in lowest terms, from the oracle
        assert brute_convergent(c, 1 << 41, 1328881) == (num, den)
        assert math.gcd(num, den) == 1

    def test_zero_readout(self):
        assert convergents(0, 1 << 41, 1328881) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            convergents(8, 8, 100)
        with pytest.raises(ValueError):
            convergents(3, 16, 1)

    @given(st.integers(2, 1 << 16), st.data())
    def test_recovers_planted_fraction(self, r, data):
        # a readout on the peak nearest m*q/r must extract m/r reduced
        q = 1 << 41
        m = data.draw(st.integers(0, r - 1))
        c = (2 * m * q + r) // (2 * r)
        assert convergents(c, q, 1 << 20) == r // math.gcd(m, r)

    @given(st.integers(2, 1 << 16), st.data())
    def test_peak_is_close_enough(self, r, data):
        q = 1 << 41
        m = data.draw(st.integers(0, r - 1))
        c = (2 * m * q + r) // (2 * r)
        assert abs(Fraction(c, q) - Fraction(m, r)) < Fraction(1, 2 * r * r)

    @given(st.integers(1, 96), st.integers(2, 10**10), st.data())
    @settings(max_examples=300)
    def test_matches_exhaustive_enumeration(self, qubits, bound, data):
        # every register size a session allows, and every bound up to past
        # the largest modulus
        q = 1 << qubits
        c = data.draw(st.integers(0, q - 1))
        assert convergents(c, q, bound) == brute_convergent(c, q, bound)[1]
