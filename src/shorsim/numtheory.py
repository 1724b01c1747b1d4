"""Arbitrary-precision number-theoretic primitives.

Everything in this module is deterministic: modular exponentiation
(modpow, the builtin pow under a name of its own), exact primality, prime
factorization and multiplicative order of moduli up to ten digits, and
continued-fraction convergents. All functions accept plain Python ints and
never lose precision to floats. All but two are pure, and those two keep
caches that change their speed, never their results:

- multiplicative_order keeps one state per modulus in _ORDERS, bounded at
  _MODULI moduli with the oldest dropped first. The state holds the
  modulus's prime-power components, its steps and a countdown of tests;
  once an odd modulus has had as many tests as its order tables have
  slots, the tables replace the state and answer each later test with one
  read per component and one read of the lcm of the orders read.
- is_prime is memoized (functools.lru_cache) over the _MEMO_ENTRIES
  arguments tested most recently: a session tests N and both reported
  factors, the same few numbers in every session at one N.

_MEMO_ENTRIES bounds every process-wide memo of the package, five in all:
this one, the sampler's acceptance heights, orderfinder's trials, and
factorizer's samplers and even-order splits.
"""

from __future__ import annotations

import functools
import math
from itertools import product
from math import lcm

MAX_MODULUS = 10**10 - 1  # inputs are capped at ten decimal digits


class NotCoprime(ValueError):
    """An operation required gcd(y, n) == 1 and it did not hold."""


# y**e mod n, in [0, n) for n >= 2: OrderResult's verification, a name of
# its own so that a wrapper put on shorsim.orderfinder.modpow times it
modpow = pow


# Deterministic witnesses: the first five primes are exact for every n
# below psi_5 = 2,152,302,898,747 (Jaeschke 1993), which is above
# MAX_MODULUS, so they cover every modulus and factor this package handles.
_MR_BASES = (2, 3, 5, 7, 11)

# Sessions at one small N repeat few distinct keys again and again: 225,000
# sessions at N = 187 make 615,177 acceptance tests on 3,380 distinct
# (c, r, q) and 305,664 trials on 3,448 distinct (readout, y, q, N), which
# this many entries hold at once; they build 145,728 samplers from 5
# distinct (r, q) and 145,728 splits from 34 distinct (y, r).
_MEMO_ENTRIES = 4096


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def is_prime(n: int) -> bool:
    """Exact primality test (deterministic Miller-Rabin) for an int n up to
    MAX_MODULUS, where its witnesses are exact. It trusts its callers to pass
    only such ints: _check_modulus passes an n it has checked, and
    FactoringHistory the factors of params.n. The answers for the last
    _MEMO_ENTRIES arguments are kept (module docstring).
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n as ((prime, multiplicity), ...), ascending.

    Trial division up to isqrt(n) <= 99,999, so n must lie in [1, MAX_MODULUS]:
    the factors of 2 are shifted out first, then only odd f are tried, up to
    the square root of what is left.
    """
    if not 1 <= n <= MAX_MODULUS:
        raise ValueError(f"factorize requires 1 <= n <= {MAX_MODULUS}")
    twos = (n & -n).bit_length() - 1
    found = [(2, twos)] if twos else []
    n >>= twos
    f = 3
    while f * f <= n:
        for f in range(f, math.isqrt(n) + 1, 2):  # the least odd factor from f on
            if n % f == 0:
                break
        else:
            break  # what is left is prime
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        found.append((f, e))
        f += 2
    if n > 1:
        found.append((n, 1))
    return tuple(found)


def _prime_power_lambda(p: int, e: int) -> int:
    """Exponent of the multiplicative group mod p**e."""
    if p == 2:
        return 1 if e == 1 else 2 if e == 2 else 1 << (e - 2)
    return (p - 1) * p ** (e - 1)


def _divisors(primes: tuple[tuple[int, int], ...]) -> list[int]:
    """The divisors, ascending, of the number whose factorization is primes."""
    divisors = [1]
    for f, k in primes:
        divisors = [d * f**i for d in divisors for i in range(k + 1)]
    return sorted(divisors)


_MODULI = 4096  # moduli whose order state is kept at once

# multiplicative_order's state of each modulus it has tested, oldest first,
# at most _MODULI: a list [countdown, steps, components] (_order_state)
# until the countdown runs out, then the tuple _order_tables builds from it
_ORDERS: dict[int, list | tuple] = {}


def _order_state(n: int) -> list:
    """The new state of n, kept in _ORDERS in place of the oldest once it
    holds _MODULI. Its components are (p, m, lambda(m), primes of
    lambda(m), divisors of lambda(m)) for each prime-power component
    m = p**e of n. Its steps are the primes f of lambda(n), largest first,
    each with the components whose lambda(m) f divides, as
    (m, lambda(m) / f**k, f**k) for f**k the power of f in lambda(m),
    largest f**k first. Its countdown is the number of slots
    _order_tables holds, or infinite when a component is a power of 2
    (not always cyclic)."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    components, powers = [], {}
    for p, e in factorize(n):
        m, lam = p**e, _prime_power_lambda(p, e)
        primes = factorize(lam)
        components.append((p, m, lam, primes, _divisors(primes)))
        for f, k in primes:
            powers.setdefault(f, []).append((f**k, m, lam))
    steps = tuple(
        (f, tuple((m, lam // fk, fk) for fk, m, lam in sorted(powers[f], reverse=True)))
        for f in sorted(powers, reverse=True)
    )
    # one slot per residue of each component, one per combination of orders
    slots = sum(m for _, m, *_ in components) + math.prod(len(d) + 1 for *_, d in components)
    if len(_ORDERS) >= _MODULI:
        del _ORDERS[next(iter(_ORDERS))]
    state = _ORDERS[n] = [slots if n % 2 else math.inf, steps, tuple(components)]
    return state


def _order_tables(state: list) -> tuple[tuple[tuple[int, list[int]], ...], list[int]]:
    """(parts, orders) for an odd n from its state, from a generator g of
    (Z/m)* for each prime-power component m. parts holds one (m, index)
    pair per m: index[x] is the slot of x's order mod m among [0, *divisors
    of lambda(m)], 0 for a non-unit, times the product of the earlier
    components' slot counts. orders[sum of y's index reads] is the lcm of
    y's orders mod the components, its order mod n, or 0 when any is 0."""
    parts, slot_orders, radix = [], [], 1
    for p, m, lam, primes, divisors in state[2]:
        g = next(
            a for a in range(2, m) if a % p and all(pow(a, lam // f, m) != 1 for f, _ in primes)
        )
        # ord(g**k) = lam / gcd(k, lam), the largest divisor of lam dividing
        # k: ascending, that divisor is the last to write slot k, and the
        # order lam / divisors[i] has slot len(divisors) - i
        by_exponent = [0] * lam
        for i, d in enumerate(divisors):
            by_exponent[::d] = [(len(divisors) - i) * radix] * (lam // d)
        index, x = [0] * m, 1
        for slot in by_exponent:
            index[x] = slot
            x = x * g % m
        parts.append((m, index))
        slot_orders.append([0, *divisors])
        radix *= len(divisors) + 1
    # product varies its last factor fastest: the first component's slot
    orders = [lcm(*combination) for combination in product(*reversed(slot_orders))]
    return tuple(parts), orders


def multiplicative_order(y: int, n: int, ceiling: int | None = None) -> int | None:
    """Least r >= 1 with y**r == 1 (mod n), or None when it exceeds `ceiling`.

    The first test on n makes its state (_order_state). After as many
    tests on an odd n as _order_tables has slots, the next builds the
    tables, which replace the state, and every later test reads r from
    them: one index read per component, one orders read. Until then, and
    for even n, r's part for each prime p of lambda(n), largest p first,
    is the largest order of y**(lambda(m) / p**v) mod m over the
    prime-power components m of n, so every power is taken mod a
    component with an exponent no wider than lambda(m). A base is rejected
    as soon as the product of the parts found exceeds `ceiling`: typically
    after one or two short powers. A state evicted from _ORDERS, tables or
    countdown, starts afresh on n's next test.

    A y sharing a factor with n raises NotCoprime, a ValueError imported
    from shorsim.numtheory ("gcd(33, 187) = 11, order undefined"). A
    ceiling below 1, an n below 2 or an n above MAX_MODULUS raises
    ValueError ("ceiling must be >= 1", "modulus must be >= 2", "factorize
    requires 1 <= n <= 9999999999").
    """
    if ceiling is not None and ceiling < 1:
        raise ValueError("ceiling must be >= 1")
    state = _ORDERS.get(n)
    if type(state) is tuple:  # n's tables
        parts, orders = state
        slot = 0
        for m, index in parts:
            slot += index[y % m]
        r = orders[slot]
        if not r:  # a non-unit's slot 0 makes the lcm 0
            raise NotCoprime(f"gcd({y % n}, {n}) = {math.gcd(y, n)}, order undefined")
        return None if ceiling is not None and r > ceiling else r
    if state is None:
        state = _order_state(n)  # refuses n < 2
    state[0] -= 1
    if state[0] < 0:  # this test still runs the steps
        _ORDERS[n] = _order_tables(state)
    y %= n
    g = math.gcd(y, n)
    if g != 1:
        raise NotCoprime(f"gcd({y}, {n}) = {g}, order undefined")
    r = 1
    for p, comps in state[1]:
        part = 1
        for m, cofactor, pv in comps:
            if pv <= part:
                break
            z = pow(y, cofactor, m)
            k = 1
            while z != 1:  # z's order divides pv, so z**pv needs no test
                k *= p
                if k == pv:
                    break
                z = pow(z, p, m)
            if k > part:
                part = k
        r *= part
        if ceiling is not None and r > ceiling:
            return None
    return r


def convergents(c: int, q: int, denom_bound: int) -> int:
    """Denominator of the last continued-fraction convergent of c/q whose
    denominator is below denom_bound; c = 0 gives 1.

    The denominators follow the standard recurrence k = t * k + k_prev over
    the partial quotients t of c/q; each is that of a fraction in lowest
    terms. It trusts its one caller, OrderResult: 0 <= c < q and denom_bound >= 3.
    """
    k, k_prev = 0, 1
    a, b = c, q
    while b:
        t = a // b
        a, b = b, a - t * b
        k, k_prev = t * k + k_prev, k
        if k >= denom_bound:
            return k_prev
    return k
