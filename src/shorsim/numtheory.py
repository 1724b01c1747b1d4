"""Arbitrary-precision number-theoretic primitives.

Everything in this module is deterministic: modular exponentiation, exact
primality, prime factorization and multiplicative order of moduli up to
ten digits, and continued-fraction convergents. All functions accept
plain Python ints and never lose precision to floats. All but one are
pure: multiplicative_order counts its calls per modulus and, past the sum
of the modulus's prime-power components, answers from order tables it
builds then; the count changes its speed, never its result.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import lcm

MAX_MODULUS = 10**10 - 1  # inputs are capped at ten decimal digits


class NotCoprime(ValueError):
    """An operation required gcd(y, n) == 1 and it did not hold."""


def modpow(y: int, e: int, n: int) -> int:
    """y**e mod n by square-and-multiply; result in [0, n)."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if n < 2:
        raise ValueError("modulus must be >= 2")
    return pow(y, e, n)


# Deterministic witness sets: the primes up to 41 are exact for every n
# below psi_13 = 3,317,044,064,679,887,385,961,981 (Sorenson and Webster
# 2017), and the first five alone for every n below psi_5 (Jaeschke 1993),
# which covers every modulus and factor this package handles.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_5 = 2_152_302_898_747


def is_prime(n: int) -> bool:
    """Exact primality test (deterministic Miller-Rabin)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES[:5] if n < _PSI_5 else _MR_BASES:
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


@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n as ((prime, multiplicity), ...), ascending.

    Trial division up to isqrt(n) <= 99,999, so n must lie in [1, MAX_MODULUS].
    """
    if not 1 <= n <= MAX_MODULUS:
        raise ValueError(f"factorize requires 1 <= n <= {MAX_MODULUS}")
    found = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            found.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        found.append((n, 1))
    return tuple(found)


def _prime_power_lambda(p: int, e: int) -> int:
    """Exponent of the multiplicative group mod p**e."""
    if p == 2:
        return 1 if e == 1 else 2 if e == 2 else 1 << (e - 2)
    return (p - 1) * p ** (e - 1)


@lru_cache(maxsize=4096)
def carmichael_lambda(n: int) -> int:
    """Exponent of the multiplicative group mod n (least universal order)."""
    return math.lcm(*(_prime_power_lambda(p, e) for p, e in factorize(n)))


class _OrderRecord:
    """multiplicative_order's state for one modulus: steps, tests left
    before the tables are built, and the tables once built."""

    __slots__ = ("steps", "countdown", "tables")


@lru_cache(maxsize=4096)
def _order_record(n: int) -> _OrderRecord:
    """The record of n. Its steps are the primes p of lambda(n), largest
    first, each with the prime-power components m of n whose lambda(m) p
    divides, as (m, lambda(m) / p**v, p**v) for p**v the power of p in
    lambda(m), largest p**v first. Its countdown is the sum of the
    components, or infinite when one is a power of 2 (not always cyclic)."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    parts = [(p**e, _prime_power_lambda(p, e)) for p, e in factorize(n)]
    steps = []
    for p, _ in reversed(factorize(carmichael_lambda(n))):
        # the power of p in lam is gcd(lam, p**k) for any p**k > lam
        powers = [(math.gcd(lam, p ** lam.bit_length()), m, lam) for m, lam in parts]
        powers.sort(reverse=True)
        steps.append((p, tuple((m, lam // pv, pv) for pv, m, lam in powers if pv > 1)))
    record = _OrderRecord()
    record.steps, record.tables = tuple(steps), None
    record.countdown = sum(m for m, _ in parts) if n % 2 else math.inf
    return record


def _order_tables(n: int) -> tuple[tuple[int, list[int]], tuple[tuple[int, list[int]], ...]]:
    """(m, the order of each residue mod m, 0 for a non-unit) for each
    prime-power component m of an odd n, from a generator g of (Z/m)*:
    the first component's pair, then a tuple of the others'."""
    tables = []
    for p, e in factorize(n):
        m, lam = p**e, _prime_power_lambda(p, e)
        primes = factorize(lam)
        g = next(
            a for a in range(2, m) if a % p and all(pow(a, lam // f, m) != 1 for f, _ in primes)
        )
        divisors = [1]
        for f, k in primes:
            divisors = [d * f**i for d in divisors for i in range(k + 1)]
        # ord(g**k) = lam / gcd(k, lam), the largest divisor of lam dividing
        # k: ascending, that divisor is the last to write slot k
        by_exponent = [0] * lam
        for d in sorted(divisors):
            by_exponent[::d] = [lam // d] * (lam // d)
        table, x = [0] * m, 1
        for order in by_exponent:
            table[x] = order
            x = x * g % m
        tables.append((m, table))
    return tables[0], tuple(tables[1:])


def multiplicative_order(y: int, n: int, ceiling: int | None = None) -> int | None:
    """Least r >= 1 with y**r == 1 (mod n), or None when it exceeds `ceiling`.

    After more tests on an odd n than the sum of its components, r is the
    lcm of y's orders in _order_tables. Until then, and for even n, r's
    part for each prime p of lambda(n), largest p first, is the largest
    order of y**(lambda(m) / p**v) mod m over the prime-power components m
    of n, so every power is taken mod a component with an exponent no wider
    than lambda(m). A base is rejected as soon as the product of the parts
    found exceeds `ceiling`: typically after one or two short powers.
    """
    if ceiling is not None and ceiling < 1:
        raise ValueError("ceiling must be >= 1")
    record = _order_record(n)  # refuses n < 2
    tables = record.tables
    if tables is None:
        record.countdown -= 1
        if record.countdown < 0:
            tables = record.tables = _order_tables(n)
    if tables is not None:
        (m, table), others = tables
        r = table[y % m]
        for m, table in others:
            r = lcm(r, table[y % m])
        if not r:  # a non-unit's 0 entry makes the lcm 0
            raise NotCoprime(f"gcd({y % n}, {n}) = {math.gcd(y, n)}, order undefined")
        return None if ceiling is not None and r > ceiling else r
    y %= n
    g = math.gcd(y, n)
    if g != 1:
        raise NotCoprime(f"gcd({y}, {n}) = {g}, order undefined")
    r = 1
    for p, comps in record.steps:
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
    terms.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if not 0 <= c < q:
        raise ValueError("require 0 <= c < q")
    if denom_bound < 2:
        raise ValueError("denom_bound must be >= 2")
    k, k_prev = 0, 1
    a, b = c, q
    while b:
        t = a // b
        a, b = b, a - t * b
        k, k_prev = t * k + k_prev, k
        if k >= denom_bound:
            return k_prev
    return k
