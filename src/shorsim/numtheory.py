"""Arbitrary-precision number-theoretic primitives.

Everything in this module is pure and deterministic: modular
exponentiation, exact primality, prime factorization and multiplicative
order of moduli up to ten digits, and continued-fraction convergents.
All functions accept plain Python ints and never lose precision to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


# Deterministic witness set: exact for every n below 3.3 * 10**24, far
# beyond the 10-digit inputs this package accepts.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


@lru_cache(maxsize=4096)
def _order_steps(n: int) -> tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]:
    """The primes p of lambda(n), largest first, each with the prime-power
    components m of n whose lambda(m) p divides, as (m, lambda(m) / p**v,
    p**v) for p**v the power of p in lambda(m), largest p**v first."""
    parts = [(p**e, _prime_power_lambda(p, e)) for p, e in factorize(n)]
    steps = []
    for p, _ in reversed(factorize(carmichael_lambda(n))):
        # the power of p in lam is gcd(lam, p**k) for any p**k > lam
        powers = [(math.gcd(lam, p ** lam.bit_length()), m, lam) for m, lam in parts]
        powers.sort(reverse=True)
        steps.append((p, tuple((m, lam // pv, pv) for pv, m, lam in powers if pv > 1)))
    return tuple(steps)


def multiplicative_order(y: int, n: int, ceiling: int | None = None) -> int | None:
    """Least r >= 1 with y**r == 1 (mod n), or None when it exceeds `ceiling`.

    r's part for each prime p of lambda(n), largest p first, is the largest
    order of y**(lambda(m) / p**v) mod m over the prime-power components m
    of n, so every power is taken mod a component with an exponent no wider
    than lambda(m). A base is rejected as soon as the product of the parts
    found exceeds `ceiling`: typically after one or two short powers.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if ceiling is not None and ceiling < 1:
        raise ValueError("ceiling must be >= 1")
    y %= n
    g = math.gcd(y, n)
    if g != 1:
        raise NotCoprime(f"gcd({y}, {n}) = {g}, order undefined")
    r = 1
    for p, comps in _order_steps(n):
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


@dataclass(frozen=True)
class Convergent:
    """A continued-fraction convergent numerator/denominator, in lowest terms."""

    numerator: int
    denominator: int


def convergents(c: int, q: int, denom_bound: int) -> Convergent:
    """Largest-denominator convergent of c/q with denominator < denom_bound.

    c = 0 yields 0/1. The standard recurrence guarantees the result is in
    lowest terms.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if not 0 <= c < q:
        raise ValueError("require 0 <= c < q")
    if denom_bound < 2:
        raise ValueError("denom_bound must be >= 2")
    h, h_prev = 1, 0
    k, k_prev = 0, 1
    best = Convergent(0, 1)
    a, b = c, q
    while b:
        t = a // b
        a, b = b, a - t * b
        h, h_prev = t * h + h_prev, h
        k, k_prev = t * k + k_prev, k
        if k >= denom_bound:
            break
        best = Convergent(h, k)
    return best
