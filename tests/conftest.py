"""Shared oracles and helpers.

The oracles here recompute results by independent routes (brute
iteration, complex phasor sums, exact Fraction arithmetic) so the
package code is never checked against itself.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest


def brute_order(y: int, n: int, ceiling: int | None = None) -> int | None:
    """Multiplicative order by plain iteration, or None once it passes
    `ceiling`."""
    x, r = y % n, 1
    while x != 1:
        if ceiling is not None and r >= ceiling:
            return None
        x = x * y % n
        r += 1
    return r


def brute_prob(c: int, r: int, q: int) -> float:
    """Readout probability by explicit phasor summation.

    Sums exp(2 pi i a c / q) over every register value a with the same
    residue a mod r, residue by residue, with no closed-form shortcuts.
    """
    total = 0.0
    w = 2.0 * math.pi * c / q
    for l in range(min(r, q)):
        amp = 0.0 + 0.0j
        a = l
        while a < q:
            amp += cmath.exp(1j * w * a)
            a += r
        total += abs(amp) ** 2
    return total / q**2


def brute_convergent(c: int, q: int, denom_bound: int) -> tuple[int, int]:
    """Highest convergent of c/q below denom_bound by exhaustive enumeration.

    Builds every truncation of the continued fraction with exact Fraction
    arithmetic and picks the last one whose denominator fits.
    """
    terms = []
    a, b = c, q
    while b:
        terms.append(a // b)
        a, b = b, a % b
    best = (0, 1)
    for k in range(1, len(terms) + 1):
        value = Fraction(terms[k - 1])
        for t in reversed(terms[: k - 1]):
            value = t + 1 / value
        if value.denominator >= denom_bound:
            break
        best = (value.numerator, value.denominator)
    return best


def chi_square_pvalue(observed: dict[int, int], expected: dict[int, float]) -> float:
    """Pearson chi-square p-value with low-expectation cells pooled."""
    from scipy.stats import chi2

    pairs = []
    pool_obs, pool_exp = 0, 0.0
    for cell, exp in expected.items():
        obs = observed.get(cell, 0)
        if exp < 5.0:
            pool_obs += obs
            pool_exp += exp
        else:
            pairs.append((obs, exp))
    stray = sum(count for cell, count in observed.items() if cell not in expected)
    if pool_exp > 0.0 or stray:
        pairs.append((pool_obs + stray, max(pool_exp, 1e-9)))
    stat = sum((obs - exp) ** 2 / exp for obs, exp in pairs)
    dof = len(pairs) - 1
    return float(chi2.sf(stat, dof))


def reference_session(params) -> tuple[list, int, tuple[int, int] | None]:
    """The session the README describes, from plain loops and the oracles
    above: (attempts, total_trials, factors), a ceiling rejection as its
    bare y and any other attempt as (y, outcome, order, trials, factors),
    each trial as (readout, candidate, verified).

    Only the quantum stand-in is shorsim's: its RandomSource and
    ReadoutSampler, which draw the readouts from the session's one stream.
    """
    from shorsim import RandomSource, ReadoutSampler

    n, q, budget = params.n, params.q, params.max_trials
    rng = RandomSource(params.seed)
    span = n - 3  # bases are uniform in [2, n - 1]
    scale = float(1 << span.bit_length())  # n <= 10**4 needs one 53-bit chunk
    attempts: list = []
    trials_run = 0
    while trials_run < budget:
        while True:
            v = int(rng.random() * scale)
            if v > span:
                continue
            y, r = 2 + v, None
            if math.gcd(y, n) > 1:
                break
            r = brute_order(y, n, params.ceiling)
            if r is not None:
                break
            attempts.append(y)
        if r is None:
            g = math.gcd(y, n)
            attempts.append((y, "shared_factor_shortcut", None, [], (g, n // g)))
            break
        sampler, trials = ReadoutSampler(r, q), []
        while trials_run < budget and not (trials and trials[-1][2]):
            c = sampler.draw(rng)
            candidate = brute_convergent(c, q, n)[1]
            trials.append((c, candidate, pow(y, candidate, n) == 1))
            trials_run += 1
        if not trials[-1][2]:
            attempts.append((y, "trial_budget_exhausted", None, trials, None))
        elif candidate % 2:
            attempts.append((y, "order_odd", candidate, trials, None))
        else:
            x = pow(y, candidate // 2, n)
            pair = (math.gcd(x + 1, n), math.gcd(x - 1, n))
            outcome = "trivial_factors" if {1, n} & set(pair) else "success"
            attempts.append((y, outcome, candidate, trials, pair))
            if outcome == "success":
                break
    last = attempts[-1]
    ended = last[1] in ("success", "shared_factor_shortcut")
    return attempts, trials_run, last[4] if ended else None


class ScriptedRng:
    """Stand-in uniform source fed from fixed lists."""

    def __init__(self, uniforms=(), integers=()):
        self.uniforms = list(uniforms)
        self.integers = list(integers)

    def random(self) -> float:
        return self.uniforms.pop(0)

    def randints(self, a: int, b: int):
        while True:
            v = self.integers.pop(0)
            assert a <= v <= b
            yield v


class ScriptedSampler:
    """Stand-in sampler returning preset readouts."""

    def __init__(self, readouts):
        self.readouts = list(readouts)

    def draw(self, rng) -> int:
        return self.readouts.pop(0)


def order_path(n: int, tables: bool) -> None:
    """Put multiplicative_order on n on one path for the calls that follow.

    Clears the per-modulus records, then runs the order tests on n that
    come before the build of its tables: one per unit of the sum of n's
    prime-power components, plus the test that builds them when `tables`.
    Without tables the countdown is then held, so that every later call
    runs the prime-power steps, as it does for an even n.
    """
    from shorsim import numtheory

    numtheory._order_record.cache_clear()
    total = sum(p**e for p, e in numtheory.factorize(n))
    for _ in range(total + tables):
        numtheory.multiplicative_order(1, n)
    record = numtheory._order_record(n)
    assert (record.tables is not None) == (tables and n % 2 == 1)
    if not tables:
        record.countdown = math.inf


@pytest.fixture(scope="session")
def semiprime_histories():
    """One hundred seeded sessions at N = 1039 * 1279, shared across tests."""
    from shorsim import factor

    return [factor(1328881, 41, seed=seed) for seed in range(100)]
