"""Shared oracles and helpers.

The oracles here recompute results by independent routes (brute
iteration, complex phasor sums, the circuit's register state, exact
Fraction arithmetic, 80-digit decimal arithmetic) so the package code is
never checked against itself.
"""

from __future__ import annotations

import cmath
import decimal
import functools
import json
import math
from decimal import Decimal
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


def circuit_law(y: int, n: int, q: int) -> list[float]:
    """The readout law of the order-finding circuit, built from y and n
    alone: element c is the probability of readout c.

    Prepares sum over a < q of |a>|y**a mod n> by modular multiplication,
    groups the register values a by the second register's value, as
    measuring it does, takes one DFT of each group's indicator over a
    (numpy's FFT; its sign convention leaves |.|**2 as it is) and sums
    |.|**2 / q**2 over the groups. The order of y is never computed.
    """
    import numpy as np

    second = np.empty(q, dtype=np.int64)
    x = 1
    for a in range(q):
        second[a] = x
        x = x * y % n
    law = np.zeros(q)
    for value in np.unique(second):
        amplitude = np.fft.fft(second == value)
        law += amplitude.real**2 + amplitude.imag**2
    return (law / q**2).tolist()


def decimal_prob(c: int, r: int, q: int) -> Decimal:
    """Readout probability from the closed form in shorsim.model's
    docstring, evaluated in decimal at 80 digits.

    Every product is reduced mod q in exact integer arithmetic, and each
    sine is taken of pi * x / q for x in [0, q), with pi and sin from the
    recipes in the decimal module's documentation, so no float rounding
    enters.
    """
    with decimal.localcontext() as context:
        context.prec = 80
        pi = _decimal_pi()

        def sin_squared(x: int) -> Decimal:
            return _decimal_sin(pi * (x % q) / q) ** 2

        d = r * c % q
        a0, s = divmod(q, r)
        if d == 0:
            return Decimal(s * (a0 + 1) ** 2 + (r - s) * a0 * a0) / (q * q)
        num = s * sin_squared((a0 + 1) * d) + (r - s) * sin_squared(a0 * d)
        return num / (q * q * sin_squared(d))


def _decimal_pi() -> Decimal:
    """pi to the current decimal precision."""
    decimal.getcontext().prec += 2
    three = Decimal(3)
    lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    decimal.getcontext().prec -= 2
    return +s


def _decimal_sin(x: Decimal) -> Decimal:
    """sin(x) to the current decimal precision, by its Taylor series."""
    decimal.getcontext().prec += 2
    i, lasts, s, fact, num, sign = 1, 0, x, 1, x, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    decimal.getcontext().prec -= 2
    return +s


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
    from shorsim.sampler import RandomSource, ReadoutSampler

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


def chunk_loop(rng, a: int, b: int) -> int:
    """One uniform integer in [a, b] by the chunk rule, written over
    random() alone: a span of k bits draws ceil(k / 53) uniforms, each
    scaled by 2**53 to a 53-bit chunk, top chunk first, keeps the top k bits
    of their concatenation, and tries again until the value fits."""
    span = b - a
    k = span.bit_length()
    chunks = -(-k // 53)
    while True:
        bits = 0
        for _ in range(chunks):
            bits = bits * 2**53 + math.floor(rng.random() * 2**53)
        v = bits // 2 ** (53 * chunks - k)
        if v <= span:
            return a + v


def uniforms_for(v: int, a: int, b: int) -> list[float]:
    """The uniforms whose chunks the chunk rule over [a, b] turns into v at
    its first try: v - a, of k bits for the bit length k of b - a, shifted
    to the top of ceil(k / 53) 53-bit chunks, each chunk c the uniform
    c / 2**53; one uniform, (v - a) / 2**k, when k <= 53, also for a span
    of 0, as the inline draws take one a try. How a script feeds pick_y a
    base, and ReadoutSampler a peak or a flat offset. v may lie past b, to
    script a try that is drawn again, if v - a has at most k bits."""
    k = (b - a).bit_length()
    assert 0 <= v - a < 1 << k
    chunks = max(1, -(-k // 53))
    bits = (v - a) << (53 * chunks - k)
    return [(bits >> 53 * i) % 2**53 / 2**53 for i in reversed(range(chunks))]


class ScriptedRng:
    """Stand-in uniform source fed from a fixed list: random() pops its
    uniforms in turn."""

    def __init__(self, uniforms=()):
        self.uniforms = list(uniforms)

    def random(self) -> float:
        return self.uniforms.pop(0)


class ScriptedSampler:
    """Stand-in sampler returning preset readouts."""

    def __init__(self, readouts):
        self.readouts = list(readouts)

    def draw(self, rng) -> int:
        return self.readouts.pop(0)


def table_slots(n: int) -> int:
    """The slots in the order tables of an odd n: one per residue of each
    prime-power component p**e, plus one per combination of the
    components' orders, each a divisor of (p - 1) * p**(e - 1) or the 0 of
    a non-unit. Divisors are counted by trial of every candidate."""
    residues, combinations = 0, 1
    for p, e in prime_powers(n):
        lam = (p - 1) * p ** (e - 1)
        residues += p**e
        combinations *= 1 + sum(lam % d == 0 for d in range(1, lam + 1))
    return residues + combinations


def prime_powers(n: int) -> list[tuple[int, int]]:
    """[(p, e), ...] for the prime powers p**e of n, ascending, by trial
    division of every candidate."""
    found, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n, e = n // d, e + 1
        if e:
            found.append((d, e))
        d += 1
    return found + [(n, 1)] * (n > 1)


@functools.cache
def carmichael(n: int) -> int:
    """lambda(n), the exponent of the unit group mod n: the lcm over n's
    prime powers p**e of (p - 1) * p**(e - 1), or of 2**(e - 2) for
    p = 2 and e >= 3."""
    lam = 1
    for p, e in prime_powers(n):
        lam = math.lcm(lam, 2 ** (e - 2) if p == 2 and e >= 3 else (p - 1) * p ** (e - 1))
    return lam


def has_tables(n: int) -> bool:
    """Whether multiplicative_order answers n from its order tables."""
    from shorsim import numtheory

    return type(numtheory._ORDERS.get(n)) is tuple


def order_path(n: int, tables: bool) -> None:
    """Put multiplicative_order on n on one path for the calls that follow.

    Clears every modulus's order state, then runs the order tests on n
    that come before the build of its tables, one per table slot (an even
    n never builds), plus the test that builds them when `tables`. Without
    tables the countdown is then held, so that every later call runs the
    prime-power steps, as it does for an even n.
    """
    from shorsim import numtheory

    numtheory._ORDERS.clear()
    for _ in range(table_slots(n) + tables):
        numtheory.multiplicative_order(1, n)
    assert has_tables(n) == (tables and n % 2 == 1)
    if not tables:
        numtheory._ORDERS[n][0] = math.inf  # the countdown


# seeded sessions pinned by the sha256 digests of both renderings with
# elapsed zeroed: (n, seed, JSONL digest, text digest). Every base drawn,
# rejected or not, and every trial, outcome and order shows in them.
PINNED_OUTPUTS = [
    (
        1328881,
        0,
        "f4908d36590b865f56bd5588f1e03411375cf5e07844f8f34f89dd2a8ea554dc",
        "7fb5b317fda445d0301a341983a43cab481d33348b59ff9004b75a12470105ed",
    ),
    (
        25610987,
        1,
        "6b58bc7c5684b48fabbade9fdb9ee23c4d101909fa9e618b0ee0be496a4432a3",
        "ad568382e4784a7e9daa4cfb9444f7d54aa78cf323a7921e3fc1c90b45ef5905",
    ),
    (
        9954647173,
        3,
        "9e02baa322124c9b36ac5efddf3e4052a706712ea7cdf566844b0b25b3149aff",
        "fa0681087edfd08bc077002cedf74fe899e4cd8f7fd97d8756d6f74f4770814e",
    ),
]


def output_digests(history) -> tuple[str, str]:
    """The sha256 digests of a history's JSONL stream and of its text
    transcript, one newline between lines, with elapsed zeroed."""
    import dataclasses
    import hashlib

    from shorsim.transcript import render_text, to_jsonl

    history = dataclasses.replace(history, elapsed=0.0)
    text = "\n".join(render_text(history))
    return (
        hashlib.sha256(to_jsonl(history).encode()).hexdigest(),
        hashlib.sha256(text.encode()).hexdigest(),
    )


def reference_events(history) -> list[str]:
    """The JSONL lines of a history as the README's event schema table
    gives them, each json.dumps(event, sort_keys=True): the banner and the
    safe size hint; per attempt in order, a ceiling_rejection for each
    base it rejected, then a shared_factor for a record without trials,
    else a new_base, its trials numbered through the session, and its
    attempt_verdict, with order and factors only when known; and the
    summary. Built from the history's fields alone, with nothing from
    shorsim.transcript."""
    params, n = history.params, history.params.n
    events = [
        {
            "event": "banner",
            "schema": 1,
            "n": n,
            "qubits": params.qubits,
            "max_trials": params.max_trials,
            "order_ceiling": params.order_ceiling,
            "seed": params.seed,
        },
        {"event": "safe_qubits_hint", "qubits": (n * n - 1).bit_length()},
    ]
    index = 0
    for attempt in history.attempts:
        for y in attempt.rejected:
            events.append({"event": "ceiling_rejection", "y": y, "ceiling": params.ceiling})
        if not attempt.trials:
            events.append({"event": "shared_factor", "y": attempt.y, "factors": list(attempt.factors)})
            continue
        events.append({"event": "new_base", "y": attempt.y})
        for trial in attempt.trials:
            index += 1
            events.append(
                {
                    "event": "trial",
                    "index": index,
                    "readout": trial.readout,
                    "candidate": trial.candidate_order,
                    "verified": trial.verified,
                }
            )
        verdict = {"event": "attempt_verdict", "status": attempt.outcome.value}
        if attempt.order is not None:
            verdict["order"] = attempt.order
        if attempt.factors is not None:
            verdict["factors"] = list(attempt.factors)
        events.append(verdict)
    events.append(
        {
            "event": "summary",
            "n": n,
            "elapsed": history.elapsed,
            "total_trials": history.total_trials,
            "factors": None if history.factors is None else list(history.factors),
            "failure": None if history.failure is None else history.failure.value,
            "warnings": list(history.warnings),
        }
    )
    return [json.dumps(event, sort_keys=True) for event in events]


def reference_text(history) -> list[str]:
    """The text transcript of a history, one line per element, as the
    README gives it: its example transcript under `shorsim factor` and the
    list of the other lines after it. Per attempt in order, a ceiling
    rejection for each base it rejected; then a shared factor for a record
    without trials, else the base and its trials numbered through the
    session; then the record's verdict lines. Then the summary and one
    line per warning. Every fixed line is written out here, and nothing
    comes from shorsim.transcript."""
    params, n = history.params, history.params.n
    lines = [
        f"The number to be factored is {n}.",
        f"The safe number of qubits needed to factor this number is {(n * n - 1).bit_length()}.",
    ]
    index = 0
    for attempt in history.attempts:
        for y in attempt.rejected:
            lines.append(
                f"The order of y = {y} exceeds the ceiling of {params.ceiling}, "
                "hence a new value of y will be chosen."
            )
        status = attempt.outcome.value
        if not attempt.trials:
            lines.append(f"The randomly chosen y = {attempt.y} shares a factor with {n}.")
        else:
            lines.append(f"Finding order of y = {attempt.y}.")
        for trial in attempt.trials:
            index += 1
            lines.append(f"Trial #{index}.")
            lines.append(f"The readout value from the work register is {trial.readout}.")
            lines.append(f"The order found using this readout value is {trial.candidate_order}.")
            if trial.verified:
                lines.append("The quantum computer has found the correct order.")
            else:
                lines.append(
                    "The order is incorrect, the quantum computer will be reset to try again."
                )
        if status == "order_odd":
            lines.append("The order is odd, hence a new value of y will be chosen.")
        elif status == "trial_budget_exhausted":
            lines.append(
                f"The maximum of {params.max_trials} trials has been reached "
                "without finding the factors."
            )
            lines.append("The program has failed and will now terminate.")
        else:
            f1, f2 = attempt.factors
            lines.append(f"The factors of {n} are determined to be {f1} and {f2}.")
            if status == "trivial_factors":
                lines.append("The factoring has failed, hence a new value of y will be chosen.")
            else:
                lines.append("The program has succeeded and will now terminate.")
    took = f"This simulation took {history.elapsed:.3f} seconds and {history.total_trials} trials"
    if history.factors is None:
        lines.append(f"{took} without factoring {n}.")
    else:
        lines.append(f"{took} to factor {n}.")
    lines += [f"Warning: {warning}." for warning in history.warnings]
    return lines


@pytest.fixture(scope="session")
def semiprime_histories():
    """One hundred seeded sessions at N = 1039 * 1279, shared across tests."""
    from shorsim import factor

    return [factor(1328881, 41, seed=seed) for seed in range(100)]
