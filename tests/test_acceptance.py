"""The ten acceptance checks, one visible PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v` to see the lines; every
check also asserts, so the suite fails loudly when a bound is missed.
"""

import math
import random as stdlib_random

import pytest

from shorsim.cli import main
from shorsim.model import dominant_mass, prob, safe_qubits
from shorsim.numtheory import convergents, multiplicative_order
from shorsim.sampler import RandomSource, ReadoutSampler
from shorsim.factorizer import Outcome, factor
from conftest import brute_convergent, chi_square_pvalue


def report(capsys, number: int, description: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {description}{tail}")
    assert ok, f"criterion {number}: {description}{tail}"


def test_criterion_01_order_oracle(capsys):
    got = (multiplicative_order(56, 187), multiplicative_order(36, 187))
    report(capsys, 1, "orders of 56 and 36 mod 187 are 16 and 40", got == (16, 40),
           f"got {got}")


def test_criterion_02_safe_register_sizes(capsys):
    got = (safe_qubits(187), safe_qubits(1328881), safe_qubits(25610987))
    report(capsys, 2, "safe register sizes for 187 / 1328881 / 25610987",
           got == (16, 41, 50), f"got {got}")


def test_criterion_03_dominant_mass(capsys):
    mass = dominant_mass(40, 1 << 16)
    report(capsys, 3, "dominant readouts at (187, 16, 36) carry 0.7792 of the mass",
           abs(mass - 0.7792) <= 1e-4, f"got {mass:.6f}")


def test_criterion_04_normalization(capsys):
    rng = stdlib_random.Random(20240817)
    worst = 0.0
    for _ in range(150):
        bits = rng.randint(4, 12)
        q = 1 << bits
        r = rng.randint(2, q // 4)
        while q % r == 0:
            r = rng.randint(2, q // 4)
        worst = max(worst, abs(math.fsum(prob(c, r, q) for c in range(q)) - 1.0))
    for bits in range(2, 13):
        q = 1 << bits
        for j in range(bits + 1):
            worst = max(worst, abs(math.fsum(prob(c, 1 << j, q) for c in range(q)) - 1.0))
    report(capsys, 4, "spectrum sums to 1 within 1e-12 for divisor and other orders",
           worst <= 1e-12, f"worst |sum - 1| = {worst:.1e}")


def test_criterion_05_convergent_recovery(capsys):
    rng = stdlib_random.Random(99)
    q = 1 << 41
    bound = 1 << 20
    ok = True
    for i in range(1000):
        r = rng.randint(2, (1 << 16) - 1)
        m = rng.randrange(r)
        c = (2 * m * q + r - 1) // (2 * r)
        den = convergents(c, q, bound)
        g = math.gcd(m, r)
        if g == 1:
            ok = ok and den == r
        else:
            ok = ok and den == r // g and r % den == 0 and den < r
        if i < 100:  # independent exhaustive-enumeration oracle
            ok = ok and den == brute_convergent(c, q, bound)[1]
    report(capsys, 5, "planted fractions recovered through continued fractions", ok)


def test_criterion_06_session_readouts(capsys):
    a = convergents(656741049346, 1 << 41, 1328881)
    b = convergents(2137586189645, 1 << 41, 1328881)
    report(capsys, 6, "session readouts extract orders 519 and 1038",
           (a, b) == (519, 1038), f"got {(a, b)}")


def test_criterion_07_end_to_end_success_rate(capsys, semiprime_histories):
    big = sum(
        1
        for h in semiprime_histories
        if h.succeeded and set(h.factors) == {1039, 1279}
    )
    small = sum(
        1
        for s in range(100)
        if set(factor(187, 16, seed=s).factors or ()) == {11, 17}
    )
    report(capsys, 7, "sessions factor 1328881 (>=95/100) and 187 (>=99/100)",
           big >= 95 and small >= 99, f"got {big}/100 and {small}/100")


def test_criterion_08_sampler_fidelity(capsys):
    r, q = 4, 1 << 8
    sampler = ReadoutSampler(r, q)
    rng = RandomSource(20240818)
    observed: dict[int, int] = {}
    for _ in range(100_000):
        c = sampler.draw(rng)
        observed[c] = observed.get(c, 0) + 1
    expected = {c: prob(c, r, q) * 100_000 for c in range(q) if prob(c, r, q) > 0.0}
    p = chi_square_pvalue(observed, expected)
    report(capsys, 8, "sampler matches the exact spectrum at (15, 8, 7)",
           p > 1e-3, f"chi-square p = {p:.4f}")


def test_criterion_09_sub_safe_register_mix(capsys, tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench", "25610987",
            "--qubits", "30",
            "--runs", "8",
            "--seed", "1000",
            "--out", str(out),
        ]
    )
    capsys.readouterr()  # drop the bench table from the captured stream
    rows = out.read_text().strip().splitlines()[1:]
    outcomes = [row.split(",")[6] for row in rows]
    ok = (
        code == 0
        and len(outcomes) == 8
        and "success" in outcomes
        and Outcome.TRIAL_BUDGET_EXHAUSTED.value in outcomes
    )
    report(capsys, 9, "8-run bench at a 30-qubit register mixes successes and failures",
           ok, f"outcomes {outcomes}")


def test_criterion_10_trial_count_bound(capsys, semiprime_histories):
    verified_counts = [
        len(a.trials)
        for h in semiprime_histories
        for a in h.attempts
        if a.outcome in (Outcome.SUCCESS, Outcome.ORDER_ODD, Outcome.TRIVIAL_FACTORS)
    ]
    mean = sum(verified_counts) / len(verified_counts)
    bound = math.log(1328881)
    report(capsys, 10, "mean trials per verified order stays under ln(1328881)",
           mean < bound, f"mean {mean:.2f} over {len(verified_counts)} subcycles, bound {bound:.1f}")


def test_all_criteria_are_present():
    names = [n for n in globals() if n.startswith("test_criterion_")]
    assert len(names) == 10
