"""The classical factoring loop around the simulated order finder.

A session draws random bases y. A base sharing a factor with N ends the
session immediately (the shortcut the final gcd would find anyway). An
honest base has its order found through the simulated measurement
trials; an even verified order r is then split as x = y**(r/2) and the
session reports gcd(x + 1, N) and gcd(x - 1, N), retrying with a new
base when the split is trivial or r is odd. One global trial budget
spans all bases.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

from .model import FactoringParams
from .numtheory import NotCoprime, is_prime, multiplicative_order
from .orderfinder import OrderResult, find_order
from .sampler import RandomSource, ReadoutSampler


class Outcome(str, enum.Enum):
    """How one attempt (one chosen base) ended."""

    SHARED_FACTOR = "shared_factor_shortcut"
    ORDER_ODD = "order_odd"
    TRIVIAL_FACTORS = "trivial_factors"
    SUCCESS = "success"
    TRIAL_BUDGET_EXHAUSTED = "trial_budget_exhausted"


@dataclass(frozen=True)
class AttemptRecord:
    """One base that ended a pick and everything that happened with it.

    order is the verified order for ORDER_ODD / TRIVIAL_FACTORS / SUCCESS
    and None otherwise; factors carries the gcd pair whenever one was
    computed, including trivial pairs.
    """

    y: int
    outcome: Outcome
    order: int | None = None
    trials: tuple[OrderResult, ...] = ()
    factors: tuple[int, int] | None = None


@dataclass(frozen=True)
class FactoringHistory:
    """Complete record of one factoring session.

    attempts lists every base drawn, in draw order: a base rejected by the
    order ceiling as its bare int y, any other as its AttemptRecord.
    """

    params: FactoringParams
    attempts: tuple[AttemptRecord | int, ...]
    total_trials: int
    elapsed: float
    factors: tuple[int, int] | None
    failure: Outcome | None
    warnings: tuple[str, ...] = ()

    @property
    def succeeded(self) -> bool:
        return self.factors is not None

    @classmethod
    def of(
        cls,
        params: FactoringParams,
        attempts: list[AttemptRecord | int] | tuple[AttemptRecord | int, ...],
        total_trials: int,
        elapsed: float,
    ) -> FactoringHistory:
        """The history of a session that made these attempts.

        The last attempt, an AttemptRecord, decides the session: its
        factors when it is a SUCCESS or SHARED_FACTOR, else a
        TRIAL_BUDGET_EXHAUSTED failure.
        """
        factors = None
        if attempts and attempts[-1].outcome in (Outcome.SUCCESS, Outcome.SHARED_FACTOR):
            factors = attempts[-1].factors
        failure = None if factors else Outcome.TRIAL_BUDGET_EXHAUSTED
        warnings = tuple(_session_warnings(params.n, factors))
        return cls(params, tuple(attempts), total_trials, elapsed, factors, failure, warnings)


def pick_y(
    n: int, rng: RandomSource, ceiling: int, attempts: list[AttemptRecord | int]
) -> AttemptRecord | tuple[int, int]:
    """Draw bases uniformly from [2, n - 1] until one is usable.

    Each base whose order exceeds `ceiling` is appended to `attempts` as its
    bare int and redrawn. Returns the SHARED_FACTOR record of a base with
    gcd(y, n) > 1, else (y, exact order).
    """
    append = attempts.append
    for y in rng.randints(2, n - 1):  # endless
        try:
            # a module attribute looked up per base, so a wrapper put there sees it
            r = multiplicative_order(y, n, ceiling)
        except NotCoprime:
            g = math.gcd(y, n)
            return AttemptRecord(y, Outcome.SHARED_FACTOR, factors=(g, n // g))
        if r is not None:
            return y, r
        append(y)


def extract_factors(y: int, r: int, n: int) -> tuple[Outcome, tuple[int, int] | None]:
    """Try the even-order split for a verified order r of y mod n.

    Returns (ORDER_ODD, None) for odd r; otherwise the gcd pair
    (gcd(x + 1, n), gcd(x - 1, n)) for x = y**(r/2), flagged SUCCESS when
    both members are proper factors and TRIVIAL_FACTORS when either
    is 1 or n.
    """
    if pow(y, r, n) != 1:
        raise ValueError(f"{r} is not an annihilating exponent of {y} mod {n}")
    if r % 2:
        return Outcome.ORDER_ODD, None
    x = pow(y, r // 2, n)
    p1 = math.gcd(x + 1, n)
    p2 = math.gcd(x - 1, n)
    if p1 in (1, n) or p2 in (1, n):
        return Outcome.TRIVIAL_FACTORS, (p1, p2)
    return Outcome.SUCCESS, (p1, p2)


def factor(
    n: int,
    qubits: int | None = None,
    seed: int | None = None,
    *,
    max_trials: int = 100,
    order_ceiling: int | str | None = "sqrt",
) -> FactoringHistory:
    """Factor n through a full simulated session. See FactoringParams.build."""
    params = FactoringParams.build(
        n, qubits, seed, max_trials=max_trials, order_ceiling=order_ceiling
    )
    return run_session(params)


def run_session(params: FactoringParams) -> FactoringHistory:
    """Run one factoring session to completion under fixed parameters."""
    rng = RandomSource(params.seed)
    n, budget = params.n, params.max_trials
    trials_run = 0
    attempts: list[AttemptRecord | int] = []
    start = time.perf_counter()
    while trials_run < budget:
        choice = pick_y(n, rng, params.ceiling, attempts)
        if type(choice) is not tuple:
            attempts.append(choice)
            break
        y, true_order = choice
        sampler = ReadoutSampler(y, true_order, params.q)
        trials = tuple(find_order(y, params, sampler, rng, trials_run + 1, budget - trials_run))
        trials_run += len(trials)
        if not trials[-1].verified:
            attempts.append(AttemptRecord(y, Outcome.TRIAL_BUDGET_EXHAUSTED, trials=trials))
            break
        found = trials[-1].candidate_order
        outcome, pair = extract_factors(y, found, n)
        attempts.append(AttemptRecord(y, outcome, found, trials, pair))
        if outcome is Outcome.SUCCESS:
            break
    return FactoringHistory.of(params, attempts, trials_run, time.perf_counter() - start)


def _session_warnings(n: int, factors: tuple[int, int] | None) -> list[str]:
    if factors is None:
        return []
    out = []
    a, b = factors
    if a * b != n:
        out.append(f"reported factors {a} * {b} != {n}; {n} has more than two prime factors")
    for f in factors:
        if not is_prime(f):
            out.append(f"reported factor {f} of {n} is composite")
    return out


__all__ = [
    "Outcome",
    "AttemptRecord",
    "FactoringHistory",
    "NotCoprime",
    "pick_y",
    "extract_factors",
    "factor",
    "run_session",
]
