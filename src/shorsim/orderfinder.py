"""One simulated order-finding session for a fixed base y.

Each trial measures the work register (through the readout sampler),
extracts a candidate order as the denominator of the best convergent of
c / q below the modulus, and verifies the candidate by modular
exponentiation. The candidate is accepted as soon as y**candidate == 1
(mod N); this admits proper multiples of the true order, exactly as the
verification step itself does, and the factoring stage works with
whatever order was verified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import FactoringParams
from .numtheory import convergents, modpow
from .sampler import RandomSource, ReadoutSampler


@dataclass(frozen=True)
class OrderResult:
    """One measurement trial: readout, extracted candidate, verification."""

    trial_index: int
    readout: int
    candidate_order: int
    verified: bool


def find_order(
    y: int,
    params: FactoringParams,
    sampler: ReadoutSampler,
    rng: RandomSource,
    first: int,
    budget: int,
) -> list[OrderResult]:
    """Run trials numbered first, first + 1, ... until a candidate order
    verifies or `budget` trials have run.

    Returns every trial in order; the order was found iff the list is
    nonempty and its last entry is verified.
    """
    trials: list[OrderResult] = []
    for index in range(first, first + budget):
        c = sampler.draw(rng)
        candidate = convergents(c, params.q, params.n).denominator
        verified = modpow(y, candidate, params.n) == 1
        trials.append(OrderResult(index, c, candidate, verified))
        if verified:
            break
    return trials
