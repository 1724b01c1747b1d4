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


class TrialCounter:
    """Session-global trial budget; numbering runs on across base changes."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = limit
        self.count = 0

    @property
    def remaining(self) -> int:
        return self.limit - self.count

    def take(self) -> int | None:
        """Next 1-based trial index, or None when the budget is spent."""
        if self.count >= self.limit:
            return None
        self.count += 1
        return self.count


def find_order(
    y: int,
    params: FactoringParams,
    sampler: ReadoutSampler,
    rng: RandomSource,
    counter: TrialCounter,
) -> list[OrderResult]:
    """Run trials until a candidate order verifies or the budget runs out.

    Returns every trial in order; the subcycle succeeded iff the list is
    nonempty and its last entry is verified.
    """
    trials: list[OrderResult] = []
    while True:
        index = counter.take()
        if index is None:
            return trials
        c = sampler.draw(rng)
        candidate = convergents(c, params.q, params.n).denominator
        verified = modpow(y, candidate, params.n) == 1
        trials.append(OrderResult(index, c, candidate, verified))
        if verified:
            return trials
