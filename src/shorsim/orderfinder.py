"""One simulated order-finding session for a fixed base y.

Each trial measures the work register (through the readout sampler);
OrderResult derives the rest from the readout, for find_order and
from_jsonl alike: the candidate order, which convergents gives as the
denominator of the last convergent of c / q below the modulus, and its
verification by modular exponentiation. The candidate is accepted as
soon as y**candidate == 1 (mod N); this admits proper multiples of the
true order, exactly as the verification step itself does, and the
factoring stage works with whatever order was verified.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from .model import FactoringParams
from .numtheory import convergents, modpow
from .sampler import RandomSource, ReadoutSampler


@dataclass(frozen=True)
class OrderResult:
    """One measurement trial: readout, extracted candidate, verification.

    OrderResult(readout, y, q, n) derives candidate_order, the
    denominator convergents(readout, q, n) returns, and verified, whether
    y**candidate_order == 1 (mod n); neither can be passed. A trial's number
    is its position in the session. y, q and n are not stored, so a trial
    built for another base is refused only as the verified last trial of an
    AttemptRecord, where extract_factors raises.
    """

    readout: int
    candidate_order: int = field(init=False)
    verified: bool = field(init=False)
    y: InitVar[int]
    q: InitVar[int]
    n: InitVar[int]

    def __post_init__(self, y: int, q: int, n: int) -> None:
        # module attributes looked up per trial, so a wrapper put there sees
        # them; frozen: the derived fields are set once, here
        candidate = convergents(self.readout, q, n)
        object.__setattr__(self, "candidate_order", candidate)
        object.__setattr__(self, "verified", modpow(y, candidate, n) == 1)


def find_order(
    y: int,
    params: FactoringParams,
    sampler: ReadoutSampler,
    rng: RandomSource,
    budget: int,
) -> list[OrderResult]:
    """Run trials until a candidate order verifies or `budget` trials have run.

    Returns every trial in order; the order was found iff the list is
    nonempty and its last entry is verified.
    """
    trials: list[OrderResult] = []
    for _ in range(budget):
        trial = OrderResult(sampler.draw(rng), y, params.q, params.n)
        trials.append(trial)
        if trial.verified:
            break
    return trials
