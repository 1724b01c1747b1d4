"""One simulated order-finding session for a fixed base y.

Each trial measures the work register (through the readout sampler);
OrderResult derives the rest from the readout, for find_order and
from_jsonl alike: the candidate order, which convergents gives as the
denominator of the last convergent of c / q below the modulus, and its
verification by modular exponentiation. The candidate is accepted as
soon as y**candidate == 1 (mod N); this admits proper multiples of the
true order, exactly as the verification step itself does, and the
factoring stage works with whatever order was verified.

find_order and from_jsonl take each trial from _trial, a process-wide
memo (functools.lru_cache) of the records of the _MEMO_ENTRIES
(readout, y, q, n) looked up most recently, so a trial seen before, as at
one small N session after session, is not derived again. Both pass only
ints, the sampler's or the parsed stream's. A hit returns the frozen
record the constructor built, so the memo changes no candidate, verdict
or uniform consumed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .model import FactoringParams
from .numtheory import _MEMO_ENTRIES, convergents, modpow
from .sampler import RandomSource, ReadoutSampler


@dataclass(frozen=True)
class OrderResult:
    """One measurement trial: readout, extracted candidate, verification.

    OrderResult(readout, y, q, n) stores the readout with the base y, the
    register size q and the modulus n it was measured for, and derives
    candidate_order, the denominator convergents(readout, q, n) returns,
    and verified, whether y**candidate_order == 1 (mod n); neither can be
    passed. It alone holds a trial's rules: a readout not an int, a bool among
    them, raises TypeError; a readout outside [0, q), a y outside [2, n) or a q
    not a power of two raises ValueError. Its number is its session position.
    """

    readout: int
    candidate_order: int = field(init=False)
    verified: bool = field(init=False)
    y: int
    q: int
    n: int

    def __post_init__(self) -> None:
        readout, y, q, n = self.readout, self.y, self.q, self.n
        if type(readout) is not int:
            raise TypeError(f"readout must be an int, not {type(readout).__name__}")
        if not 0 <= readout < q:
            raise ValueError("require 0 <= c < q")
        if not 2 <= y < n:
            raise ValueError(f"y {y} is not in [2, {n})")
        if q & (q - 1):  # q > readout >= 0
            raise ValueError("q must be a power of two")
        # module attributes looked up per record built, so a wrapper put
        # there sees every trial derived (a memo hit derives none); frozen:
        # the derived fields are set once, here
        candidate = convergents(readout, q, n)
        object.__setattr__(self, "candidate_order", candidate)
        object.__setattr__(self, "verified", modpow(y, candidate, n) == 1)


# OrderResult(readout, y, q, n), looked up before it is derived
_trial = functools.lru_cache(maxsize=_MEMO_ENTRIES)(OrderResult)


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
    q, n = params.q, params.n
    for _ in range(budget):
        trial = _trial(sampler.draw(rng), y, q, n)
        trials.append(trial)
        if trial.verified:
            break
    return trials
