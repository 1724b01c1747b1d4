"""The classical factoring loop around the simulated order finder.

A session draws random bases y. A base sharing a factor with N ends the
session immediately (the shortcut the final gcd would find anyway). An
honest base has its order found through the simulated measurement
trials; an even verified order r is then split as x = y**(r/2) and the
session reports gcd(x + 1, N) and gcd(x - 1, N), retrying with a new
base when the split is trivial or r is odd. One global trial budget
spans all bases. Each pick is one AttemptRecord: the bases the order
ceiling rejected in it, and the base that ended it, whose verdict the
constructor derives from the base and its trials.

Two process-wide memos (functools.lru_cache, each bounded at
_MEMO_ENTRIES keys, like the trial memo of orderfinder) keep what a base
derives from a few ints, so sessions at one small N stop rebuilding it:
the ReadoutSampler of each (r, q), and extract_factors itself, keyed by
(y, r, N). A hit returns the object a miss built, whose fields never
change, so the memos change no draw, record or verdict.
"""

from __future__ import annotations

import enum
import functools
import math
import time
from dataclasses import dataclass, field

from .model import FactoringParams
from .numtheory import _MEMO_ENTRIES, NotCoprime, is_prime, multiplicative_order
from .orderfinder import OrderResult, find_order
from .sampler import RandomSource, ReadoutSampler


class Outcome(str, enum.Enum):
    """How one attempt (one chosen base) ended."""

    SHARED_FACTOR = "shared_factor_shortcut"
    ORDER_ODD = "order_odd"
    TRIVIAL_FACTORS = "trivial_factors"
    SUCCESS = "success"
    TRIAL_BUDGET_EXHAUSTED = "trial_budget_exhausted"


# the members as module globals, read once or more per record: a global
# skips the attribute lookup on the enum class that Outcome.X makes
_SHARED_FACTOR = Outcome.SHARED_FACTOR
_ORDER_ODD = Outcome.ORDER_ODD
_TRIVIAL_FACTORS = Outcome.TRIVIAL_FACTORS
_SUCCESS = Outcome.SUCCESS
_BUDGET_EXHAUSTED = Outcome.TRIAL_BUDGET_EXHAUSTED
_FACTORING = (_SUCCESS, _SHARED_FACTOR)  # the outcomes that report factors


@dataclass(frozen=True, init=False)
class AttemptRecord:
    """One pick: the bases the order ceiling rejected, and the base y that
    ended it with everything that happened with y.

    AttemptRecord(y, trials, n, rejected=()) checks its arguments, derives
    outcome, order and factors, and stores every field in one step; n and
    rejected, the rejected bases in draw order, are stored, so a history
    can refuse a record built for another n. With no trials, y shares
    g = gcd(y, n) > 1 with n: SHARED_FACTOR, (g, n // g). A verified last
    trial's candidate is the order, and extract_factors(y, order, n) gives
    the rest. Otherwise the budget ran out: TRIAL_BUDGET_EXHAUSTED. A y
    that is not an int, a bool among them, a rejected that is not a tuple
    of such ints, or trials that are not a tuple of OrderResults, whose
    constructor holds a trial's own rules, raises TypeError; a y or a
    rejected base outside [2, n), which the reader refuses, a trial built
    for another y or n, a gcd of 1 with no trials or above 1 with some, or
    a verified trial before the last, raises ValueError.
    """

    y: int
    outcome: Outcome = field(init=False)
    order: int | None = field(init=False)
    trials: tuple[OrderResult, ...]
    factors: tuple[int, int] | None = field(init=False)
    n: int
    rejected: tuple[int, ...] = ()

    def __init__(
        self, y: int, trials: tuple[OrderResult, ...], n: int, rejected: tuple[int, ...] = ()
    ) -> None:
        order = None
        if type(y) is not int:
            raise TypeError(f"y must be an int, not {type(y).__name__}")
        # one pass in C over the bases, the bulk of a session's entries
        if type(rejected) is not tuple or rejected and {*map(type, rejected)} != {int}:
            raise TypeError(f"rejected must be a tuple of ints, not {rejected!r}")
        if not 2 <= y < n:
            raise ValueError(f"y {y} is not in [2, {n})")
        # one min and one max in C over the bases
        if rejected and (min(rejected) < 2 or max(rejected) >= n):
            bad = next(base for base in rejected if not 2 <= base < n)
            raise ValueError(f"rejected base {bad} is not in [2, {n})")
        if type(trials) is not tuple:
            raise TypeError(f"trials must be a tuple, not {type(trials).__name__}")
        for trial in trials:
            if type(trial) is not OrderResult:  # whose constructor checked it
                raise TypeError(f"a trial of {y} is a {type(trial).__name__}, not an OrderResult")
            if trial.y != y or trial.n != n:
                raise ValueError(f"a trial of {trial.y} mod {trial.n} is not one of {y} mod {n}")
        for trial in trials[:-1]:
            if trial.verified:
                raise ValueError(f"a trial of {y} before its last is verified")
        g = math.gcd(y, n)
        if not trials:
            if g == 1:
                raise ValueError(f"y {y} shares no factor with {n}")
            outcome, factors = _SHARED_FACTOR, (g, n // g)
        elif g != 1:
            raise ValueError(f"y {y} shares a factor with {n}, gcd {g}, so no trial runs on it")
        elif trials[-1].verified:
            order = trials[-1].candidate_order
            # the split memo, a module attribute looked up per record, so a
            # wrapper put there sees every split, hit or miss
            outcome, factors = extract_factors(y, order, n)
        else:
            outcome, factors = _BUDGET_EXHAUSTED, None
        # frozen: every field stored at once, past the frozen __setattr__
        self.__dict__.update(
            y=y, outcome=outcome, order=order, trials=trials, factors=factors, n=n,
            rejected=rejected,
        )


@dataclass(frozen=True, init=False)
class FactoringHistory:
    """Complete record of one factoring session.

    attempts holds one AttemptRecord per pick, in draw order. The
    constructor, FactoringHistory(params, attempts, elapsed), checks its
    arguments and stores them with total_trials, factors, failure and
    warnings, which it derives and which cannot be passed, in one step:
    total_trials counts the trials of every record, and the last attempt
    decides the session, so factors is its pair when it is a SUCCESS or
    SHARED_FACTOR, else failure is TRIAL_BUDGET_EXHAUSTED. A params not a
    FactoringParams, an elapsed not a float in [0, inf) or attempts not a tuple
    of AttemptRecords raises TypeError (ValueError for a float out of range or -0.0).
    Attempts that run_session cannot produce raise ValueError: none at all,
    a record built for an n other than params.n, a trial built for a
    register other than params.q, an attempt after the one that ended the
    session, more than params.max_trials trials, or a failure that stops
    short of them.
    """

    params: FactoringParams
    attempts: tuple[AttemptRecord, ...]
    total_trials: int = field(init=False)
    elapsed: float
    factors: tuple[int, int] | None = field(init=False)
    failure: Outcome | None = field(init=False)
    warnings: tuple[str, ...] = field(init=False)

    def __init__(
        self, params: FactoringParams, attempts: tuple[AttemptRecord, ...], elapsed: float
    ) -> None:
        _check_params(params)
        # the sign bit refuses -0.0 as well, which no session takes
        if type(elapsed) is not float or math.copysign(1, elapsed) < 0 or not elapsed < math.inf:
            error = ValueError if type(elapsed) is float else TypeError
            raise error(f"elapsed {elapsed!r} is not a float in [0, inf)")
        if type(attempts) is not tuple:
            raise TypeError(f"attempts must be a tuple, not {type(attempts).__name__}")
        n, q, budget = params.n, params.q, params.max_trials
        if not attempts:
            raise ValueError("no AttemptRecord ended the session: there are no attempts")
        trials, ended = 0, None
        for position, attempt in enumerate(attempts):
            if type(attempt) is not AttemptRecord:
                raise TypeError(f"attempts[{position}] is {attempt!r}, not an AttemptRecord")
            if attempt.n != n:
                raise ValueError(f"attempts[{position}] is a record for {attempt.n}, not {n}")
            for trial in attempt.trials:
                if trial.q != q:
                    raise ValueError(f"attempts[{position}] has a trial for q {trial.q}, not {q}")
            if ended is not None:
                raise ValueError(f"base {attempt.y} comes after the session ended at trial {ended}")
            trials += len(attempt.trials)
            # only an odd order or a trivial split with budget left goes on
            if trials >= budget or attempt.order is None or attempt.outcome in _FACTORING:
                ended = trials
        if trials > budget:
            raise ValueError(f"the attempts run {trials} trials, past max_trials {budget}")
        last = attempts[-1]
        factors = last.factors if last.outcome in _FACTORING else None
        if factors is None and trials < budget:
            raise ValueError(f"the session stops without factors after {trials} of {budget} trials")
        warnings = []
        if factors is not None:
            a, b = factors
            if a * b != n:
                warnings.append(
                    f"reported factors {a} * {b} != {n}; {n} has more than two prime factors"
                )
            for f in factors:
                if not is_prime(f):
                    warnings.append(f"reported factor {f} of {n} is composite")
        # frozen: every field stored at once, past the frozen __setattr__
        self.__dict__.update(
            params=params, attempts=attempts, total_trials=trials, elapsed=elapsed,
            factors=factors, failure=None if factors else _BUDGET_EXHAUSTED,
            warnings=tuple(warnings),
        )

    @property
    def succeeded(self) -> bool:
        return self.factors is not None


def _check_params(params: FactoringParams) -> None:
    if not isinstance(params, FactoringParams):
        raise TypeError(f"params must be a FactoringParams, not {type(params).__name__}")


def pick_y(
    n: int, rng: RandomSource, ceiling: int
) -> AttemptRecord | tuple[int, int, tuple[int, ...]]:
    """Draw bases uniformly from [2, n - 1] until one is usable.

    The bases are drawn by the chunk rule over [2, n - 1] (see
    RandomSource). Each base whose order exceeds `ceiling` is
    rejected and redrawn. Returns the SHARED_FACTOR record of a base with
    gcd(y, n) > 1, which carries the rejected bases, else (y, exact order,
    the rejected bases in draw order).
    """
    rejected: list[int] = []
    append = rejected.append
    # the chunk rule: n - 3 < 2**53 takes one uniform a try
    span = n - 3
    scale = float(1 << span.bit_length())
    rand = rng.random
    while True:
        v = int(rand() * scale)
        if v > span:
            continue
        y = 2 + v
        try:
            # a module attribute looked up per base, so a wrapper put there sees it
            r = multiplicative_order(y, n, ceiling)
        except NotCoprime:
            return AttemptRecord(y, (), n, tuple(rejected))
        if r is not None:
            return y, r, tuple(rejected)
        append(y)


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _sampler(r: int, q: int) -> ReadoutSampler:
    """ReadoutSampler(r, q), kept for the last _MEMO_ENTRIES (r, q) looked up.

    ReadoutSampler is looked up as a module global on each miss, so a
    wrapper installed on shorsim.factorizer.ReadoutSampler sees every
    sampler built.
    """
    return ReadoutSampler(r, q)


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def extract_factors(y: int, r: int, n: int) -> tuple[Outcome, tuple[int, int] | None]:
    """Try the even-order split for a verified order r of y mod n.

    Returns (ORDER_ODD, None) for odd r; otherwise the gcd pair
    (gcd(x + 1, n), gcd(x - 1, n)) for x = y**(r/2), flagged SUCCESS when
    both members are proper factors and TRIVIAL_FACTORS when either
    is 1 or n. It trusts its caller: AttemptRecord passes only the candidate
    of a trial verified for the same y and n. The answers for the last
    _MEMO_ENTRIES (y, r, n) are kept (module docstring).
    """
    if r % 2:
        return _ORDER_ODD, None
    x = pow(y, r // 2, n)
    p1 = math.gcd(x + 1, n)
    p2 = math.gcd(x - 1, n)
    if p1 in (1, n) or p2 in (1, n):
        return _TRIVIAL_FACTORS, (p1, p2)
    return _SUCCESS, (p1, p2)


def factor(
    n: int,
    qubits: int | None = None,
    seed: int | None = None,
    *,
    max_trials: int = 100,
    order_ceiling: int | str | None = "sqrt",
) -> FactoringHistory:
    """Factor n through a full simulated session. See FactoringParams."""
    params = FactoringParams(n, qubits, seed, max_trials=max_trials, order_ceiling=order_ceiling)
    return run_session(params)


def run_session(params: FactoringParams) -> FactoringHistory:
    """Run one factoring session to completion under a FactoringParams, else TypeError."""
    _check_params(params)
    rng = RandomSource(params.seed)
    n, budget, ceiling, q = params.n, params.max_trials, params.ceiling, params.q
    trials_run = 0
    attempts: list[AttemptRecord] = []
    start = time.perf_counter()
    while trials_run < budget:
        choice = pick_y(n, rng, ceiling)
        if type(choice) is not tuple:
            attempts.append(choice)
            break
        y, true_order, rejected = choice
        trials = tuple(find_order(y, params, _sampler(true_order, q), rng, budget - trials_run))
        trials_run += len(trials)
        record = AttemptRecord(y, trials, n, rejected)
        attempts.append(record)
        # an unverified last trial spent the budget, which ends the loop
        if record.outcome is _SUCCESS:
            break
    return FactoringHistory(params, tuple(attempts), time.perf_counter() - start)

