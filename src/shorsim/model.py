"""Register sizing and the exact readout-probability model.

A work register of L qubits has q = 2**L basis states. When the hidden
order of the base y mod N is r, the register values a in [0, q) fall
into r residue classes mod r: s = q mod r classes of A0 + 1 values and
r - s classes of A0 values, where A0 = q // r. Measuring the work
register returns readout c with probability (Shor 1997, section 5)

    P(c) = [s sin(pi (A0+1) d/q)**2 + (r-s) sin(pi A0 d/q)**2]
           / (q**2 sin(pi d/q)**2)

where d = r c mod q. Each sin(pi x/q)**2 depends on x only mod q, so
any d congruent to r c works, such as the signed distance from r c to
the nearest multiple of q. At d = 0 the limit is
P = (s (A0+1)**2 + (r-s) A0**2) / q**2, which is 1/r when r divides q.
The products A d are reduced mod q in exact integer arithmetic before
any sine is taken: r c and A d overflow the 53-bit float mantissa long
before the angles involved become small, so rounding them in floats
would place whole peaks on the wrong readout.
A sine whose argument reduces to a multiple of pi is exactly zero, so
when r divides q every readout off the r peaks has P = 0 exactly; for
any other order every readout has P > 0. At q = 2**41, 2**67 and 2**96,
prob lies within 24 ulp of the closed form evaluated at 80 digits (the
worst of 30,000 random peaks, neighbours and cell points was 5.6 ulp).
That bound is prob's alone: the sampler accepts readouts by prob, but its
draws carry a larger error from the 2**-53 grid of its tail offset draw
(shorsim.sampler's docstring says how large).
"""

from __future__ import annotations

import math
import random
from dataclasses import KW_ONLY, dataclass

from .numtheory import MAX_MODULUS, is_prime

MAX_QUBITS = 96
_INT, _INT_OR_NONE = (int,), (int, type(None))  # the types FactoringParams allows


class PrimeInput(ValueError):
    """The number to be factored must be composite."""


class InputTooLarge(ValueError):
    """The number to be factored exceeds the supported ten-digit range."""


def safe_qubits(n: int) -> int:
    """Smallest work-register size L with 2**L >= n**2.

    At this size every order r <= n is recoverable from a dominant
    readout by the continued-fraction step; smaller registers make the
    extraction increasingly likely to overshoot to a spurious convergent.
    """
    _check_modulus(n)
    return _safe_qubits(n)


def _safe_qubits(n: int) -> int:
    """safe_qubits(n) without its checks, for an n that has passed them."""
    return (n * n - 1).bit_length()


def _check_modulus(n: int) -> None:
    if type(n) is not int:  # nor a bool or any other subclass
        raise TypeError("n must be an int")
    if n < 4:
        raise ValueError("n must be >= 4")
    if n > MAX_MODULUS:
        try:
            shown = str(n)
        except ValueError:  # past the interpreter's limit on int-to-str digits
            shown = f"a {n.bit_length()}-bit number"
        raise InputTooLarge(f"{shown} has more than ten digits")
    if is_prime(n):
        raise PrimeInput(f"{n} is prime")


@dataclass(frozen=True, init=False)
class FactoringParams:
    """Configuration for one factoring session, validated on construction.

    qubits defaults to the safe size for n. order_ceiling accepts "sqrt"
    (the default cap isqrt(n)), None (no cap), or a positive int. seed
    defaults to a fresh 64-bit value. A bool is refused for every field, as
    it is for n, and any other non-int for qubits, seed and max_trials, an
    int subclass among them, as to_jsonl writes ints through str. The
    constructor checks the fields and stores them, with qubits, seed and
    order_ceiling resolved, in one step, so building again from the fields
    gives an equal object.
    """

    n: int
    qubits: int | None = None
    seed: int | None = None
    _: KW_ONLY
    max_trials: int = 100
    order_ceiling: int | str | None = "sqrt"

    def __init__(
        self, n: int, qubits: int | None = None, seed: int | None = None, *,
        max_trials: int = 100, order_ceiling: int | str | None = "sqrt",
    ) -> None:
        # checked by type first, each with the types it allows; order_ceiling's
        # values are checked below
        for name, value, allowed in (
            ("qubits", qubits, _INT_OR_NONE), ("seed", seed, _INT_OR_NONE),
            ("max_trials", max_trials, _INT), ("order_ceiling", order_ceiling, ()),
        ):
            if type(value) is bool:
                raise TypeError(f"{name} must not be a bool")
            if allowed and type(value) not in allowed:  # nor any other int subclass
                raise TypeError(f"{name} must be an int, not {type(value).__name__}")
        _check_modulus(n)
        if qubits is None:
            qubits = _safe_qubits(n)
        if not 1 <= qubits <= MAX_QUBITS:
            raise ValueError(f"qubits must be in [1, {MAX_QUBITS}]")
        if max_trials < 1:
            raise ValueError("max_trials must be >= 1")
        if order_ceiling == "sqrt":
            ceiling: int | None = math.isqrt(n)
        elif order_ceiling is None:
            ceiling = None
        elif type(order_ceiling) is int and order_ceiling >= 1:
            ceiling = order_ceiling
        else:
            raise ValueError("order_ceiling must be 'sqrt', None, or a positive int")
        if seed is None:
            # 64 bits from the OS, as secrets draws them, without importing secrets and hashlib
            seed = random.SystemRandom().getrandbits(64)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        # frozen: every field stored at once, past the frozen __setattr__
        self.__dict__.update(
            n=n, qubits=qubits, seed=seed, max_trials=max_trials, order_ceiling=ceiling
        )

    @property
    def q(self) -> int:
        """The number of work-register basis states, 2**qubits."""
        return 1 << self.qubits

    @property
    def ceiling(self) -> int:
        """The largest base order a session accepts: order_ceiling capped at
        q, since the work register must be able to index any accepted order."""
        if self.order_ceiling is None:
            return self.q
        return min(self.order_ceiling, self.q)


def prob(c: int, r: int, q: int) -> float:
    """Probability of measuring the int readout c when the hidden order is r."""
    check_register(r, q)
    if type(c) is not int or not 0 <= c < q:  # nor a bool
        raise ValueError("require 0 <= c < q")
    d = r * c % q
    a0, s = divmod(q, r)
    if d == 0:
        return (s * (a0 + 1) ** 2 + (r - s) * a0 * a0) / (q * q)
    num = s * _sin_squared((a0 + 1) * d, q) + (r - s) * _sin_squared(a0 * d, q)
    return num / (q * q * _sin_squared(d, q))


def _sin_squared(x: int, q: int) -> float:
    """sin(pi * x / q)**2, with x folded exactly into [0, q/2] first."""
    x %= q
    if 2 * x > q:
        x = q - x
    return math.sin(math.pi * (x / q)) ** 2


def check_register(r: int, q: int) -> None:
    """Require q to be a power of two and r an int with 1 <= r <= q."""
    if q < 1 or q & (q - 1):
        raise ValueError("q must be a power of two")
    if type(r) is not int or not 1 <= r <= q:
        raise ValueError("require 1 <= r <= q")


def dominant_readouts(r: int, q: int) -> list[int]:
    """The r readouts carrying nearly all probability mass, ascending.

    One readout per m in [0, r): the integer nearest m*q/r, with
    half-integer ties rounded down. Pairwise distinct whenever r <= q.
    """
    check_register(r, q)
    return [(2 * m * q + r - 1) // (2 * r) for m in range(r)]


def dominant_mass(r: int, q: int) -> float:
    """Total probability carried by the dominant readouts."""
    return math.fsum(prob(c, r, q) for c in dominant_readouts(r, q))
