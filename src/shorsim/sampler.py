"""Readout sampling by rejection from a fixed envelope.

Enumerating the q = 2**L readout probabilities is hopeless at the
register sizes where factoring is interesting (q ~ N**2), so readouts
are drawn by rejection sampling (Devroye 1986, Non-Uniform Random
Variate Generation, II.3) and no table is ever built.

The readouts split into r cells, one per peak m in [0, r): cell m holds
the readouts whose nearest multiple of q/r is m*q/r, centred on the
dominant readout c_m; cell 0 wraps round mod q. Readout c_m + delta has
phasor residual d = e_m + r*delta with |e_m| <= r/2, so
|d| >= r*(|delta| - 1/2), and with A the larger residue-class size
ceil(q/r) and beta = 1 - 4/pi**2 (the largest excess of 1/sin(x)**2 over
1/x**2 on |x| <= pi/2)

    q**2 * P(c) / r <= min(A**2, q**2 / (pi**2 * d**2) + beta).

A proposal picks m uniformly, the next value of the draw's one
rng.randints(0, r - 1) stream, and an offset delta from a mixture lying
above that bound: a point mass at 0, a pair at +-1, a tail at
|delta| = k >= 2 with weight proportional to 1/(k*(k-1)), and a flat
part of height beta over every offset a cell can reach. A proposal
outside m's cell is rejected; one inside is accepted with probability
q**2 * P(c) / r over the envelope. A draw takes about two proposals when
r is well below q and at most about six when r is close to q, whatever
the sizes of r and q.

The draws are not exact. The tail offset k = 1 + int(1 / (1 - u)) comes
from a uniform u on a grid of 2**-53, so P(k) is a count of grid points
over 2**53 rather than 1/(k*(k-1)): within one grid point of it up to
about k = 2**20, broken down from about 2**27, and never above 2**53 + 1.
Cells reach offsets of 2**27 once q/r passes 2**28, as in every session
at the safe size of N = 1328881, 25610987 or a ten-digit N. A readout's
law is then off by something of order 1e-9 to 1e-8 in total variation,
far above prob's 24 ulp.

A process-wide memo keeps the acceptance heights q**2 * P(c) / r of the
_MEMO_ENTRIES (c, r, q) tested most recently, so a readout tested again
is not recomputed. Full, at q = 2**96, it holds 1.06 MB (tracemalloc, in a
fresh CPython 3.11 process). A hit returns the float a miss computes, so
the memo changes no draw and no uniform consumed. prob, dominant_mass and
dist do not use it.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Iterator

# dominant_readouts is unused here but stays importable from this module:
# perfbench's tracer looks the layers up as attributes of their callers.
from .model import check_register, dominant_readouts, prob  # noqa: F401
from .numtheory import _MEMO_ENTRIES

_FIFTY_THREE = 1 << 53
_BETA = 1.0 - 4.0 / math.pi**2


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _acceptance_height(c: int, r: int, q: int) -> float:
    """q**2 * P(c) / r, the height the acceptance uniform is compared with.

    prob is looked up as a module global on each miss, so a wrapper
    installed on shorsim.sampler.prob sees every probability computed.
    """
    return prob(c, r, q) * (q * q / r)


class RandomSource(random.Random):
    """Seeded deterministic uniform source.

    A random.Random (the Mersenne Twister) of which shorsim calls only the
    random() method, whose stream for a fixed seed is guaranteed stable
    across CPython versions and platforms, and randints, its one integer
    draw, built on random() alone. The methods inherited from random.Random
    are the standard library's; shorsim never calls them.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TypeError("seed must be an int")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        # random.Random.__init__(seed), without Random.seed's type dispatch
        super(random.Random, self).seed(seed)
        self.gauss_next = None

    def __reduce__(self):
        # random.Random's rebuilds the object with no seed, which __init__ needs
        return type(self), (0,), self.getstate()

    def randints(self, a: int, b: int) -> Iterator[int]:
        """Endless uniform integers in [a, b], each drawn lazily when taken.

        A span b - a of k bits tries ceil(k / 53) uniforms at a time, each
        scaled to a 53-bit chunk, top chunk first, and keeps the top k bits,
        until the value fits in the span. A one-value range takes no uniform.
        """
        span = b - a
        if span < 0:
            raise ValueError("empty range")
        if span == 0:
            while True:
                yield a
        k = span.bit_length()
        rand = self.random
        if k > 53:
            chunks = (k + 52) // 53
            while True:
                v = 0
                for _ in range(chunks):
                    v = (v << 53) | int(rand() * _FIFTY_THREE)
                v >>= chunks * 53 - k
                if v <= span:
                    yield a + v
        # one chunk: random() is a multiple of 2**-53, so scaling it by 2**k
        # is exact and int() keeps its top k bits
        scale = float(1 << k)
        while True:
            v = int(rand() * scale)
            if v <= span:
                yield a + v


class ReadoutSampler:
    """Rejection sampler for the readout distribution of order r on q cells.

    Exact but for the 2**-53 grid of its tail offset draw (see the module
    docstring). Holds only constants of the envelope fixed at construction;
    the one state draws share is the module's memo of acceptance heights,
    bounded at _MEMO_ENTRIES entries, which changes what a draw costs but
    never what it returns or consumes.

    Slotted, so the factorizer's memo of samplers, full of ten-digit
    orders at q = 2**96, stays under 2 MB on CPython 3.10 as on 3.11+;
    __weakref__ keeps a sampler weakly referenceable, as a profiler that
    tracks the samplers it has seen needs.
    """

    __slots__ = ("r", "q", "_peak", "_tail", "_pair", "_reach", "_total", "__weakref__")

    def __init__(self, r: int, q: int):
        check_register(r, q)
        self.r = r
        self.q = q
        # Envelope weights, in units of q**2 * P(c) / r.
        big = -(-q // r)
        self._peak = big * big - _BETA
        self._tail = q * q / (math.pi**2 * r * r)
        self._pair = min(self._peak, 4.0 * self._tail)
        self._reach = q // (2 * r) + 1  # no cell holds an offset beyond this
        self._total = (
            self._peak
            + 2.0 * self._pair
            + 2.0 * self._tail
            + _BETA * (2 * self._reach + 1)
        )

    def draw(self, rng: RandomSource) -> int:
        """Sample one readout value."""
        r, q = self.r, self.q
        for m in rng.randints(0, r - 1):  # endless: one peak per proposal
            delta = self._propose_offset(rng)
            centre = (2 * m * q + r - 1) // (2 * r)
            if not -q < 2 * (r * (centre + delta) - m * q) <= q:
                continue  # outside the cell of peak m
            c = (centre + delta) % q
            if rng.random() * self._envelope(delta) < _acceptance_height(c, r, q):
                return c

    def _propose_offset(self, rng: RandomSource) -> int:
        """An offset from the peak, drawn from the envelope's mixture."""
        u = rng.random() * self._total
        if u < self._peak:
            return 0
        u -= self._peak
        if u < 2.0 * self._pair:
            return -1 if u < self._pair else 1
        u -= 2.0 * self._pair
        if u < 2.0 * self._tail:
            # P(k) = 1/(k*(k-1)) for k >= 2
            k = 1 + int(1.0 / (1.0 - rng.random()))
            return -k if u < self._tail else k
        return next(rng.randints(-self._reach, self._reach))

    def _envelope(self, delta: int) -> float:
        """Envelope height at an offset inside a cell."""
        k = abs(delta)
        if k == 0:
            return self._peak + _BETA
        if k == 1:
            return self._pair + _BETA
        return self._tail / (k * (k - 1)) + _BETA
