import copy
import math
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shorsim.factorizer
import shorsim.sampler
from shorsim.factorizer import pick_y
from shorsim.model import dominant_mass, dominant_readouts, prob
from shorsim.numtheory import multiplicative_order
from shorsim.sampler import RandomSource, ReadoutSampler, _acceptance_height
from conftest import ScriptedRng, chi_square_pvalue, chunk_loop, circuit_law, uniforms_for


class TestRandomSource:
    def test_known_mersenne_twister_stream(self):
        # random.Random(12345).random() is stable across CPython releases
        rng = RandomSource(12345)
        assert rng.random() == pytest.approx(0.41661987254534116, abs=0.0)

    def test_same_seed_same_stream(self):
        a, b = RandomSource(99), RandomSource(99)
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]
        assert [chunk_loop(a, 0, 999) for _ in range(20)] == [
            chunk_loop(b, 0, 999) for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        assert RandomSource(1).random() != RandomSource(2).random()

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda rng: pickle.loads(pickle.dumps(rng))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_continue_the_stream(self, duplicate):
        rng = RandomSource(5)
        rng.random()
        twin = duplicate(rng)
        assert type(twin) is RandomSource
        assert [twin.random() for _ in range(100)] == [rng.random() for _ in range(100)]

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=20)
    def test_uniforms_are_the_mersenne_twister_stream(self, seed):
        ours, standard = RandomSource(seed), random.Random(seed)
        assert [ours.random() for _ in range(10_000)] == [
            standard.random() for _ in range(10_000)
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_seeds_as_random_random(self, seed):
        # seeded without random.Random.__init__, to the same generator state
        assert RandomSource(seed).getstate() == random.Random(seed).getstate()

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1])
    def test_inherited_methods_still_work(self, seed):
        # gauss keeps its spare normal in gauss_next, which __init__ must set
        ours, standard = RandomSource(seed), random.Random(seed)
        assert [ours.gauss() for _ in range(5)] == [standard.gauss() for _ in range(5)]
        for twin in (pickle.loads(pickle.dumps(ours)), copy.deepcopy(ours)):
            assert type(twin) is RandomSource
            assert twin.getstate() == ours.getstate()
            assert [twin.gauss() for _ in range(5)] == [standard.gauss() for _ in range(5)]
            standard.setstate(ours.getstate())

    def test_defines_no_public_method(self):
        # every public method is random.Random's, of which shorsim calls
        # random() alone, drawing each integer inline by the chunk rule
        own = {name for name in vars(RandomSource) if not name.startswith("_")}
        assert own == set()


class CountingSource(RandomSource):
    """RandomSource that counts the uniforms it hands out."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.uniforms = 0

    def random(self) -> float:
        self.uniforms += 1
        return super().random()


class FlatFirst:
    """Uniform source whose first uniform is 2.0 and whose others are
    rng's: past every part of the envelope, the 2.0 makes _propose_offset
    take the flat part, whatever the part's share of _total."""

    def __init__(self, rng):
        self.rng, self.first = rng, True

    def random(self) -> float:
        if self.first:
            self.first = False
            return 2.0
        return self.rng.random()


def flat_offset(sampler: ReadoutSampler, rng) -> int:
    """The offset sampler's flat part proposes from rng's uniforms."""
    return sampler._propose_offset(FlatFirst(rng))


# cells (r, q = 2**L) whose flat span 2 * reach takes every bit length from
# 2 to 130: r at and around the powers of two, where the span's bit length
# changes (r = 2**j gives 2**(L - j) + 2, just past a power of two), and
# anywhere up to q
flat_cells = st.integers(1, 130).flatmap(
    lambda bits: st.tuples(
        st.integers(1, bits).flatmap(lambda j: st.sampled_from([2**j - 1, 2**j, 2**j + 1]))
        | st.integers(2, 2**bits),
        st.just(2**bits),
    ).filter(lambda cell: 2 <= cell[0] <= cell[1])
)

# cells whose flat span 2 * reach has 3, 31, 53 (2**52 + 2 and near 2**53),
# 54 (2**53 + 2 and above) and 83 bits, the last at q = 2**96: one 53-bit
# chunk a try up to 53 bits, two past it
FLAT_CELLS = [
    (3, 8), (1038, 1 << 41), (256, 1 << 60), (129, 1 << 60), (128, 1 << 60), (127, 1 << 60),
    (10007, 1 << 96),
]


class TestFlatOffset:
    """A flat proposal's offset is the chunk rule's rejection loop over
    [-reach, reach], drawn inline."""

    @given(st.integers(0, 2**64 - 1), flat_cells)
    @settings(max_examples=300)
    def test_is_the_chunk_loop(self, seed, cell):
        sampler = ReadoutSampler(*cell)
        reach = sampler._reach
        stream, loop = CountingSource(seed), CountingSource(seed)
        assert [flat_offset(sampler, stream) for _ in range(40)] == [
            chunk_loop(loop, -reach, reach) for _ in range(40)
        ]
        assert stream.uniforms == loop.uniforms
        assert stream.random() == loop.random()

    @pytest.mark.parametrize("r,q", FLAT_CELLS)
    def test_is_the_chunk_loop_below_at_and_above_one_chunk(self, r, q):
        # seeded flat proposals never change
        sampler = ReadoutSampler(r, q)
        reach = sampler._reach
        stream, loop = CountingSource(31), CountingSource(31)
        assert [flat_offset(sampler, stream) for _ in range(300)] == [
            chunk_loop(loop, -reach, reach) for _ in range(300)
        ]
        assert stream.uniforms == loop.uniforms
        assert stream.random() == loop.random()

    @pytest.mark.parametrize("r,q", FLAT_CELLS)
    def test_edges_and_tries_drawn_again(self, r, q):
        # each edge offset scripted as its chunk uniforms, alone and after a
        # try past the span, the largest value of its k bits, drawn again
        sampler = ReadoutSampler(r, q)
        reach = sampler._reach
        past = (1 << (2 * reach).bit_length()) - 1 - reach
        for offset in (-reach, 1 - reach, 0, reach - 1, reach):
            for tries in ([offset], [past, offset]):
                rng = ScriptedRng([u for v in tries for u in uniforms_for(v, -reach, reach)])
                rng.uniforms.append(0.5)  # left over unless the draw takes too many
                assert flat_offset(sampler, rng) == offset
                assert rng.uniforms == [0.5]

    @given(st.integers(0, 2**64 - 1), flat_cells)
    @settings(max_examples=60)
    def test_offsets_lie_within_reach(self, seed, cell):
        sampler = ReadoutSampler(*cell)
        assert -sampler._reach <= flat_offset(sampler, RandomSource(seed)) <= sampler._reach

    def test_covers_every_offset(self):
        sampler = ReadoutSampler(3, 8)  # reach 2
        rng = RandomSource(7)
        assert {flat_offset(sampler, rng) for _ in range(500)} == {-2, -1, 0, 1, 2}

    @pytest.mark.parametrize("r,q", [(1038, 1 << 41), (10007, 1 << 96)])
    def test_draws_through_random(self, r, q):
        # a subclass that overrides random() sees every uniform used
        sampler, counted, plain = ReadoutSampler(r, q), CountingSource(5), RandomSource(5)
        for _ in range(50):
            flat_offset(sampler, counted)
        for _ in range(counted.uniforms):
            plain.random()
        assert counted.random() == plain.random()


# spans at and around the powers of two, where the bit length of a span,
# and with it the scale of its one uniform, changes: 1 is the span of r = 2
INLINE_SPANS = sorted({2**k + d for k in (0, 1, 2, 5, 10, 20, 33) for d in (-1, 0, 1)} - {0})


class TestInlineDrawsAreTheChunkLoop:
    """pick_y draws its bases, and ReadoutSampler.draw its peaks, by the
    chunk rule inline: on one seed, the values chunk_loop gives over
    [2, n - 1] and [0, r - 1], from as many uniforms."""

    SEED, DRAWS = 47, 300

    @pytest.mark.parametrize("span", INLINE_SPANS)
    def test_bases_of_pick_y(self, span, monkeypatch):
        # n - 3 = span; the order test refuses every base until the last
        n, bases = span + 3, []

        def order(y, modulus, ceiling):
            bases.append(y)
            return 2 if len(bases) == self.DRAWS else None

        monkeypatch.setattr(shorsim.factorizer, "multiplicative_order", order)
        ours, reference = CountingSource(self.SEED), CountingSource(self.SEED)
        y, _, rejected = pick_y(n, ours, n)
        expected = [chunk_loop(reference, 2, n - 1) for _ in range(self.DRAWS)]
        assert [*rejected, y] == bases == expected
        assert ours.uniforms == reference.uniforms

    @pytest.mark.parametrize("span", INLINE_SPANS)
    def test_peaks_of_draw(self, span, monkeypatch):
        # r - 1 = span; each proposal sits on its peak's centre, offset 0
        # for no uniform, and is refused by its acceptance uniform until the
        # last; q >= 2r gives each peak a centre of its own
        r, centres = span + 1, []
        q = 1 << (r.bit_length() + 1)

        class AtThePeak(ReadoutSampler):
            __slots__ = ()

            def _propose_offset(self, rng: RandomSource) -> int:
                return 0

        def height(c, r, q):
            centres.append(c)
            return math.inf if len(centres) == self.DRAWS else 0.0

        monkeypatch.setattr(shorsim.sampler, "_acceptance_height", height)
        ours, reference = CountingSource(self.SEED), CountingSource(self.SEED)
        readout = AtThePeak(r, q).draw(ours)
        expected = []
        for _ in range(self.DRAWS):
            expected.append((2 * chunk_loop(reference, 0, r - 1) * q + r - 1) // (2 * r))
            reference.random()  # the acceptance uniform
        assert centres == expected and readout == centres[-1]
        assert ours.uniforms == reference.uniforms


class TestReadoutSamplerBasics:
    def test_divisor_order_draws_only_peaks(self):
        sampler = ReadoutSampler(16, 1 << 16)
        rng = RandomSource(11)
        peaks = set(dominant_readouts(16, 1 << 16))
        draws = [sampler.draw(rng) for _ in range(1000)]
        assert set(draws) <= peaks
        assert len(set(draws)) == 16  # 1000 draws hit all 16 equal peaks

    def test_order_one_always_reads_zero(self):
        sampler = ReadoutSampler(1, 1 << 16)
        rng = RandomSource(4)
        assert {sampler.draw(rng) for _ in range(200)} == {0}

    def test_draws_do_not_depend_on_earlier_draws(self):
        warm = ReadoutSampler(40, 1 << 16)
        for _ in range(10):
            warm.draw(RandomSource(42))
        fresh = ReadoutSampler(40, 1 << 16)
        a, b = RandomSource(9), RandomSource(9)
        assert [warm.draw(a) for _ in range(5)] == [fresh.draw(b) for _ in range(5)]

    def test_replay_is_deterministic(self):
        def run(seed):
            sampler = ReadoutSampler(40, 1 << 16)
            rng = RandomSource(seed)
            return [sampler.draw(rng) for _ in range(50)]

        assert run(123) == run(123)
        assert run(123) != run(124)

    def test_zero_probability_readouts_are_never_drawn(self):
        sampler = ReadoutSampler(4, 64)
        rng = RandomSource(8)
        assert {sampler.draw(rng) for _ in range(2000)} == {0, 16, 32, 48}

    @pytest.mark.parametrize("r,q", [(13, 1 << 16), (1152, 1 << 41)])
    def test_draw_cost_is_bounded(self, r, q):
        sampler = ReadoutSampler(r, q)
        rng = CountingSource(2024)
        draws = 4000
        for _ in range(draws):
            sampler.draw(rng)
        assert rng.uniforms / draws <= 12


def scripted_flat_proposal(c, r, q):
    """ScriptedRng that makes the sampler propose readout c and accept it.

    The proposal picks the peak m nearest r*c/q (m = 0 for the wrapped
    top of cell 0), scripted as the uniform draw turns into m, selects the
    envelope's flat part with the largest uniform below 1, and lands on
    offset delta, scripted as the chunk uniforms of the flat draw from
    -reach..reach, the offsets a cell can hold, reach = q // (2r) + 1. The
    acceptance uniform 0.0 accepts any readout of nonzero probability.
    """
    m = (2 * r * c + q - 1) // (2 * q) % r
    centre = (2 * m * q + r - 1) // (2 * r)
    delta = c - centre if c - centre <= q // 2 else c - centre - q
    reach = q // (2 * r) + 1
    return ScriptedRng(
        [*uniforms_for(m, 0, r - 1), 1.0 - 2.0**-53, *uniforms_for(delta, -reach, reach), 0.0]
    )


class TestReachability:
    @pytest.mark.parametrize(
        "r,q", [(3, 8), (1, 16), (5, 32), (40, 256), (100, 256), (255, 256), (256, 256)]
    )
    def test_every_readout_of_nonzero_probability_is_reachable(self, r, q):
        sampler = ReadoutSampler(r, q)
        for c in range(q):
            if prob(c, r, q) > 0.0:
                assert sampler.draw(scripted_flat_proposal(c, r, q)) == c

    def test_zero_probability_proposal_is_rejected(self):
        # readout 1 at r = 4, q = 64 has probability 0: the proposal is
        # rejected and the sampler moves on to the next one, at peak 2
        sampler = ReadoutSampler(4, 64)
        rng = scripted_flat_proposal(1, 4, 64)
        rng.uniforms += [*uniforms_for(2, 0, 3), 0.0, 0.0]
        assert sampler.draw(rng) == 32


class TestFlatPartReach:
    """The largest uniform below 1 selects the envelope's flat part only
    while the flat part's share of _total is above 2**-53 (about 0.3 * r/q):
    past that, the tail alone proposes a cell's edge offsets."""

    @pytest.mark.parametrize(
        "r,q",
        [
            (1038, 1 << 41),
            pytest.param(
                10007, 1 << 67,
                marks=pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason="(1 - 2**-53) * _total lands in the tail branch (ROADMAP item 12)",
                ),
            ),
        ],
    )
    def test_the_largest_uniform_reaches_the_flat_part(self, r, q):
        # a flat proposal takes its offset 5 from the chunk uniforms after
        # the first; a tail one would take the first of them, below 1/2, as
        # k = 2
        sampler = ReadoutSampler(r, q)
        reach = sampler._reach
        rng = ScriptedRng([1.0 - 2.0**-53, *uniforms_for(5, -reach, reach), 0.5])
        assert sampler._propose_offset(rng) == 5
        assert rng.uniforms == [0.5]


class TestWarmAndColdDraws:
    """What only the acceptance-height memo shows, beside its row in
    test_memos.py: a draw returns and consumes the same uniforms on a
    warm memo as on a cold one, and prob and dominant_mass bypass it."""

    @pytest.mark.parametrize("r,q", [(3, 8), (5, 32), (40, 256), (255, 256), (1038, 1 << 41)])
    def test_draw_returns_and_consumes_the_same_warm_and_cold(self, r, q):
        sampler = ReadoutSampler(r, q)
        readouts = range(q) if q <= 256 else dominant_readouts(r, q)[:50]
        for c in readouts:
            if prob(c, r, q) == 0.0:
                continue
            runs = []
            for warm in (False, True):
                if not warm:
                    _acceptance_height.cache_clear()
                rng = scripted_flat_proposal(c, r, q)
                rng.uniforms.append(0.5)  # left over unless a draw takes too many
                hits = _acceptance_height.cache_info().hits
                runs.append((sampler.draw(rng), rng.uniforms))
                assert _acceptance_height.cache_info().hits - hits == warm
            assert runs[0] == runs[1] == (c, [0.5])

    @pytest.mark.parametrize("r,q", [(40, 1 << 16), (1038, 1 << 41)])
    def test_prob_and_dominant_mass_bypass_it(self, r, q):
        sampler, rng = ReadoutSampler(r, q), RandomSource(1)
        for _ in range(10):
            sampler.draw(rng)
        before = _acceptance_height.cache_info()
        dominant_mass(r, q)
        for c in dominant_readouts(r, q):
            prob(c, r, q)
        assert _acceptance_height.cache_info() == before


def cell_of(c: int, r: int, q: int) -> tuple[int, int]:
    """The peak m whose cell holds readout c, and c's offset from the
    peak's centre: m is the integer with -q/2 < r*c - m*q <= q/2, taking
    c - q in place of c for the readouts at the top that cell 0 wraps."""
    m = -((q - 2 * r * c) // (2 * q))
    if m == r:
        m, c = 0, c - q
    return m, c - (2 * m * q + r - 1) // (2 * r)


def envelope_excess(sampler: ReadoutSampler, c: int) -> float:
    """How far q**2 * P(c) / r lies above the envelope at c, relative to
    the envelope: positive where the rejection sampler would be inexact."""
    r, q = sampler.r, sampler.q
    height = sampler._envelope(cell_of(c, r, q)[1])
    return (q * q * prob(c, r, q) / r - height) / height


class TestEnvelopeCertificate:
    """Rejection sampling is exact only where the envelope lies above the
    target (Devroye 1986, II.3): q**2 * P(c) / r <= envelope(delta) for
    every readout c, delta being c's offset from the centre of its cell."""

    @pytest.mark.parametrize("q", [16, 64, 256])
    def test_every_readout_of_every_order(self, q):
        for r in range(1, q + 1):
            sampler = ReadoutSampler(r, q)
            peaks = set()
            for c in range(q):
                m, delta = cell_of(c, r, q)
                assert abs(delta) <= sampler._reach
                peaks.add(m)
                assert envelope_excess(sampler, c) <= 1e-12, (r, q, c)
            assert peaks == set(range(r))

    @given(st.integers(1, 96), st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_orders_near_peaks_and_at_cell_edges(self, bits, data):
        q = 1 << bits
        r = data.draw(st.integers(1, q))
        m = data.draw(st.integers(0, r - 1))
        sampler = ReadoutSampler(r, q)
        # the cell of m holds the c (unwrapped) with -q < 2*(r*c - m*q) <= q
        low = (2 * m * q - q) // (2 * r) + 1
        high = (2 * m * q + q) // (2 * r)
        near = data.draw(st.integers(-64, 64)) + (2 * m * q + r - 1) // (2 * r)
        for c in (low, high, near):
            if low <= c <= high:
                assert cell_of(c % q, r, q)[0] == m
                assert envelope_excess(sampler, c % q) <= 1e-12, (r, q, c)


class ProposalCountingSampler(ReadoutSampler):
    """ReadoutSampler that counts its proposals: draw proposes an offset
    once for each peak it takes, whether the proposal is accepted or not."""

    __slots__ = ("proposals",)

    def __init__(self, r: int, q: int):
        super().__init__(r, q)
        self.proposals = 0

    def _propose_offset(self, rng: RandomSource) -> int:
        self.proposals += 1
        return super()._propose_offset(rng)


class TestPaperRegisterSizes:
    """Draws at the orders and registers sessions use, up to q = 2**67.
    The seeds and orders were fixed before the first run."""

    @pytest.mark.parametrize("r,q", [(40, 1 << 16), (255, 256), (1038, 1 << 41)])
    def test_mean_proposals_per_draw_is_exact(self, r, q):
        # P sums to 1 over the cells, so a proposal is accepted with
        # probability exactly q**2 / (r**2 * total): a draw's proposals are
        # geometric with mean r**2 * total / q**2
        sampler, rng, draws = ProposalCountingSampler(r, q), RandomSource(r), 20_000
        for _ in range(draws):
            sampler.draw(rng)
        mean = r * r * sampler._total / q**2
        z = (sampler.proposals / draws - mean) / math.sqrt(mean * (mean - 1) / draws)
        assert abs(z) < 4, (sampler.proposals / draws, mean)

    @pytest.mark.parametrize("r,q", [(173, 1 << 41), (1038, 1 << 41), (10007, 1 << 67)])
    def test_pooled_offsets_follow_the_spectrum(self, r, q):
        # offsets |delta| <= K from the peak, summed over the r cells, and
        # one tail bin with the rest of the mass
        k, draws = 8, 30_000
        peaks = dominant_readouts(r, q)
        mass = {d: math.fsum(prob((c + d) % q, r, q) for c in peaks) for d in range(-k, k + 1)}
        mass["tail"] = 1.0 - math.fsum(mass.values())
        sampler, rng = ReadoutSampler(r, q), RandomSource(r)
        observed = Counter()
        for _ in range(draws):
            delta = cell_of(sampler.draw(rng), r, q)[1]
            observed[delta if abs(delta) <= k else "tail"] += 1
        expected = {key: p * draws for key, p in mass.items()}
        assert chi_square_pvalue(observed, expected) > 1e-3


class TestEmpiricalDistribution:
    """Chi-square against the exact spectrum, which sums to 1 unscaled."""

    N_DRAWS = 100_000

    def _empirical_vs_exact(self, y, r, q, seed, draws=N_DRAWS):
        sampler = ReadoutSampler(r, q)
        rng = RandomSource(seed)
        observed = Counter(sampler.draw(rng) for _ in range(draws))
        expected = {
            c: prob(c, r, q) * draws for c in range(q) if prob(c, r, q) > 0.0
        }
        return chi_square_pvalue(observed, expected)

    def test_matches_model_at_medium_register(self):
        assert self._empirical_vs_exact(7, 40, 1 << 12, seed=2024) > 1e-3

    def test_matches_model_when_order_divides_q(self):
        assert self._empirical_vs_exact(56, 16, 1 << 12, seed=55) > 1e-3

    def test_matches_the_circuit_law(self):
        # against the law of the circuit for y = 2 and N = 91, built without
        # the order, not against prob; 2 has order 12 mod 91, which divides
        # no q
        q, draws = 1 << 12, self.N_DRAWS
        law = circuit_law(2, 91, q)
        sampler, rng = ReadoutSampler(multiplicative_order(2, 91), q), RandomSource(91)
        observed = Counter(sampler.draw(rng) for _ in range(draws))
        expected = {c: p * draws for c, p in enumerate(law) if p > 0.0}
        assert chi_square_pvalue(observed, expected) > 1e-3

    def test_matches_model_fully_enumerated_tiny_register(self):
        assert self._empirical_vs_exact(2, 3, 8, seed=77) > 1e-3

    def test_matches_model_at_session_register(self):
        # the q = 2**16 subcycle geometry used by the smallest session
        assert self._empirical_vs_exact(36, 40, 1 << 16, seed=31337) > 1e-3

    @pytest.mark.parametrize("r", [255, 256])
    def test_matches_model_when_order_is_close_to_q(self, r):
        assert self._empirical_vs_exact(0, r, 256, seed=r, draws=50_000) > 1e-3
