"""Seeded sessions do not depend on the last bits of the platform's libm.

Two libm results feed the sampler's float decisions: math.sin in
shorsim.model's prob, behind every acceptance height, and the float power
math.pi**2 in the sampler's envelope constants, _BETA and the tail weight
ReadoutSampler.__init__ computes. The C standard fixes the accuracy of
neither, and tier-1 runs on one platform. So a seed set fixed before the
first run is run again with each perturbed by a relative error far above
any libm's and far below the closest decision the set makes, and every
text and JSONL digest must stay as it was.
"""

import functools
import math
from types import SimpleNamespace

import pytest

from shorsim import factorizer, model, sampler
from shorsim.factorizer import factor
from conftest import output_digests

# fixed before the first run: 300 sessions at N = 187 and 100 at 1328881,
# at the safe register size
SEEDS = [(187, seed) for seed in range(300)] + [(1328881, seed) for seed in range(100)]
EPSILON = 2.0**-30


def digests() -> list[tuple[str, str]]:
    """The JSONL and text digests of every session of SEEDS, computed with
    the acceptance-height and sampler memos emptied before and after, so
    that no value computed under another libm serves them or outlives
    them."""
    sampler._acceptance_height.cache_clear()
    factorizer._sampler.cache_clear()
    try:
        return [output_digests(factor(n, seed=seed)) for n, seed in SEEDS]
    finally:
        sampler._acceptance_height.cache_clear()
        factorizer._sampler.cache_clear()


@functools.cache
def unperturbed() -> list[tuple[str, str]]:
    return digests()


def math_with(**names) -> SimpleNamespace:
    """The math module's public names, with names put in their place."""
    public = {name: getattr(math, name) for name in dir(math) if not name.startswith("_")}
    return SimpleNamespace(**{**public, **names})


@pytest.mark.parametrize("epsilon", [EPSILON, -EPSILON], ids=["up", "down"])
def test_sine_off_by_an_error_that_grows_with_its_argument(epsilon, monkeypatch):
    # not a uniform scale, which every sine in prob's ratio shares and
    # which therefore cancels
    expected = unperturbed()
    sin = math.sin
    monkeypatch.setattr(model, "math", math_with(sin=lambda x: sin(x) * (1 + epsilon * x)))
    assert digests() == expected


@pytest.mark.parametrize("epsilon", [EPSILON, -EPSILON], ids=["up", "down"])
def test_pi_squared_off_by_a_relative_error(epsilon, monkeypatch):
    # in _BETA, computed at import, and in ReadoutSampler.__init__'s tail
    # weight, which reads math.pi
    expected = unperturbed()
    scale = 1 + epsilon
    monkeypatch.setattr(sampler, "_BETA", 1.0 - 4.0 / (math.pi**2 * scale))
    monkeypatch.setattr(sampler, "math", math_with(pi=math.pi * math.sqrt(scale)))
    assert digests() == expected
