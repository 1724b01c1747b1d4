"""Pseudo-simulation of Shor's quantum factoring algorithm.

The quantum order-finding subroutine is not simulated gate by gate;
instead its measurement outcomes are drawn from the exact readout
distribution, which requires knowing the order in advance. That open
cheat makes the classical loop, the readout statistics, and the
failure modes observable at desk scale for moduli up to ten digits.
"""

from .factorizer import (
    AttemptRecord,
    FactoringHistory,
    Outcome,
    extract_factors,
    factor,
    pick_y,
    run_session,
)
from .model import (
    FactoringParams,
    InputTooLarge,
    PrimeInput,
    dominant_mass,
    dominant_readouts,
    prob,
    safe_qubits,
)
from .numtheory import (
    NotCoprime,
    convergents,
    is_prime,
    multiplicative_order,
)
from .orderfinder import OrderResult, find_order
from .sampler import RandomSource, ReadoutSampler
from .transcript import TranscriptError, from_jsonl, render_text, to_jsonl

__version__ = "0.1.0"

__all__ = [
    "AttemptRecord",
    "FactoringHistory",
    "FactoringParams",
    "InputTooLarge",
    "NotCoprime",
    "OrderResult",
    "Outcome",
    "PrimeInput",
    "RandomSource",
    "ReadoutSampler",
    "TranscriptError",
    "convergents",
    "dominant_mass",
    "dominant_readouts",
    "extract_factors",
    "factor",
    "find_order",
    "from_jsonl",
    "is_prime",
    "multiplicative_order",
    "pick_y",
    "prob",
    "render_text",
    "run_session",
    "safe_qubits",
    "to_jsonl",
    "__version__",
]
