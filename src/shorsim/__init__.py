"""Pseudo-simulation of Shor's quantum factoring algorithm.

The quantum order-finding subroutine is not simulated gate by gate;
instead its measurement outcomes are drawn from the exact readout
distribution, which requires knowing the order in advance. That open
cheat makes the classical loop, the readout statistics, and the
failure modes observable at desk scale for moduli up to ten digits.

The package exports what a session's user calls; the pieces a session is
built from are importable from their own modules.
"""

from .factorizer import AttemptRecord, FactoringHistory, Outcome, factor, run_session
from .model import FactoringParams, InputTooLarge, PrimeInput, dominant_mass, prob, safe_qubits
from .numtheory import multiplicative_order
from .orderfinder import OrderResult
from .transcript import TranscriptError, from_jsonl, render_text, to_jsonl

__version__ = "0.1.0"

__all__ = [
    "AttemptRecord",
    "FactoringHistory",
    "FactoringParams",
    "InputTooLarge",
    "OrderResult",
    "Outcome",
    "PrimeInput",
    "TranscriptError",
    "dominant_mass",
    "factor",
    "from_jsonl",
    "multiplicative_order",
    "prob",
    "render_text",
    "run_session",
    "safe_qubits",
    "to_jsonl",
    "__version__",
]
