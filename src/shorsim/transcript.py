"""Rendering and serialization of factoring histories.

A history is flattened to an ordered stream of (kind, payload) events;
the stream renders to the human transcript line by line and serializes to
line-delimited JSON that parses back to an equal history. A stream that
cannot be parsed back raises TranscriptError, naming the line at fault.
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterator

from .factorizer import AttemptRecord, FactoringHistory, Outcome
from .model import FactoringParams, safe_qubits
from .orderfinder import OrderResult

BANNER = "The number to be factored is {n}."
SAFE_QUBITS_HINT = "The safe number of qubits needed to factor this number is {qubits}."
PRIME_WARNING = "THE NUMBER YOU PICKED IS PRIME, PLEASE TRY AGAIN!!!"
SCHEMA_VERSION = 1  # of the JSONL stream; a banner without one is version 1
NEW_BASE = "Finding order of y = {y}."
TRIAL_HEADER = "Trial #{index}."
READOUT_LINE = "The readout value from the work register is {readout}."
CANDIDATE_LINE = "The order found using this readout value is {candidate}."
ORDER_INCORRECT = "The order is incorrect, the quantum computer will be reset to try again."
ORDER_CORRECT = "The quantum computer has found the correct order."
ORDER_ODD_LINE = "The order is odd, hence a new value of y will be chosen."
FACTORS_LINE = "The factors of {n} are determined to be {f1} and {f2}."
FACTORING_FAILED = "The factoring has failed, hence a new value of y will be chosen."
SUCCESS_LINE = "The program has succeeded and will now terminate."
CEILING_LINE = (
    "The order of y = {y} exceeds the ceiling of {ceiling}, "
    "hence a new value of y will be chosen."
)
SHARED_FACTOR_LINE = "The randomly chosen y = {y} shares a factor with {n}."
BUDGET_LINE = (
    "The maximum of {max_trials} trials has been reached without finding the factors."
)
FAILURE_LINE = "The program has failed and will now terminate."
SUMMARY_SUCCESS = (
    "This simulation took {elapsed:.3f} seconds and {trials} trials to factor {n}."
)
SUMMARY_FAILURE = (
    "This simulation took {elapsed:.3f} seconds and {trials} trials "
    "without factoring {n}."
)

# a ceiling_rejection line exactly as to_jsonl writes it; from_jsonl reads it
# without json.loads. At most 19 digits keep int() fast and within the limit
# on integer string conversion; any other spelling takes the general path.
_REJECTION_LINE = re.compile(
    r'\{"ceiling": (?:0|[1-9][0-9]{0,18}), "event": "ceiling_rejection", '
    r'"y": (0|[1-9][0-9]{0,18})\}'
)


class TranscriptError(ValueError):
    """A JSONL stream that does not parse back into a history."""

    def __init__(self, line: int, cause: str):
        super().__init__(f"line {line}: {cause}")
        self.line = line


def history_to_events(history: FactoringHistory) -> Iterator[tuple[str, dict[str, Any]]]:
    """Flatten a history into its ordered stream of (kind, payload) events."""
    ceiling = history.params.ceiling
    for event in _walk(history):
        if type(event) is int:
            yield "ceiling_rejection", {"y": event, "ceiling": ceiling}
        else:
            yield event


def _walk(history: FactoringHistory) -> Iterator[int | tuple[str, dict[str, Any]]]:
    """The event stream, with each ceiling rejection of an int base left as
    that bare int: one per rejected base, so every output writes it from
    one template. Any other base (a parsed stream can carry one) comes as
    the full event."""
    p = history.params
    yield "banner", {
        "schema": SCHEMA_VERSION,
        "n": p.n,
        "qubits": p.qubits,
        "max_trials": p.max_trials,
        "order_ceiling": p.order_ceiling,
        "seed": p.seed,
    }
    yield "safe_qubits_hint", {"qubits": safe_qubits(p.n)}
    ceiling = p.ceiling  # the one the session applied
    rejected = Outcome.ORDER_CEILING_REJECTED
    for attempt in history.attempts:
        if attempt.outcome is rejected and type(attempt.y) is int:
            yield attempt.y
        else:
            yield from _attempt_events(attempt, ceiling)
    yield "summary", {
        "n": p.n,
        "elapsed": history.elapsed,
        "total_trials": history.total_trials,
        "factors": list(history.factors) if history.factors else None,
        "failure": history.failure.value if history.failure else None,
        "warnings": list(history.warnings),
    }


def _attempt_events(
    attempt: AttemptRecord, ceiling: int
) -> Iterator[tuple[str, dict[str, Any]]]:
    if attempt.outcome is Outcome.ORDER_CEILING_REJECTED:
        yield "ceiling_rejection", {"y": attempt.y, "ceiling": ceiling}
        return
    if attempt.outcome is Outcome.SHARED_FACTOR:
        yield "shared_factor", {"y": attempt.y, "factors": list(attempt.factors)}
        return
    yield "new_base", {"y": attempt.y}
    for trial in attempt.trials:
        yield "trial", {
            "index": trial.trial_index,
            "readout": trial.readout,
            "candidate": trial.candidate_order,
            "verified": trial.verified,
        }
    verdict: dict[str, Any] = {"status": attempt.outcome.value}
    if attempt.order is not None:
        verdict["order"] = attempt.order
    if attempt.factors is not None:
        verdict["factors"] = list(attempt.factors)
    yield "attempt_verdict", verdict


def render_text(history: FactoringHistory) -> list[str]:
    """Render a history to the transcript, one line per list element."""
    lines: list[str] = []
    n = history.params.n
    before, after = CEILING_LINE.split("{y}")
    after = after.format(ceiling=history.params.ceiling)
    for event in _walk(history):
        if type(event) is int:
            lines.append(f"{before}{event}{after}")
            continue
        kind, data = event
        if kind == "banner":
            lines.append(BANNER.format(n=data["n"]))
        elif kind == "safe_qubits_hint":
            lines.append(SAFE_QUBITS_HINT.format(qubits=data["qubits"]))
        elif kind == "ceiling_rejection":
            lines.append(CEILING_LINE.format(y=data["y"], ceiling=data["ceiling"]))
        elif kind == "shared_factor":
            f1, f2 = data["factors"]
            lines.append(SHARED_FACTOR_LINE.format(y=data["y"], n=n))
            lines.append(FACTORS_LINE.format(n=n, f1=f1, f2=f2))
            lines.append(SUCCESS_LINE)
        elif kind == "new_base":
            lines.append(NEW_BASE.format(y=data["y"]))
        elif kind == "trial":
            lines.append(TRIAL_HEADER.format(index=data["index"]))
            lines.append(READOUT_LINE.format(readout=data["readout"]))
            lines.append(CANDIDATE_LINE.format(candidate=data["candidate"]))
            lines.append(ORDER_CORRECT if data["verified"] else ORDER_INCORRECT)
        elif kind == "attempt_verdict":
            lines.extend(_verdict_lines(data, history))
        elif kind == "summary":
            template = SUMMARY_SUCCESS if data["factors"] else SUMMARY_FAILURE
            lines.append(
                template.format(
                    elapsed=data["elapsed"], trials=data["total_trials"], n=n
                )
            )
            for warning in data["warnings"]:
                lines.append(f"Warning: {warning}.")
    return lines


def _verdict_lines(data: dict[str, Any], history: FactoringHistory) -> list[str]:
    n = history.params.n
    status = Outcome(data["status"])
    if status is Outcome.ORDER_ODD:
        return [ORDER_ODD_LINE]
    if status is Outcome.TRIAL_BUDGET_EXHAUSTED:
        return [
            BUDGET_LINE.format(max_trials=history.params.max_trials),
            FAILURE_LINE,
        ]
    f1, f2 = data["factors"]
    lines = [FACTORS_LINE.format(n=n, f1=f1, f2=f2)]
    if status is Outcome.TRIVIAL_FACTORS:
        lines.append(FACTORING_FAILED)
    else:
        lines.append(SUCCESS_LINE)
    return lines


def to_jsonl(history: FactoringHistory) -> str:
    """Serialize a history to line-delimited JSON, one event per line."""
    # json.dumps(..., sort_keys=True) of a rejection event, up to its y
    head = (
        '{"ceiling": '
        + json.dumps(history.params.ceiling)
        + ', "event": "ceiling_rejection", "y": '
    )
    return "\n".join(
        head + str(event) + "}"
        if type(event) is int
        else json.dumps({"event": event[0], **event[1]}, sort_keys=True)
        for event in _walk(history)
    )


def from_jsonl(text: str) -> FactoringHistory:
    """Parse the output of to_jsonl back into an equal history.

    Fields not read here are ignored, so older banners that carried a
    tail_threshold still parse; a banner without a schema is version 1,
    and one of a newer schema than SCHEMA_VERSION is refused. Any other
    input raises TranscriptError naming the line and the cause.
    """
    params: FactoringParams | None = None
    summary: dict[str, Any] | None = None
    attempts: list[AttemptRecord] = []
    open_y: int | None = None
    open_trials: list[OrderResult] = []
    last = 0
    rejection = _REJECTION_LINE.fullmatch
    rejected = Outcome.ORDER_CEILING_REJECTED
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        last = number
        fast = rejection(line)
        if fast:
            attempts.append(AttemptRecord(int(fast[1]), rejected))
            continue
        try:
            data = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also huge ints, deep nesting
            cause = getattr(exc, "msg", exc)
            raise TranscriptError(number, f"not JSON ({cause})") from None
        try:
            kind = data.pop("event")
        except (AttributeError, KeyError, TypeError):
            raise TranscriptError(number, "not an object with an 'event' field") from None
        try:
            if kind == "ceiling_rejection":
                attempts.append(AttemptRecord(data["y"], Outcome.ORDER_CEILING_REJECTED))
            elif kind == "shared_factor":
                attempts.append(
                    AttemptRecord(
                        data["y"],
                        Outcome.SHARED_FACTOR,
                        factors=tuple(data["factors"]),
                    )
                )
            elif kind == "new_base":
                open_y = data["y"]
                open_trials = []
            elif kind == "trial":
                open_trials.append(
                    OrderResult(
                        data["index"], data["readout"], data["candidate"], data["verified"]
                    )
                )
            elif kind == "attempt_verdict":
                attempts.append(
                    AttemptRecord(
                        open_y,
                        Outcome(data["status"]),
                        order=data.get("order"),
                        trials=tuple(open_trials),
                        factors=tuple(data["factors"]) if data.get("factors") else None,
                    )
                )
                open_y = None
                open_trials = []
            elif kind == "banner":
                schema = data.get("schema", 1)
                if schema not in range(1, SCHEMA_VERSION + 1):
                    raise ValueError(f"schema {schema!r} is unknown (newest {SCHEMA_VERSION})")
                params = FactoringParams.build(
                    data["n"],
                    data["qubits"],
                    data["seed"],
                    max_trials=data["max_trials"],
                    order_ceiling=data["order_ceiling"],
                )
            elif kind == "summary":
                summary = {
                    "total_trials": data["total_trials"],
                    "elapsed": data["elapsed"],
                    "factors": tuple(data["factors"]) if data["factors"] else None,
                    "failure": Outcome(data["failure"]) if data["failure"] else None,
                    "warnings": tuple(data["warnings"]),
                }
        except KeyError as exc:
            raise TranscriptError(number, f"{kind!r} event lacks field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise TranscriptError(number, f"bad {kind!r} event: {exc}") from None
    if params is None:
        raise TranscriptError(last + 1, "no banner event")
    if summary is None:
        raise TranscriptError(last + 1, "no summary event")
    return FactoringHistory(params=params, attempts=tuple(attempts), **summary)
