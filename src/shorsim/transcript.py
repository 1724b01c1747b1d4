"""Rendering and serialization of factoring histories.

render_text and to_jsonl each write their output straight from the
history, in one pass over its attempts: the human transcript line by line,
and line-delimited JSON, one event per line, that from_jsonl parses back
to an equal history through the constructors the session uses, OrderResult
for each trial. A stream that cannot be parsed back, or whose history
could not be written again, raises TranscriptError naming the line at fault.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any

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
    r'\{"ceiling": (0|[1-9][0-9]{0,18}), "event": "ceiling_rejection", '
    r'"y": (0|[1-9][0-9]{0,18})\}'
)


class TranscriptError(ValueError):
    """A JSONL stream that does not parse back into a history."""

    def __init__(self, line: int, cause: str):
        super().__init__(f"line {line}: {cause}")
        self.line = line


def render_text(history: FactoringHistory) -> list[str]:
    """Render a history to the transcript, one line per list element."""
    params = history.params
    n = params.n
    lines = [BANNER.format(n=n), SAFE_QUBITS_HINT.format(qubits=safe_qubits(n))]
    append = lines.append
    before, after = CEILING_LINE.split("{y}")
    after = after.format(ceiling=params.ceiling)
    index = 0  # a trial's number is its position in the session
    for attempt in history.attempts:
        if type(attempt) is int:
            append(f"{before}{attempt}{after}")
            continue
        outcome = attempt.outcome
        if outcome is Outcome.SHARED_FACTOR:
            append(SHARED_FACTOR_LINE.format(y=attempt.y, n=n))
        else:
            append(NEW_BASE.format(y=attempt.y))
            for trial in attempt.trials:
                index += 1
                append(TRIAL_HEADER.format(index=index))
                append(READOUT_LINE.format(readout=trial.readout))
                append(CANDIDATE_LINE.format(candidate=trial.candidate_order))
                append(ORDER_CORRECT if trial.verified else ORDER_INCORRECT)
            if outcome is Outcome.ORDER_ODD:
                append(ORDER_ODD_LINE)
                continue
            if outcome is Outcome.TRIAL_BUDGET_EXHAUSTED:
                append(BUDGET_LINE.format(max_trials=params.max_trials))
                append(FAILURE_LINE)
                continue
        f1, f2 = attempt.factors
        append(FACTORS_LINE.format(n=n, f1=f1, f2=f2))
        append(FACTORING_FAILED if outcome is Outcome.TRIVIAL_FACTORS else SUCCESS_LINE)
    template = SUMMARY_SUCCESS if history.factors else SUMMARY_FAILURE
    append(template.format(elapsed=history.elapsed, trials=history.total_trials, n=n))
    lines.extend(f"Warning: {warning}." for warning in history.warnings)
    return lines


def to_jsonl(history: FactoringHistory) -> str:
    """Serialize a history to line-delimited JSON, one event per line."""
    params = history.params
    # json.dumps(event, sort_keys=True), with one encoder for the history
    encode = json.JSONEncoder(sort_keys=True).encode
    lines = [
        encode(
            {
                "event": "banner",
                "schema": SCHEMA_VERSION,
                "n": params.n,
                "qubits": params.qubits,
                "max_trials": params.max_trials,
                "order_ceiling": params.order_ceiling,
                "seed": params.seed,
            }
        ),
        encode({"event": "safe_qubits_hint", "qubits": safe_qubits(params.n)}),
    ]
    append = lines.append
    # a rejection event as encoded, up to its y: "y" is the last key
    head = '{"ceiling": ' + encode(params.ceiling) + ', "event": "ceiling_rejection", "y": '
    index = 0  # a trial's number is its position in the session
    for attempt in history.attempts:
        if type(attempt) is int:
            append(f"{head}{attempt}}}")
            continue
        outcome, y = attempt.outcome, attempt.y
        if outcome is Outcome.SHARED_FACTOR:
            append(encode({"event": "shared_factor", "y": y, "factors": list(attempt.factors)}))
        else:
            append(encode({"event": "new_base", "y": y}))
            for trial in attempt.trials:
                index += 1
                event = {
                    "event": "trial",
                    "index": index,
                    "readout": trial.readout,
                    "candidate": trial.candidate_order,
                    "verified": trial.verified,
                }
                append(encode(event))
            append(encode({"event": "attempt_verdict", **_verdict(attempt)}))
    append(encode({"event": "summary", **_summary(history), "elapsed": history.elapsed}))
    return "\n".join(lines)


def _verdict(record: AttemptRecord) -> dict[str, Any]:
    """The fields of a record's attempt_verdict event but its event."""
    verdict: dict[str, Any] = {"status": record.outcome.value}
    if record.order is not None:
        verdict["order"] = record.order
    if record.factors is not None:
        verdict["factors"] = list(record.factors)
    return verdict


def _summary(history: FactoringHistory) -> dict[str, Any]:
    """The fields of a history's summary event but its event and elapsed."""
    return {
        "n": history.params.n,
        "total_trials": history.total_trials,
        "factors": list(history.factors) if history.factors else None,
        "failure": history.failure.value if history.failure else None,
        "warnings": list(history.warnings),
    }


def from_jsonl(text: str) -> FactoringHistory:
    """Parse the output of to_jsonl back into an equal history.

    The banner is the first event and the summary the last, each once. A
    new_base is followed by its trials and then its attempt_verdict, with no
    other event between, and no trial follows a verified one in its base.
    The y of a new_base, a ceiling_rejection or a shared_factor lies in
    [2, n), a trial's readout in [0, q), and the summary's elapsed, the one
    summary field read, is a float in [0, inf). Every other field read is
    the value the writers derive, of the same JSON type (_expect): a
    rejection's ceiling is FactoringParams.ceiling, whether its y's order
    exceeds it being untested, as that would cost an order test per line;
    a trial's index is its position in the stream, and its candidate and
    verified are the ones OrderResult(readout, y, q, n) derives; a
    shared_factor's factors, and a verdict's status, order and factors, are
    the ones AttemptRecord(y, trials, n) derives; and the summary is the one
    FactoringHistory(params, attempts, elapsed) derives, which refuses
    attempts that no session produces. Fields not read are ignored, so older
    banners that carried a tail_threshold still parse; a banner without a
    schema is version 1, and one whose schema is not an int (a bool or a
    float is refused) or is newer than SCHEMA_VERSION is refused. Streams
    written while rejection lines named the requested ceiling rather than
    the applied one (null for no ceiling, or a value above q) are refused on
    their first such line. Any other input raises TranscriptError naming
    the line and the cause.
    """
    params: FactoringParams | None = None
    attempts: list[AttemptRecord | int] = []
    open_y: Any = None
    open_trials: list[OrderResult] | None = None  # None: no base is open
    position = 0  # of the last trial read, in the session
    last = 0
    rejection = _REJECTION_LINE.fullmatch
    ceiling_text, n = None, 0  # the session's ceiling as written, and its n
    lines = enumerate(text.splitlines(), start=1)
    for number, line in lines:
        line = line.strip()
        if not line:
            continue
        last = number
        fast = rejection(line)
        # a line the fast path would refuse takes the general path, which
        # names the cause
        if fast and fast[1] == ceiling_text and open_trials is None:
            y = int(fast[2])
            if 2 <= y < n:
                attempts.append(y)
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
            if open_trials is not None and kind not in ("trial", "attempt_verdict"):
                raise ValueError("the last new_base has no attempt_verdict")
            if kind == "banner":
                if params is not None:
                    raise ValueError("a banner came before it")
                schema = data.get("schema", 1)
                if type(schema) is not int or schema not in range(1, SCHEMA_VERSION + 1):
                    raise ValueError(f"schema {schema!r} is unknown (newest {SCHEMA_VERSION})")
                params = FactoringParams(
                    data["n"],
                    data["qubits"],
                    data["seed"],
                    max_trials=data["max_trials"],
                    order_ceiling=data["order_ceiling"],
                )
                for name in ("qubits", "seed"):
                    if data[name] is None:  # the constructor would pick one afresh
                        raise ValueError(f"{name} must not be null")
                ceiling_text, n = str(params.ceiling), params.n
            elif params is None:
                raise ValueError("no banner before it")
            elif kind == "ceiling_rejection":
                y = _int_in("y", data["y"], 2, n)
                _expect("ceiling", data["ceiling"], params.ceiling, "the session's")
                attempts.append(y)
            elif kind == "shared_factor":
                y = _int_in("y", data["y"], 2, n)
                record = AttemptRecord(y, (), n)
                reason = f"as gcd({y}, {n}) = {record.factors[0]} gives"
                _expect("factors", data["factors"], list(record.factors), reason)
                attempts.append(record)
            elif kind == "new_base":
                open_y = _int_in("y", data["y"], 2, params.n)
                open_trials = []
            elif kind == "trial":
                if open_trials is None:
                    raise ValueError("no new_base before it")
                if open_trials and open_trials[-1].verified:
                    raise ValueError(f"trial {position} verified the order of {open_y}")
                position += 1
                _expect("index", data["index"], position, "its position in the session")
                readout = _int_in("readout", data["readout"], 0, params.q)
                trial = OrderResult(readout, open_y, params.q, n)
                candidate = trial.candidate_order
                reason = f"the denominator of the convergent of readout {readout}"
                _expect("candidate", data["candidate"], candidate, reason)
                reason = f"as pow({open_y}, {candidate}, {n}) == 1 is"
                _expect("verified", data["verified"], trial.verified, reason)
                open_trials.append(trial)
            elif kind == "attempt_verdict":
                if open_trials is None:
                    raise ValueError("no new_base before it")
                if not open_trials:
                    raise ValueError(f"no trial of {open_y} before it")
                record = AttemptRecord(open_y, tuple(open_trials), n)
                if record.order is None:
                    reason = f"as trial {position} is unverified"
                else:
                    reason = f"as extract_factors({open_y}, {record.order}, {n}) gives"
                verdict = _verdict(record)
                for key in ("status", "order", "factors"):
                    # a field the writer leaves out may be absent or null
                    read = data[key] if key in verdict else data.get(key)
                    _expect(key, read, verdict.get(key), reason)
                attempts.append(record)
                open_trials = None
            elif kind == "safe_qubits_hint":
                _expect("qubits", data["qubits"], safe_qubits(n), "the safe size")
            elif kind == "summary":
                elapsed = data["elapsed"]
                if type(elapsed) is not float or not 0.0 <= elapsed < math.inf:
                    raise ValueError(f"elapsed {elapsed!r} is not a float in [0, inf)")
                history = FactoringHistory(params, tuple(attempts), elapsed)
                for key, value in _summary(history).items():
                    _expect(key, data[key], value, "as the attempts give")
                break
            else:
                raise ValueError("unknown event")
        except KeyError as exc:
            raise TranscriptError(number, f"{kind!r} event lacks field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise TranscriptError(number, f"bad {kind!r} event: {exc}") from None
    else:
        if params is None:
            raise TranscriptError(last + 1, "no banner event")
        if open_trials is not None:
            raise TranscriptError(last + 1, "the last new_base has no attempt_verdict")
        raise TranscriptError(last + 1, "no summary event")
    for number, line in lines:
        if line.strip():
            raise TranscriptError(number, "the summary is not the last event")
    return history


def _int_in(name: str, value: Any, low: int, high: float) -> int:
    """A field as read from a stream: an int, not a bool, in [low, high)."""
    if type(value) is not int or not low <= value < high:
        raise ValueError(f"{name} {value!r} is not an int in [{low}, {high})")
    return value


def _expect(name: str, read: Any, derived: Any, reason: str) -> None:
    """Refuse a field read from a stream unless it equals the value the
    writers derive and has its JSON type, one level into arrays: 1 is not
    true, 2.0 is not 2, and [11.0, 17] is not [11, 17]."""
    same = type(read) is type(derived) and read == derived
    if not same or type(read) is list and [*map(type, read)] != [*map(type, derived)]:
        raise ValueError(f"{name} {read!r} is not {derived!r}, {reason}")
