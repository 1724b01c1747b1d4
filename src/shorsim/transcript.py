"""Rendering and serialization of factoring histories.

render_text and to_jsonl each write their output straight from the
history, in one pass over its attempts: the human transcript line by line,
and line-delimited JSON, one event per line, that from_jsonl parses back
to an equal history. A stream that cannot be parsed back, or whose
history could not be written again, raises TranscriptError naming the
line at fault.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any

# imported by name, not looked up in their modules per call, so a wrapper put
# on factorizer.extract_factors or orderfinder.convergents sees sessions only
from .factorizer import AttemptRecord, FactoringHistory, Outcome, extract_factors
from .model import FactoringParams, safe_qubits
from .numtheory import convergents
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
                append(TRIAL_HEADER.format(index=trial.trial_index))
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
                event = {
                    "event": "trial",
                    "index": trial.trial_index,
                    "readout": trial.readout,
                    "candidate": trial.candidate_order,
                    "verified": trial.verified,
                }
                append(encode(event))
            verdict: dict[str, Any] = {"event": "attempt_verdict", "status": outcome.value}
            if attempt.order is not None:
                verdict["order"] = attempt.order
            if attempt.factors is not None:
                verdict["factors"] = list(attempt.factors)
            append(encode(verdict))
    append(encode({"event": "summary", **_summary(history), "elapsed": history.elapsed}))
    return "\n".join(lines)


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
    new_base is followed by its trials and then its attempt_verdict, with
    no other event between. The y of a new_base, a ceiling_rejection or a
    shared_factor lies in [2, n). A ceiling_rejection's ceiling is the int
    the banner's parameters apply, FactoringParams.ceiling; whether its y's
    order exceeds it is not tested, as that would cost an order test per
    line. A shared_factor's factors are [g, n // g] for g = gcd(y, n) > 1.
    A trial's index is one more than the last trial's (the first may be any
    int >= 1), its readout lies in [0, q), its candidate is the denominator
    of convergents(readout, q, n), and its verified is
    pow(y, candidate, n) == 1; no trial follows a verified one in its base.
    A verdict follows at least one trial and is the one run_session gives:
    extract_factors(y, candidate, n) when the last trial is verified, else
    trial_budget_exhausted with no order and no factors. The summary is
    derived from the attempts, as run_session derives it, and follows a
    shared_factor or an attempt_verdict; only its elapsed is read, and a
    summary that disagrees is refused. Fields not read here are ignored, so
    older banners that carried a tail_threshold still parse; a banner
    without a schema is version 1, and one of a newer schema than
    SCHEMA_VERSION is refused. Streams written while rejection lines named
    the requested ceiling rather than the applied one (null for no
    ceiling, or a value above q) are refused on their first such line. Any
    other input, or one whose history the writers could not write back,
    raises TranscriptError naming the line and the cause.
    """
    params: FactoringParams | None = None
    attempts: list[AttemptRecord | int] = []
    open_y: Any = None
    open_trials: list[OrderResult] | None = None  # None: no base is open
    last_trial: Any = 0  # the index of the last trial read
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
                if schema not in range(1, SCHEMA_VERSION + 1):
                    raise ValueError(f"schema {schema!r} is unknown (newest {SCHEMA_VERSION})")
                params = FactoringParams.build(
                    data["n"],
                    data["qubits"],
                    data["seed"],
                    max_trials=data["max_trials"],
                    order_ceiling=data["order_ceiling"],
                )
                for name in ("qubits", "seed"):
                    if data[name] is None:  # build would pick one afresh
                        raise ValueError(f"{name} must not be null")
                ceiling_text, n = str(params.ceiling), params.n
            elif params is None:
                raise ValueError("no banner before it")
            elif kind == "ceiling_rejection":
                y = _int_in("y", data["y"], 2, n)
                ceiling = data["ceiling"]
                if type(ceiling) is not int or ceiling != params.ceiling:
                    raise ValueError(f"ceiling {ceiling!r} is not the session's {params.ceiling}")
                attempts.append(y)
            elif kind == "shared_factor":
                y = _int_in("y", data["y"], 2, n)
                factors = _pair(data["factors"], n)
                g = math.gcd(y, n)
                if g == 1:
                    raise ValueError(f"y {y} shares no factor with {n}")
                if factors != (g, n // g):
                    raise ValueError(
                        f"factors {list(factors)} are not [{g}, {n // g}], "
                        f"as gcd({y}, {n}) = {g} gives them"
                    )
                attempts.append(AttemptRecord(y, Outcome.SHARED_FACTOR, factors=factors))
            elif kind == "new_base":
                open_y = _int_in("y", data["y"], 2, params.n)
                open_trials = []
            elif kind == "trial":
                if open_trials is None:
                    raise ValueError("no new_base before it")
                if open_trials and open_trials[-1].verified:
                    raise ValueError(f"trial {last_trial} verified the order of {open_y}")
                index = _int_in("index", data["index"], 1, math.inf)
                if last_trial and index != last_trial + 1:
                    raise ValueError(f"index {index} does not follow the last trial's {last_trial}")
                readout = _int_in("readout", data["readout"], 0, params.q)
                candidate = _int_in("candidate", data["candidate"], 1, params.n)
                derived = convergents(readout, params.q, params.n).denominator
                if candidate != derived:
                    raise ValueError(
                        f"candidate {candidate} is not {derived}, the denominator of "
                        f"the convergent of readout {readout}"
                    )
                verified = pow(open_y, candidate, params.n) == 1
                if data["verified"] is not verified:
                    raise ValueError(
                        f"verified {data['verified']!r} is not {verified}, "
                        f"as pow({open_y}, {candidate}, {params.n}) == 1 is"
                    )
                last_trial = index
                open_trials.append(OrderResult(index, readout, candidate, verified))
            elif kind == "attempt_verdict":
                if open_trials is None:
                    raise ValueError("no new_base before it")
                if not open_trials:
                    raise ValueError(f"no trial of {open_y} before it")
                status, order, factors = data["status"], data.get("order"), data.get("factors")
                if factors is not None or status in ("success", "trivial_factors"):
                    factors = _pair(data["factors"], params.n)
                # the verdict run_session gives these trials
                trial = open_trials[-1]
                if trial.verified:
                    found = trial.candidate_order
                    outcome, pair = extract_factors(open_y, found, params.n)
                    record = AttemptRecord(open_y, outcome, found, tuple(open_trials), pair)
                    reason = f"extract_factors({open_y}, {found}, {params.n}) gives"
                else:
                    record = AttemptRecord(
                        open_y, Outcome.TRIAL_BUDGET_EXHAUSTED, trials=tuple(open_trials)
                    )
                    reason = f"trial {trial.trial_index} is unverified"
                for key, read, value in (
                    ("status", status, record.outcome.value),
                    ("order", order, record.order),
                    ("factors", factors, record.factors),
                ):
                    if type(read) is not type(value) or read != value:
                        raise ValueError(f"{key} {read!r} is not {value!r}, as {reason}")
                attempts.append(record)
                open_trials = None
            elif kind == "safe_qubits_hint":
                safe = safe_qubits(params.n)
                if data["qubits"] != safe:
                    raise ValueError(f"qubits {data['qubits']!r} is not the safe size {safe}")
            elif kind == "summary":
                elapsed = data["elapsed"]
                if type(elapsed) is not float:
                    raise ValueError(f"elapsed {elapsed!r} is not a float")
                if not attempts or type(attempts[-1]) is int:
                    raise ValueError("no shared_factor or attempt_verdict ended the session")
                history = FactoringHistory.of(params, attempts, last_trial, elapsed)
                for key, value in _summary(history).items():
                    if data[key] != value:
                        raise ValueError(
                            f"{key} {data[key]!r} disagrees with the attempts, which give {value!r}"
                        )
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


def _pair(factors: Any, n: int) -> tuple[int, int]:
    """A factors field as read from a stream: a JSON array of two ints in [1, n]."""
    if type(factors) is not list or len(factors) != 2:
        raise ValueError(f"factors {factors!r} is not a pair")
    if not all(type(f) is int and 1 <= f <= n for f in factors):
        raise ValueError(f"factors {factors!r} are not ints in [1, {n}]")
    return tuple(factors)
