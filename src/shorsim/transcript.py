"""Rendering and serialization of factoring histories.

render_text and to_jsonl each write their output straight from the
history, in one pass over its attempts, every line from one f-string: the
human transcript line by line, and line-delimited JSON, one event per line,
that from_jsonl parses back to an equal history through the memos the
session takes each trial and split from. Each JSONL line is
json.dumps(event, sort_keys=True), written from a template of the event's
keys in sorted order, each template in one place: the banner and hint
(_preamble), a rejection (_rejection_head), a pick's other lines (_pick)
and the summary (_summary). A template holds only ints the
constructors have checked, the literals true, false and null, an
outcome's value, and the summary's elapsed, a finite float, as its repr,
the way json writes a float; the summary's warnings, text, are the one
value json encodes, and only when there are any. from_jsonl reads a
stream in one loop: it checks each pick against the same templates, with
no decode and no y formatted again, and decodes a pick that is not as
written line by line, once each, with json.loads, up to the next line
that opens with an event, where the check goes on. A stream that cannot
be parsed back, or whose history could not be written again, raises
TranscriptError naming the line at fault.
"""

from __future__ import annotations

import json
import re
from typing import Any

# the Outcome members as module globals, which skip the attribute lookup
# on the enum class
from .factorizer import (
    _BUDGET_EXHAUSTED,
    _ORDER_ODD,
    _SHARED_FACTOR,
    _TRIVIAL_FACTORS,
    AttemptRecord,
    FactoringHistory,
)
from .model import FactoringParams, _safe_qubits
from .orderfinder import OrderResult, _trial

PRIME_WARNING = "THE NUMBER YOU PICKED IS PRIME, PLEASE TRY AGAIN!!!"
SCHEMA_VERSION = 1  # of the JSONL stream; a banner without one is version 1
ORDER_INCORRECT = "The order is incorrect, the quantum computer will be reset to try again."
ORDER_CORRECT = "The quantum computer has found the correct order."
ORDER_ODD_LINE = "The order is odd, hence a new value of y will be chosen."
FACTORING_FAILED = "The factoring has failed, hence a new value of y will be chosen."
SUCCESS_LINE = "The program has succeeded and will now terminate."
FAILURE_LINE = "The program has failed and will now terminate."

# the line break before the next line that opens with an event, or with the
# summary's first key, which ends the lines from_jsonl decodes together
_NEXT_EVENT = re.compile(r'\n(?=\{"event": "|\{"elapsed": )')


class TranscriptError(ValueError):
    """A JSONL stream that does not parse back into a history."""

    def __init__(self, line: int, cause: str):
        super().__init__(f"line {line}: {cause}")
        self.line = line


def render_text(history: FactoringHistory) -> list[str]:
    """Render a history to the transcript, one line per list element."""
    params = history.params
    n = params.n
    lines = [
        f"The number to be factored is {n}.",
        f"The safe number of qubits needed to factor this number is {_safe_qubits(n)}.",
    ]
    append = lines.append
    after = f" exceeds the ceiling of {params.ceiling}, hence a new value of y will be chosen."
    index = 0  # a trial's number is its position in the session
    for attempt in history.attempts:
        for y in attempt.rejected:
            append(f"The order of y = {y}{after}")
        outcome = attempt.outcome
        if outcome is _SHARED_FACTOR:
            append(f"The randomly chosen y = {attempt.y} shares a factor with {n}.")
        else:
            append(f"Finding order of y = {attempt.y}.")
            for trial in attempt.trials:
                index += 1
                append(f"Trial #{index}.")
                append(f"The readout value from the work register is {trial.readout}.")
                append(f"The order found using this readout value is {trial.candidate_order}.")
                append(ORDER_CORRECT if trial.verified else ORDER_INCORRECT)
            if outcome is _ORDER_ODD:
                append(ORDER_ODD_LINE)
                continue
            if outcome is _BUDGET_EXHAUSTED:
                append(
                    f"The maximum of {params.max_trials} trials has been reached "
                    "without finding the factors."
                )
                append(FAILURE_LINE)
                continue
        f1, f2 = attempt.factors
        append(f"The factors of {n} are determined to be {f1} and {f2}.")
        append(FACTORING_FAILED if outcome is _TRIVIAL_FACTORS else SUCCESS_LINE)
    took = f"This simulation took {history.elapsed:.3f} seconds and {history.total_trials} trials"
    append(f"{took} to factor {n}." if history.factors else f"{took} without factoring {n}.")
    lines.extend(f"Warning: {warning}." for warning in history.warnings)
    return lines


def to_jsonl(history: FactoringHistory) -> str:
    """Serialize a history to line-delimited JSON, one event per line."""
    params = history.params
    head = _rejection_head(params)
    parts = [_preamble(params)]
    append = parts.append
    index = 0  # the trials before the pick, in the session
    for attempt in history.attempts:
        for y in attempt.rejected:
            append(f"{head}{y}}}\n")
        append(_pick(attempt, index))
        index += len(attempt.trials)
    append(_summary(history))
    return "".join(parts)


def from_jsonl(text: str) -> FactoringHistory:
    """Parse the output of to_jsonl back into an equal history.

    The text is read in one pass. Between picks, while no base is open,
    each unit is checked against what to_jsonl writes for the records
    built from its free fields, with no decode: the banner and hint, each
    pick's block of ceiling_rejection lines by its digits, the pick's
    other lines against _pick, and the summary, followed by whitespace
    only. No trial is built under a banner or hint to_jsonl would not
    write. A unit not as written, or whose fields a constructor refuses,
    is decoded line by line from its first line, or from the pick's own
    line when its block is as written, of bases in [2, n), with the
    block's bases pending; decoding runs up to the next line that opens
    with an event, and the check goes on from there. Each
    ceiling_rejection is pending until the next shared_factor or
    attempt_verdict, whose record carries it. Each stripped line is
    decoded at most once, by json.loads, whose refusal names the line and
    the cause, but for nesting past the recursion limit, named "nested
    too deeply", as the recursion error's text depends on the caller's
    stack. A text that is not a str raises TypeError before anything is
    split.

    The banner is the first event and the summary the last, each once. A
    new_base is followed by its trials and then its attempt_verdict, with no
    other event between, and no trial follows a verified one in its base.
    The y of a new_base, a ceiling_rejection or a shared_factor lies in
    [2, n), and a trial's readout in [0, q); the summary's elapsed is the
    one summary field read. Every other field read is the value the writers
    derive, of the same JSON type (_expect): a rejection's ceiling is
    FactoringParams.ceiling, whether its y's order exceeds it being
    untested, as that would cost an order test per line; a trial's index is
    its position in the stream, its candidate and verified those of the
    session's trial memo, _trial(readout, y, q, n); a shared_factor's
    factors those AttemptRecord(y, (), n) derives; a verdict's status,
    order and factors those AttemptRecord(y, trials, n) derives, refusing
    a y that shares a factor with n; and the summary is the one
    FactoringHistory(params, attempts, elapsed) derives, which refuses an
    elapsed that is not a float in [0, inf) or is -0.0, and attempts that
    no session produces. A summary after a pending rejection is refused, as
    no session ends on one. Fields not read are ignored, so older banners
    that carried a tail_threshold still parse; a banner without a schema is
    version 1, and one whose schema is not an int (a bool or a float is
    refused) or is newer than SCHEMA_VERSION is refused. Streams written
    while rejection lines named the requested ceiling rather than the
    applied one (null for no ceiling, or a value above q) are refused on
    their first such line. Any other input raises TranscriptError naming
    the line and the cause.
    """
    if not isinstance(text, str):
        raise TypeError(f"text must be a str, not {type(text).__name__}")
    try:
        # the banner's keys and values in turn; every second item from the
        # fourth is max_trials, n, order_ceiling, qubits, schema and seed
        budget, modulus, ceiling, qubits, _, seed = (
            text[: text.find("\n") - 1].replace(", ", ": ").split(": ")[3::2]
        )
        params = FactoringParams(
            int(modulus), int(qubits), int(seed), max_trials=int(budget),
            order_ceiling=None if ceiling == "null" else int(ceiling),
        )
    except (TypeError, ValueError):
        params = None
    if params is None or not text.startswith(preamble := _preamble(params)):
        params, preamble = None, ""  # the banner is decoded
    start = len(preamble)  # the offset of the next line to read
    attempts: list[AttemptRecord] = []
    rejected: list[int] = []  # pending for the next record
    open_y: Any = None
    open_trials: list[OrderResult] | None = None  # None: no base is open
    index = 0  # the trials run
    history = None  # the summary's, once decoded
    mark = number = 0  # number: the lines before the offset mark
    while start < len(text):
        if params is not None and open_trials is None and history is None:
            n, q, head = params.n, params.q, _rejection_head(params)
            while True:  # unit by unit, while each is as written
                at, block, record = start, (), None  # at: the pick's line after its block
                try:
                    if not rejected and text.startswith('{"elapsed": ', start):
                        elapsed = float(text[start + 12 : text.find(",", start)])
                        read = FactoringHistory(params, tuple(attempts), elapsed)
                        written = _summary(read)
                        # decoding skips the blank lines and whitespace after it
                        if text.startswith(written, start) and text[start:].rstrip() == written:
                            return read
                        break
                    if text.startswith(head, start):
                        # the block runs up to the next line that opens with an event;
                        # rsplit, as split's search from the left costs more per piece
                        at = text.find('\n{"event": "', start) + 1 or len(text)
                        ys = text[start + len(head) : at - 2].rsplit("}\n" + head)
                        tail = ys[-1]
                        cut = tail.find("}\n")
                        if cut >= 0:
                            # a pick line spelled otherwise, in the block's last
                            # piece: end the block before it, so that decoding
                            # can start at that line
                            ys[-1] = tail[:cut]
                            at += cut - len(tail)
                        digits = "".join(ys)
                        # as written when each y is ASCII digits with no leading
                        # zero: the strings str(int(y)) writes again
                        if not (text.startswith("}\n", at - 2) and digits.isascii()
                                and digits.isdigit()
                                and text.find("\n" + head + "0", start - 1, at) < 0):
                            break
                        block = tuple(map(int, ys))
                    eol = text.find("\n", at)
                    # the line's last field; the whole line when it has no space
                    y = int(text[text.rfind(" ", at, eol) + 1 or at : eol - 1])
                    if text.startswith('{"event": "new_base"', at):
                        readouts = text[eol : text.find('\n{"event": "', eol)]
                        readouts = readouts.split('"readout": ')[1:]
                        trials = tuple([_trial(int(r[: r.find(",")]), y, q, n) for r in readouts])
                    elif text.startswith('{"event": "shared_factor"', at):
                        trials = ()
                    else:
                        break
                    # no block follows a pending rejection, as decoding
                    # stops before a line that opens with an event
                    record = AttemptRecord(y, trials, n, block or tuple(rejected))
                except (TypeError, ValueError):  # which decoding names
                    break
                written = _pick(record, index)
                if not text.startswith(written, at):
                    break
                attempts.append(record)
                index += len(trials)
                rejected = []
                start = at + len(written)
            if block and (record is not None or 2 <= min(block) and max(block) < n):
                # the block is as written, of bases in [2, n), as a record
                # built from it shows: decode from the pick's own line
                rejected += block
                start = at
        # decode the lines from start up to the next that opens with an event
        found = _NEXT_EVENT.search(text, start)
        end = found.end() if found else len(text)
        number += text.count("\n", mark, start)  # the lines read as written
        for number, line in enumerate(text[start:end].splitlines(), number + 1):
            line = line.strip()
            if not line:
                continue
            if history is not None:
                raise TranscriptError(number, "the summary is not the last event")
            try:
                data = json.loads(line)
            except RecursionError:  # whose text names the container the stack ran out in
                raise TranscriptError(number, "not JSON (nested too deeply)") from None
            except ValueError as exc:  # also an int past CPython's digit limit
                raise TranscriptError(number, f"not JSON ({getattr(exc, 'msg', exc)})") from None
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
                    n, q = params.n, params.q
                elif params is None:
                    raise ValueError("no banner before it")
                elif kind == "ceiling_rejection":
                    y = _int_in("y", data["y"], 2, n)
                    _expect("ceiling", data["ceiling"], params.ceiling, "the session's")
                    rejected.append(y)
                elif kind == "shared_factor":
                    y = data["y"]  # the constructor refuses a y that is not an int in [2, n)
                    record = AttemptRecord(y, (), n, tuple(rejected))
                    factors = list(record.factors)
                    _expect("factors", data["factors"], factors, "as gcd({}, {}) = {} gives",
                            y, n, factors[0])
                    attempts.append(record)
                    rejected = []
                elif kind == "new_base":
                    open_y = _int_in("y", data["y"], 2, n)
                    open_trials = []
                elif kind == "trial":
                    if open_trials is None:
                        raise ValueError("no new_base before it")
                    if open_trials and open_trials[-1].verified:
                        raise ValueError(f"trial {index} verified the order of {open_y}")
                    index += 1
                    _expect("index", data["index"], index, "its position in the session")
                    readout = _int_in("readout", data["readout"], 0, q)
                    trial = _trial(readout, open_y, q, n)
                    candidate = trial.candidate_order
                    _expect("candidate", data["candidate"], candidate,
                            "the denominator of the convergent of readout {}", readout)
                    _expect("verified", data["verified"], trial.verified,
                            "as pow({}, {}, {}) == 1 is", open_y, candidate, n)
                    open_trials.append(trial)
                elif kind == "attempt_verdict":
                    if open_trials is None:
                        raise ValueError("no new_base before it")
                    if not open_trials:
                        raise ValueError(f"no trial of {open_y} before it")
                    record = AttemptRecord(open_y, tuple(open_trials), n, tuple(rejected))
                    order, factors = record.order, record.factors
                    if order is None:
                        reason, args = "as trial {} is unverified", (index,)
                    else:
                        reason, args = "as extract_factors({}, {}, {}) gives", (open_y, order, n)
                    _expect("status", data["status"], record.outcome._value_, reason, *args)
                    # a field the writer leaves out may be absent or null
                    read = data.get("order") if order is None else data["order"]
                    _expect("order", read, order, reason, *args)
                    read = data.get("factors") if factors is None else data["factors"]
                    _expect("factors", read, factors and list(factors), reason, *args)
                    attempts.append(record)
                    open_trials, rejected = None, []
                elif kind == "safe_qubits_hint":
                    _expect("qubits", data["qubits"], _safe_qubits(n), "the safe size")
                elif kind == "summary":
                    if rejected:
                        cause = f"the stream ends on the rejection of {rejected[-1]}"
                        raise ValueError(f"no AttemptRecord ended the session: {cause}")
                    history = FactoringHistory(params, tuple(attempts), data["elapsed"])
                    factors, failure = history.factors, history.failure
                    given = "as the attempts give"
                    _expect("n", data["n"], n, given)
                    _expect("total_trials", data["total_trials"], history.total_trials, given)
                    _expect("factors", data["factors"], factors and list(factors), given)
                    _expect("failure", data["failure"], failure and failure._value_, given)
                    _expect("warnings", data["warnings"], list(history.warnings), given)
                else:
                    raise ValueError("unknown event")
            except KeyError as exc:
                raise TranscriptError(number, f"{kind!r} event lacks field {exc}") from None
            except (TypeError, ValueError) as exc:
                raise TranscriptError(number, f"bad {kind!r} event: {exc}") from None
        mark = start = end
    if history is not None:
        return history
    last = len(text.rstrip().splitlines())  # the number of the last line not blank
    if params is None:
        raise TranscriptError(last + 1, "no banner event")
    if open_trials is not None:
        raise TranscriptError(last + 1, "the last new_base has no attempt_verdict")
    raise TranscriptError(last + 1, "no summary event")


def _preamble(params: FactoringParams) -> str:
    """The banner and safe_qubits_hint lines that to_jsonl writes, each
    ended by a line break."""
    n, ceiling = params.n, params.order_ceiling
    return (
        f'{{"event": "banner", "max_trials": {params.max_trials}, "n": {n}, '
        f'"order_ceiling": {"null" if ceiling is None else ceiling}, '
        f'"qubits": {params.qubits}, "schema": {SCHEMA_VERSION}, "seed": {params.seed}}}\n'
        f'{{"event": "safe_qubits_hint", "qubits": {_safe_qubits(n)}}}\n'
    )


def _rejection_head(params: FactoringParams) -> str:
    """A ceiling_rejection line of the session, as to_jsonl writes it, up to its y."""
    return f'{{"ceiling": {params.ceiling}, "event": "ceiling_rejection", "y": '


def _pick(attempt: AttemptRecord, index: int) -> str:
    """The lines to_jsonl writes for a pick after its rejections, each ended
    by a line break: its shared_factor, or its new_base, its trials, numbered
    on from index, the trials before it, and its attempt_verdict."""
    outcome, y, factors = attempt.outcome, attempt.y, attempt.factors
    if outcome is _SHARED_FACTOR:
        f1, f2 = factors
        return f'{{"event": "shared_factor", "factors": [{f1}, {f2}], "y": {y}}}\n'
    lines = f'{{"event": "new_base", "y": {y}}}\n'
    for trial in attempt.trials:
        index += 1
        lines += (
            f'{{"candidate": {trial.candidate_order}, "event": "trial", '
            f'"index": {index}, "readout": {trial.readout}, '
            f'"verified": {"true" if trial.verified else "false"}}}\n'
        )
    known = ""  # the verdict's fields between event and status
    if factors is not None:
        f1, f2 = factors
        known = f'"factors": [{f1}, {f2}], '
    if attempt.order is not None:
        known += f'"order": {attempt.order}, '
    # _value_, the member's str, a plain attribute where .value is a property
    return f'{lines}{{"event": "attempt_verdict", {known}"status": "{outcome._value_}"}}\n'


def _summary(history: FactoringHistory) -> str:
    """The summary line to_jsonl writes last, with no line break after it.
    elapsed is a finite float, which json writes as its repr; warning text
    is the one value left to the encoder."""
    factors, failure, warnings = history.factors, history.failure, history.warnings
    pair = "null" if factors is None else f"[{factors[0]}, {factors[1]}]"
    status = "null" if failure is None else f'"{failure._value_}"'
    return (
        f'{{"elapsed": {history.elapsed!r}, "event": "summary", "factors": {pair}, '
        f'"failure": {status}, "n": {history.params.n}, '
        f'"total_trials": {history.total_trials}, '
        f'"warnings": {json.dumps(warnings) if warnings else "[]"}}}'
    )


def _int_in(name: str, value: Any, low: int, high: float) -> int:
    """A field as read from a stream: an int, not a bool, in [low, high)."""
    if type(value) is not int or not low <= value < high:
        raise ValueError(f"{name} {value!r} is not an int in [{low}, {high})")
    return value


def _expect(name: str, read: Any, derived: Any, reason: str, *args: Any) -> None:
    """Refuse a field read from a stream unless it equals the value the
    writers derive and has its JSON type, one level into arrays: 1 is not
    true, 2.0 is not 2, and [11.0, 17] is not [11, 17]. The refusal gives
    reason.format(*args), built only when refusing."""
    same = type(read) is type(derived) and read == derived
    if not same or type(read) is list and [*map(type, read)] != [*map(type, derived)]:
        raise ValueError(f"{name} {read!r} is not {derived!r}, {reason.format(*args)}")
