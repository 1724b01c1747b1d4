import dataclasses
import functools
import hashlib
import json
import math
import re
from typing import Any
from unittest import mock

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from shorsim import transcript
from shorsim.factorizer import AttemptRecord, FactoringHistory, Outcome, factor
from shorsim.model import FactoringParams
from shorsim.orderfinder import OrderResult
from shorsim.transcript import (
    SCHEMA_VERSION,
    TranscriptError,
    from_jsonl,
    render_text,
    to_jsonl,
)
from conftest import (
    PINNED_OUTPUTS,
    brute_order,
    output_digests,
    reference_events,
    reference_text,
)


def session_history() -> FactoringHistory:
    """A whole 1328881 session of eleven trials on four bases: odd orders of
    200298 in trials 1-5 and 10, a trivial split of 505980 in trials 6-9 and
    a success of 205920 in trial 11. The readouts of trials 1-5 are the
    first five that ReadoutSampler(519, 2**41) draws from RandomSource(89)."""
    params = FactoringParams(1328881, 41, seed=0)
    q, n = params.q, params.n

    def record(y: int, *readouts: int) -> AttemptRecord:
        return AttemptRecord(y, tuple(OrderResult(c, y, q, n) for c in readouts), n)

    attempts = (
        record(200298, 1804978625945, 12711117084, 394044629608, 25422234169, 974518976449),
        record(505980, 1671511896561, 1366445086543, 1135526459514, 2137586189645),
        record(200298, 656741049346),
        record(205920, 1535926647664),
    )
    return FactoringHistory(params, attempts, elapsed=113.895)


@functools.lru_cache(maxsize=None)
def every_event_histories() -> tuple[FactoringHistory, ...]:
    """Seeded sessions that between them write every event, both kinds of
    order_ceiling, a warning and every verdict: rejections and a trivial
    split (187, seed 35), ten trials (187, seed 9), a shared factor with a
    composite one (105), and an odd order followed by the budget running out
    (1328881 with no ceiling and three trials)."""
    return (
        factor(187, seed=35),
        factor(187, seed=9),
        factor(105, seed=0),
        factor(1328881, seed=0, order_ceiling=None, max_trials=3),
    )


def respelled(line: str) -> str:
    """A JSONL line in another valid layout: its keys in reverse order, no
    spaces."""
    return json.dumps(dict(reversed(json.loads(line).items())), separators=(",", ":"))


def read_back(history: FactoringHistory) -> FactoringHistory:
    """from_jsonl(to_jsonl(history)), checked to be what the whole-stream
    check builds and what the general path alone, with the check off,
    reads from the same text."""
    text = to_jsonl(history)
    assert transcript._written_back(text) == history
    with mock.patch.object(transcript, "_written_back", lambda text: None):
        assert from_jsonl(text) == history
    return from_jsonl(text)


def assert_canonical_round_trip(history: FactoringHistory) -> None:
    """Every line of the history's stream is its own canonical JSON,
    json.dumps(event, sort_keys=True), and the stream parses back to it,
    by the whole-stream check and by the general path alike."""
    text = to_jsonl(history)
    for line in text.splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True)
    assert read_back(history) == history


GOLDEN_TAIL = """\
Finding order of y = 505980.
Trial #6.
The readout value from the work register is 1671511896561.
The order found using this readout value is 346.
The order is incorrect, the quantum computer will be reset to try again.
Trial #7.
The readout value from the work register is 1366445086543.
The order found using this readout value is 346.
The order is incorrect, the quantum computer will be reset to try again.
Trial #8.
The readout value from the work register is 1135526459514.
The order found using this readout value is 519.
The order is incorrect, the quantum computer will be reset to try again.
Trial #9.
The readout value from the work register is 2137586189645.
The order found using this readout value is 1038.
The quantum computer has found the correct order.
The factors of 1328881 are determined to be 1328881 and 1.
The factoring has failed, hence a new value of y will be chosen.
Finding order of y = 200298.
Trial #10.
The readout value from the work register is 656741049346.
The order found using this readout value is 519.
The quantum computer has found the correct order.
The order is odd, hence a new value of y will be chosen.
Finding order of y = 205920.
Trial #11.
The readout value from the work register is 1535926647664.
The order found using this readout value is 1038.
The quantum computer has found the correct order.
The factors of 1328881 are determined to be 1039 and 1279.
The program has succeeded and will now terminate.
This simulation took 113.895 seconds and 11 trials to factor 1328881."""


class TestRenderText:
    def test_golden_session_tail(self):
        lines = render_text(session_history())
        assert lines[0] == "The number to be factored is 1328881."
        assert (
            lines[1]
            == "The safe number of qubits needed to factor this number is 41."
        )
        tail = GOLDEN_TAIL.splitlines()
        assert lines[-len(tail):] == tail
        # the first base, which ran trials 1 to 5, comes before it
        head = lines[2 : -len(tail)]
        assert head[0] == "Finding order of y = 200298."
        assert [line for line in head if line.startswith("Trial #")] == [
            f"Trial #{index}." for index in range(1, 6)
        ]
        assert head[-1] == "The order is odd, hence a new value of y will be chosen."

    def test_ceiling_rejection_line(self):
        history = factor(1328881, 41, seed=3)
        lines = render_text(history)
        rejected = [y for a in history.attempts for y in a.rejected]
        assert rejected
        expected = (
            f"The order of y = {rejected[0]} exceeds the ceiling of 1152, "
            "hence a new value of y will be chosen."
        )
        assert expected in lines

    def test_shared_factor_lines(self):
        params = FactoringParams(187, 16, seed=0)
        history = FactoringHistory(params, (AttemptRecord(33, (), 187),), elapsed=0.25)
        lines = render_text(history)
        assert "The randomly chosen y = 33 shares a factor with 187." in lines
        assert "The factors of 187 are determined to be 11 and 17." in lines
        assert "The program has succeeded and will now terminate." in lines

    def test_failure_lines(self):
        params = FactoringParams(187, 16, seed=0, max_trials=2)
        trials = (OrderResult(1, 56, params.q, 187),) * 2
        history = FactoringHistory(params, (AttemptRecord(56, trials, 187),), elapsed=0.5)
        lines = render_text(history)
        assert (
            "The maximum of 2 trials has been reached without finding the factors."
            in lines
        )
        assert "The program has failed and will now terminate." in lines
        assert (
            "This simulation took 0.500 seconds and 2 trials without factoring 187."
            in lines
        )


class TestEvents:
    def test_event_stream_shape(self):
        lines = to_jsonl(session_history()).splitlines()
        kinds = [json.loads(line)["event"] for line in lines]
        assert kinds[0] == "banner"
        assert kinds[1] == "safe_qubits_hint"
        assert kinds[-1] == "summary"
        assert kinds.count("new_base") == 4
        assert kinds.count("trial") == 11
        assert kinds.count("attempt_verdict") == 4


@functools.cache
def line_kind_sessions() -> dict[int, FactoringHistory]:
    """Three sessions whose transcripts between them have every kind of
    line, and the ten-digit session of seed 3, by n."""
    return {
        # ceiling rejections, odd orders, trivial splits and a success
        187: factor(187, seed=53),
        # a shared factor, with a composite factor's warning
        105: factor(105, seed=0),
        # an odd order, then a spent budget and a failure
        1328881: factor(1328881, seed=0, order_ceiling=None, max_trials=3),
        # one run of 42,523 ceiling rejections, and a trial at q = 2**67
        9954647173: factor(9954647173, seed=3),
    }


class TestTranscriptBytes:
    @pytest.mark.parametrize("n,seed,jsonl_digest,text_digest", PINNED_OUTPUTS)
    def test_output_is_pinned(self, n, seed, jsonl_digest, text_digest):
        # both renderings of a seeded session, hashed with the wall-clock time
        # zeroed; the ten-digit session has 42,523 ceiling rejections before
        # its one trial
        assert output_digests(factor(n, seed=seed)) == (jsonl_digest, text_digest)

    @pytest.mark.parametrize(
        "n,jsonl_digest,text_digest",
        [
            (
                187,
                "86bdc0f21e1833520d39a752e4a6ba9cc0d8f977ad302554406b345acc03547d",
                "6f5af30974ac3bed9b059a4a5aeaf6703f1a5cf137bd510eeffe5393ab498039",
            ),
            (
                105,
                "5ae4222cff62ddbcd6e1d81a894609985f15f6328e66e1e6b198212052c44088",
                "d1c34017bc7ae3f9b6017f9e5d1da1441a80d245c4694c5fbd7d88467e19703e",
            ),
            (
                1328881,
                "4237b3549820e4d5d2ecfe27f8b9b18f2a46e5f3853488a685afc2a676a39e6a",
                "f20497e5c126685f8af4ac147d8ed5fb3eecce2d0504f7d5035d354710f67525",
            ),
        ],
    )
    def test_every_line_kind_is_pinned(self, n, jsonl_digest, text_digest):
        # both renderings at each elapsed in turn, one newline after each,
        # hashed together; the times cover .3f rounding on both sides of a
        # half, repr's exponent forms, the least subnormal and a float
        # that .3f prints in full
        session = line_kind_sessions()[n]
        jsonl, text = hashlib.sha256(), hashlib.sha256()
        for elapsed in (0.0, 0.0005, 2.0005, 1e-05, 5e-324, 1.5e16):
            history = dataclasses.replace(session, elapsed=elapsed)
            jsonl.update(f"{to_jsonl(history)}\n".encode())
            text.update("".join(f"{line}\n" for line in render_text(history)).encode())
        assert jsonl.hexdigest() == jsonl_digest
        assert text.hexdigest() == text_digest

    @pytest.mark.parametrize("n", [187, 105, 1328881, 9954647173])
    def test_every_line_kind_is_the_reference_events(self, n):
        # each line as the README's schema table and the history's fields
        # give it, built with no code of the writer's, at the times above
        session = line_kind_sessions()[n]
        for elapsed in (0.0, 0.0005, 2.0005, 1e-05, 5e-324, 1.5e16):
            history = dataclasses.replace(session, elapsed=elapsed)
            assert to_jsonl(history).splitlines() == reference_events(history)

    @pytest.mark.parametrize("n", [187, 105, 1328881, 9954647173])
    def test_every_line_kind_is_the_reference_text(self, n):
        # each line as the README's transcript lines and the history's
        # fields give it, built with no code of the writer's, at the times
        # above
        session = line_kind_sessions()[n]
        for elapsed in (0.0, 0.0005, 2.0005, 1e-05, 5e-324, 1.5e16):
            history = dataclasses.replace(session, elapsed=elapsed)
            assert render_text(history) == reference_text(history)


class TestSummaryLine:
    # each session's summary fields, as its transcript states them
    EXPECTED = {
        187: (22, [11, 17], None, []),
        105: (0, [3, 35], None, ["reported factor 35 of 105 is composite"]),
        1328881: (3, None, "trial_budget_exhausted", []),
    }

    @given(
        st.sampled_from(sorted(EXPECTED)),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=300, deadline=None)
    @example(187, 0.0)
    @example(105, 5e-324)
    @example(1328881, 1.5e16)
    def test_summary_is_canonical_json(self, n, elapsed):
        history = dataclasses.replace(line_kind_sessions()[n], elapsed=elapsed)
        trials, factors, failure, warnings = self.EXPECTED[n]
        expected = {
            "event": "summary",
            "n": n,
            "elapsed": elapsed,
            "total_trials": trials,
            "factors": factors,
            "failure": failure,
            "warnings": warnings,
        }
        line = to_jsonl(history).splitlines()[-1]
        assert line == json.dumps(expected, sort_keys=True)
        assert repr(json.loads(line)["elapsed"]) == repr(elapsed)
        ending = f"to factor {n}." if factors else f"without factoring {n}."
        text = render_text(history)[-1 - len(warnings)]
        assert text == "This simulation took %.3f seconds and %d trials %s" % (
            elapsed, trials, ending)


class TestJsonlRoundTrip:
    def test_handcrafted_history(self):
        history = session_history()
        assert read_back(history) == history

    @pytest.mark.parametrize("seed", range(6))
    def test_real_sessions(self, seed):
        history = factor(1328881, 41, seed=seed)
        assert read_back(history) == history

    def test_failure_session(self):
        history = factor(1328881, 41, seed=11, max_trials=1)
        assert read_back(history) == history

    def test_small_sessions(self):
        for seed in range(4):
            history = factor(15, 8, seed=seed)
            assert read_back(history) == history

    @pytest.mark.parametrize("n", [15, 105, 187, 1328881])
    def test_every_history_the_constructors_accept(self, n):
        # every seeded session on these grids, and every prefix of its
        # attempts: the session under a budget of the trials that prefix
        # ran, which ends there
        for max_trials in (1, 2, 100):
            for order_ceiling in ("sqrt", None, 3):
                for seed in range(30):
                    session = factor(n, seed=seed, max_trials=max_trials,
                                     order_ceiling=order_ceiling)
                    attempts, trials = session.attempts, 0
                    for end, record in enumerate(attempts, 1):
                        trials += len(record.trials)
                        params = session.params
                        if end < len(attempts):
                            params = dataclasses.replace(params, max_trials=trials)
                        history = FactoringHistory(params, attempts[:end], 0.5)
                        assert_canonical_round_trip(history)
                        render_text(history)

    def test_history_with_a_trial_built_for_another_base(self):
        # readout 1638 of 2**16 gives the candidate 40, which fails for 3
        # (order 80 mod 187) and holds for 36 (order 40); taken as the one
        # unverified trial of 36, it would make a history whose stream the
        # reader, which derives the trial for 36, refuses on line 4. The
        # record of 36 refuses the trial of 3 when it is built
        trial = OrderResult(1638, 3, 2**16, 187)
        assert (trial.candidate_order, trial.verified) == (40, False)
        assert pow(36, 40, 187) == 1
        with pytest.raises(ValueError, match="^a trial of 3 mod 187 is not one of 36 mod 187$"):
            AttemptRecord(36, (trial,), 187)
        # the trial of 36 itself verifies the order 40, which splits 187
        params = FactoringParams(187, 16, seed=0, max_trials=1, order_ceiling=None)
        own = AttemptRecord(36, (OrderResult(1638, 36, 2**16, 187),), 187)
        history = FactoringHistory(params, (own,), 0.0)
        assert (own.order, history.factors) == (40, (17, 11))
        assert read_back(history) == history

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_records_built_from_arbitrary_readouts(self, data):
        # up to three bases, each after some rejected ones and with trials
        # built from arbitrary readouts and stopped at the first verified
        # one, until one does not continue the session: a success, or a base
        # whose trials all fail. A success may leave some of the budget; any
        # other end spends it. A base is mostly in [2, n), and now and then
        # any int: the history is refused as it is built, or round-trips.
        n = data.draw(st.sampled_from([15, 187, 1328881]))
        q = FactoringParams(n, seed=0).q
        ints = st.integers(2, n - 1) | st.sampled_from([0, 1, n, n + 11, 2**70]) | st.integers()
        attempts, total = [], 0
        try:
            for _ in range(data.draw(st.integers(1, 3))):
                y = data.draw(st.integers(2, n - 1).filter(lambda y: math.gcd(y, n) == 1) | ints)
                rejected = tuple(data.draw(st.lists(ints, max_size=3)))
                trials = []
                for readout in data.draw(st.lists(st.integers(0, q - 1), min_size=1)):
                    trials.append(OrderResult(readout, y, q, n))
                    if trials[-1].verified:
                        break
                attempts.append(AttemptRecord(y, tuple(trials), n, rejected))
                total += len(trials)
                if attempts[-1].outcome in (Outcome.SUCCESS, Outcome.TRIAL_BUDGET_EXHAUSTED):
                    break
            spare = data.draw(st.integers(0, 5)) if attempts[-1].outcome is Outcome.SUCCESS else 0
            params = FactoringParams(n, seed=0, max_trials=total + spare)
            elapsed = data.draw(st.floats(0.0, 1e6))
            history = FactoringHistory(params, tuple(attempts), elapsed)
        except ValueError:
            return
        assert history.total_trials == total
        assert_canonical_round_trip(history)

    def test_each_line_is_canonical_json(self):
        events = []
        for history in (*every_event_histories(), ten_digit_stream()[0]):
            assert_canonical_round_trip(history)
            events += [json.loads(line) for line in to_jsonl(history).splitlines()]
        assert {event["event"] for event in events} == set(EVENT_KINDS)
        statuses = {event.get("status") for event in events} - {None}
        assert statuses == {"success", "order_odd", "trivial_factors", "trial_budget_exhausted"}
        banners = [event for event in events if event["event"] == "banner"]
        assert {type(banner["order_ceiling"]) for banner in banners} == {int, type(None)}
        assert any(event.get("warnings") for event in events)

    def test_respelled_streams_read_the_same(self):
        # the same events in another valid layout take the general path on
        # every line, rejections included, and give the same history; the
        # ten-digit stream's 42,523 rejections too
        for history in (*every_event_histories(), ten_digit_stream()[0]):
            canonical = to_jsonl(history).splitlines()
            lines = [respelled(line) for line in canonical]
            assert all(map(str.__ne__, lines, canonical))
            assert from_jsonl("\n".join(lines)) == history

    def test_one_event_per_line(self):
        text = to_jsonl(session_history())
        lines = text.splitlines()
        # banner, hint, four bases with eleven trials and four verdicts, summary
        assert len(lines) == 2 + 4 + 11 + 4 + 1
        for line in lines:
            assert "event" in json.loads(line)

    def test_banner_of_earlier_versions_still_parses(self):
        # streams written before the sampler lost its tail_threshold knob
        history = session_history()
        lines = to_jsonl(history).splitlines()
        banner = json.loads(lines[0])
        assert "tail_threshold" not in banner
        banner["tail_threshold"] = 1e-12
        lines[0] = json.dumps(banner, sort_keys=True)
        assert from_jsonl("\n".join(lines)) == history


    def test_banner_carries_the_schema_version(self):
        banner = json.loads(to_jsonl(session_history()).splitlines()[0])
        assert banner["schema"] == SCHEMA_VERSION == 1

    def test_banner_without_schema_still_parses(self):
        # streams written before the banner carried a schema version
        history = session_history()
        lines = to_jsonl(history).splitlines()
        banner = json.loads(lines[0])
        del banner["schema"]
        lines[0] = json.dumps(banner, sort_keys=True)
        assert from_jsonl("\n".join(lines)) == history

    @pytest.mark.parametrize("order_ceiling", [None, 100])
    def test_rejection_naming_the_requested_ceiling_is_refused(self, order_ceiling):
        # streams written before rejection lines named the applied ceiling,
        # min(order_ceiling, q) or q when there is none, carried the
        # requested one: null, or a value above q = 8
        lines = to_jsonl(factor(187, 3, seed=1, order_ceiling=order_ceiling)).splitlines()
        assert lines[2] == '{"ceiling": 8, "event": "ceiling_rejection", "y": 36}'
        lines[2] = json.dumps({"ceiling": order_ceiling, "event": "ceiling_rejection", "y": 36})
        with pytest.raises(TranscriptError, match="ceiling .* is not 8, the session's") as info:
            from_jsonl("\n".join(lines))
        assert info.value.line == 3


MISSING = object()
REJECTION = '{"ceiling": 1152, "event": "ceiling_rejection", "y": 7}'
ONE_FACTOR = '{"event": "shared_factor", "factors": [11], "y": 1039}'


def shared_factor(y: int) -> str:
    """A shared_factor event of a 1328881 stream with y and factors [1039, 1279]."""
    return json.dumps({"event": "shared_factor", "y": y, "factors": [1039, 1279]})


def session_stream() -> list[str]:
    return to_jsonl(session_history()).splitlines()


def stream_187(seed: int, **kwargs: Any) -> list[str]:
    return to_jsonl(factor(187, 16, seed=seed, **kwargs)).splitlines()


def renumbered(lines: list[str], shift: int) -> list[str]:
    """A stream's lines with every trial index and total_trials `shift` higher."""
    events = [json.loads(line) for line in lines]
    for event in events:
        for key in ("index", "total_trials"):
            if key in event:
                event[key] += shift
    return [json.dumps(event) for event in events]


def success_then_base() -> list[str]:
    """session_history()'s stream with its last base, the success of trial
    11, drawn again and run as trial 12."""
    lines = with_fields(22, total_trials=12)(session_stream())
    again = [lines[18], *renumbered(lines[19:20], 1), lines[20]]
    return lines[:21] + again + lines[21:]


def with_fields(number: int, **fields: Any):
    """An edit of a stream's lines that sets fields of the event on line
    `number`, or deletes those given as MISSING."""

    def edit(lines: list[str]) -> list[str]:
        event = json.loads(lines[number - 1])
        for key, value in fields.items():
            if value is MISSING:
                del event[key]
            else:
                event[key] = value
        return lines[: number - 1] + [json.dumps(event)] + lines[number:]

    return edit


class TestJsonlErrors:
    @pytest.mark.parametrize(
        "text,line,cause",
        [
            ("", 1, "no banner event"),
            ('{"kind": "banner"}', 1, "not an object with an 'event' field"),
            ("[1, 2]", 1, "not an object with an 'event' field"),
            ("The number to be factored is 187.", 1, "not JSON"),
            ('{"event": "banner", "n": 187}', 1, "'banner' event lacks field 'qubits'"),
        ],
    )
    def test_bad_input_names_line_and_cause(self, text, line, cause):
        with pytest.raises(TranscriptError) as info:
            from_jsonl(text)
        assert info.value.line == line
        assert cause in str(info.value)
        assert str(info.value).startswith(f"line {line}: ")

    @pytest.mark.parametrize(
        "encode,name",
        [
            (lambda text: None, "NoneType"),
            (str.encode, "bytes"),
            (lambda text: bytearray(text.encode()), "bytearray"),
            (len, "int"),
        ],
    )
    def test_text_that_is_not_a_str_is_refused(self, encode, name):
        # refused before anything is split, bytes of a valid stream too
        text = encode(to_jsonl(session_history()))
        with pytest.raises(TypeError) as info:
            from_jsonl(text)
        assert str(info.value) == f"text must be a str, not {name}"

    def test_truncated_stream_points_past_its_end(self):
        lines = to_jsonl(session_history()).splitlines()[:-1]
        with pytest.raises(TranscriptError, match="no summary event") as info:
            from_jsonl("\n".join(lines))
        assert info.value.line == len(lines) + 1

    def test_bad_value_names_its_line(self):
        lines = to_jsonl(session_history()).splitlines()
        verdict = json.loads(lines[14])
        assert verdict["event"] == "attempt_verdict"
        verdict["status"] = "exploded"
        lines[14] = json.dumps(verdict)
        with pytest.raises(TranscriptError, match="bad 'attempt_verdict' event") as info:
            from_jsonl("\n".join(lines))
        assert info.value.line == 15
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("schema", [SCHEMA_VERSION + 1, 99, "1", None, 1.5])
    def test_unknown_schema_is_refused(self, schema):
        lines = to_jsonl(session_history()).splitlines()
        banner = json.loads(lines[0])
        banner["schema"] = schema
        lines[0] = json.dumps(banner)
        with pytest.raises(TranscriptError, match="schema") as info:
            from_jsonl("\n".join(lines))
        assert info.value.line == 1

    @pytest.mark.parametrize("schema", [True, 1.0])
    def test_schema_of_another_json_type_is_refused(self, schema):
        # 1 is not true and 1.0 is not 1, as for every other field read
        lines = to_jsonl(factor(187, seed=9)).splitlines()
        banner = json.loads(lines[0])
        banner["schema"] = schema
        lines[0] = json.dumps(banner)
        with pytest.raises(TranscriptError, match=f"schema {schema!r} is unknown") as info:
            from_jsonl("\n".join(lines))
        assert info.value.line == 1

    def test_bool_order_ceiling_in_banner_is_refused(self):
        lines = to_jsonl(session_history()).splitlines()
        banner = json.loads(lines[0])
        banner["order_ceiling"] = True
        lines[0] = json.dumps(banner)
        with pytest.raises(TranscriptError, match="order_ceiling must not be a bool") as info:
            from_jsonl("\n".join(lines))
        assert info.value.line == 1

    @pytest.mark.parametrize(
        "edit,line,cause",
        [
            # lines of session_history(): 9, 15, 18 and 21 are its verdicts, 22
            # the summary
            pytest.param(
                with_fields(21, factors=MISSING),
                21,
                "'attempt_verdict' event lacks field 'factors'",
                id="success-without-factors",
            ),
            pytest.param(
                with_fields(15, factors=MISSING),
                15,
                "'attempt_verdict' event lacks field 'factors'",
                id="trivial-without-factors",
            ),
            pytest.param(
                with_fields(21, factors=None),
                21,
                "factors None is not [1039, 1279], as extract_factors(205920, 1038, 1328881) gives",
                id="null-factors",
            ),
            pytest.param(
                with_fields(21, factors=[1039, 1279, 1]),
                21,
                "factors [1039, 1279, 1] is not [1039, 1279]",
                id="three-factors",
            ),
            pytest.param(
                with_fields(15, factors=[1328881]),
                15,
                "factors [1328881] is not [1328881, 1]",
                id="one-factor",
            ),
            pytest.param(
                with_fields(18, status="order_ceiling_rejected"),
                18,
                "status 'order_ceiling_rejected' is not 'order_odd', "
                "as extract_factors(200298, 519, 1328881) gives",
                id="rejection-as-verdict",
            ),
            pytest.param(
                with_fields(15, status="shared_factor_shortcut"),
                15,
                "status 'shared_factor_shortcut' is not 'trivial_factors', "
                "as extract_factors(505980, 1038, 1328881) gives",
                id="shared-factor-as-verdict",
            ),
            pytest.param(
                lambda lines: lines[:15] + lines[14:],
                16,
                "bad 'attempt_verdict' event: no new_base before it",
                id="verdict-without-base",
            ),
            pytest.param(
                lambda lines: lines[:15] + lines[16:],
                16,
                "bad 'trial' event: no new_base before it",
                id="trial-without-base",
            ),
            pytest.param(
                lambda lines: lines[:14] + lines[15:],
                15,
                "bad 'new_base' event: the last new_base has no attempt_verdict",
                id="base-without-verdict",
            ),
            pytest.param(
                lambda lines: lines[:4] + [lines[0].replace("banner", "x")] + lines[4:],
                5,
                "bad 'x' event: the last new_base has no attempt_verdict",
                id="other-event-inside-a-base",
            ),
            pytest.param(
                lambda lines: lines[:4] + [REJECTION] + lines[4:],
                5,
                "bad 'ceiling_rejection' event: the last new_base has no attempt_verdict",
                id="rejection-inside-a-base",
            ),
            pytest.param(
                lambda lines: lines[:20],
                21,
                "the last new_base has no attempt_verdict",
                id="stream-ends-inside-a-base",
            ),
            pytest.param(
                lambda lines: lines[:21] + [ONE_FACTOR] + lines[21:],
                22,
                "factors [11] is not [1039, 1279], as gcd(1039, 1328881) = 1039 gives",
                id="shared-factor-with-one-factor",
            ),
            # a shared factor inserted before the summary, with the factors
            # [1039, 1279] that the summary names, so only the event is wrong
            pytest.param(
                lambda lines: lines[:21] + [shared_factor(1328881 + 1039)] + lines[21:],
                22,
                "bad 'shared_factor' event: y 1329920 is not in [2, 1328881)",
                id="shared-factor-y-above-n",
            ),
            pytest.param(
                lambda lines: lines[:21] + [shared_factor(1039.0)] + lines[21:],
                22,
                "bad 'shared_factor' event: y must be an int, not float",
                id="shared-factor-y-float",
            ),
            pytest.param(
                lambda lines: lines[:21] + [shared_factor(True)] + lines[21:],
                22,
                "bad 'shared_factor' event: y must be an int, not bool",
                id="shared-factor-y-bool",
            ),
            pytest.param(
                lambda lines: lines[:21] + [shared_factor(3)] + lines[21:],
                22,
                "bad 'shared_factor' event: y 3 shares no factor with 1328881",
                id="shared-factor-coprime-y",
            ),
            pytest.param(
                lambda lines: lines[:21] + [shared_factor(2 * 1279)] + lines[21:],
                22,
                "factors [1039, 1279] is not [1279, 1039], as gcd(2558, 1328881) = 1279 gives",
                id="shared-factor-not-from-gcd",
            ),
            pytest.param(
                with_fields(22, elapsed="113.895"),
                22,
                "elapsed '113.895' is not a float",
                id="elapsed-not-a-number",
            ),
            # no session takes a time outside [0, inf); render_text would
            # print "took nan seconds" and to_jsonl write NaN, which is not JSON
            pytest.param(
                with_fields(22, elapsed=math.nan),
                22,
                "elapsed nan is not a float",
                id="elapsed-nan",
            ),
            pytest.param(
                with_fields(22, elapsed=math.inf),
                22,
                "elapsed inf is not a float",
                id="elapsed-infinity",
            ),
            pytest.param(
                lambda lines: lines[:21] + [lines[21].replace("113.895", "1e400")],
                22,
                "elapsed inf is not a float",
                id="elapsed-past-the-float-range",
            ),
            pytest.param(
                with_fields(22, elapsed=-1.5),
                22,
                "elapsed -1.5 is not a float",
                id="elapsed-negative",
            ),
            # -0.0 passes 0.0 <= elapsed; render_text would print "took -0.000 seconds"
            pytest.param(
                with_fields(22, elapsed=-0.0),
                22,
                "elapsed -0.0 is not a float",
                id="elapsed-negative-zero",
            ),
            pytest.param(
                with_fields(1, max_trials=2.5),
                1,
                "max_trials must be an int, not float",
                id="float-max-trials",
            ),
            pytest.param(
                with_fields(1, seed=None), 1, "seed must not be null", id="null-seed"
            ),
            pytest.param(
                with_fields(1, qubits=None), 1, "qubits must not be null", id="null-qubits"
            ),
            pytest.param(
                lambda lines: lines[:2] + ['{"event": "nonsense"}'] + lines[2:],
                3,
                "bad 'nonsense' event: unknown event",
                id="unknown-event",
            ),
            pytest.param(
                lambda lines: lines[:2] + [lines[0]] + lines[2:],
                3,
                "bad 'banner' event: a banner came before it",
                id="second-banner",
            ),
            pytest.param(
                lambda lines: lines + [lines[-1]],
                23,
                "the summary is not the last event",
                id="second-summary",
            ),
            pytest.param(
                lambda lines: [lines[-1]] + lines[:-1],
                1,
                "bad 'summary' event: no banner before it",
                id="summary-first",
            ),
            pytest.param(
                lambda lines: lines[1:] + [lines[0]],
                1,
                "bad 'safe_qubits_hint' event: no banner before it",
                id="banner-last",
            ),
            pytest.param(
                lambda lines: [REJECTION] + lines,
                1,
                "bad 'ceiling_rejection' event: no banner before it",
                id="rejection-before-banner",
            ),
            pytest.param(
                with_fields(2, qubits=3),
                2,
                "bad 'safe_qubits_hint' event: qubits 3 is not 41, the safe size",
                id="wrong-hint",
            ),
            pytest.param(
                with_fields(21, factors=[1039, 1279.0]),
                21,
                "factors [1039, 1279.0] is not [1039, 1279]",
                id="float-factor",
            ),
            pytest.param(
                with_fields(21, factors=[1039, 10**4000]),
                21,
                "is not [1039, 1279], as extract_factors(205920, 1038, 1328881) gives",
                id="factor-above-n",
            ),
            pytest.param(
                with_fields(22, total_trials=99),
                22,
                "bad 'summary' event: total_trials 99 is not 11, as the attempts give",
                id="summary-trials",
            ),
            pytest.param(
                with_fields(22, factors=None),
                22,
                "factors None is not [1039, 1279], as the attempts give",
                id="summary-factors",
            ),
            pytest.param(
                with_fields(22, failure="trial_budget_exhausted"),
                22,
                "failure 'trial_budget_exhausted' is not None, as the attempts give",
                id="summary-failure",
            ),
            pytest.param(
                with_fields(22, warnings=["x"]),
                22,
                "warnings ['x'] is not [], as the attempts give",
                id="summary-warnings",
            ),
            pytest.param(
                with_fields(22, n=187),
                22,
                "n 187 is not 1328881, as the attempts give",
                id="summary-n",
            ),
            pytest.param(
                with_fields(22, total_trials=MISSING),
                22,
                "'summary' event lacks field 'total_trials'",
                id="summary-without-trials",
            ),
            # lines 3, 10, 16 and 19 are its new_base events; 4-8 are trials
            # 1-5 of base 200298 (order 519), 11-14 trials 6-9 of base 505980
            # (order 1038, q = 2**41), 17 and 20 trials 10 and 11
            pytest.param(
                with_fields(10, y="505980"),
                10,
                "bad 'new_base' event: y '505980' is not an int in [2, 1328881)",
                id="base-not-an-int",
            ),
            pytest.param(
                with_fields(16, y=1328881),
                16,
                "y 1328881 is not an int in [2, 1328881)",
                id="base-at-n",
            ),
            pytest.param(
                with_fields(11, index="x"),
                11,
                "bad 'trial' event: index 'x' is not 6, its position in the session",
                id="index-not-an-int",
            ),
            pytest.param(
                with_fields(4, index=True),
                4,
                "index True is not 1, its position in the session",
                id="index-a-bool",
            ),
            pytest.param(
                with_fields(4, index=0), 4, "index 0 is not 1, its position", id="index-zero"
            ),
            pytest.param(
                with_fields(13, index=9),
                13,
                "index 9 is not 8, its position in the session",
                id="index-skips",
            ),
            pytest.param(
                with_fields(17, index=9),
                17,
                "index 9 is not 10, its position in the session",
                id="index-repeats-across-bases",
            ),
            pytest.param(
                with_fields(11, readout=-5),
                11,
                "readout -5 is not an int in [0, 2199023255552)",
                id="readout-negative",
            ),
            pytest.param(
                with_fields(14, readout=2**41),
                14,
                "readout 2199023255552 is not an int in [0, 2199023255552)",
                id="readout-at-q",
            ),
            pytest.param(
                with_fields(17, readout=656741049346.0),
                17,
                "readout 656741049346.0 is not an int in [0, 2199023255552)",
                id="readout-a-float",
            ),
            pytest.param(
                with_fields(11, candidate=0),
                11,
                "candidate 0 is not 346, the denominator of the convergent",
                id="candidate-zero",
            ),
            pytest.param(
                with_fields(20, candidate=1328881),
                20,
                "candidate 1328881 is not 1038, the denominator of the convergent",
                id="candidate-at-n",
            ),
            pytest.param(
                with_fields(11, verified="yes"),
                11,
                "bad 'trial' event: verified 'yes' is not False, "
                "as pow(505980, 346, 1328881) == 1 is",
                id="verified-not-a-bool",
            ),
            pytest.param(
                with_fields(12, verified=True),
                12,
                "verified True is not False, as pow(505980, 346, 1328881) == 1 is",
                id="verified-claims-a-failed-check",
            ),
            pytest.param(
                with_fields(20, verified=False),
                20,
                "verified False is not True, as pow(205920, 1038, 1328881) == 1 is",
                id="verified-denies-a-passed-check",
            ),
            pytest.param(
                with_fields(14, verified=1),
                14,
                "verified 1 is not True",
                id="verified-an-int",
            ),
            # every field below is one the writers derive from the readouts,
            # edited so that the rest of the stream still agrees with it
            pytest.param(
                with_fields(11, candidate=347),
                11,
                "candidate 347 is not 346, the denominator of the convergent of "
                "readout 1671511896561",
                id="candidate-not-the-convergent",
            ),
            pytest.param(
                # trial 11 verified the order of 205920; a twelfth follows it
                lambda lines: with_fields(23, total_trials=12)(
                    lines[:20] + with_fields(20, index=12)(lines)[19:20] + lines[20:]
                ),
                21,
                "bad 'trial' event: trial 11 verified the order of 205920",
                id="trial-after-a-verified-one",
            ),
            pytest.param(
                with_fields(18, order=1038),
                18,
                "order 1038 is not 519, as extract_factors(200298, 519, 1328881) gives",
                id="order-not-the-last-candidate",
            ),
            pytest.param(
                with_fields(15, status="success"),
                15,
                "status 'success' is not 'trivial_factors', "
                "as extract_factors(505980, 1038, 1328881) gives",
                id="status-not-the-split",
            ),
            pytest.param(
                with_fields(15, factors=[1, 1328881]),
                15,
                "factors [1, 1328881] is not [1328881, 1], "
                "as extract_factors(505980, 1038, 1328881) gives",
                id="factors-not-the-split",
            ),
            pytest.param(
                # readout 0 gives candidate 1, which does not verify, so the
                # base ends unverified and its verdict cannot be a success
                with_fields(20, readout=0, candidate=1, verified=False),
                21,
                "status 'success' is not 'trial_budget_exhausted', as trial 11 is unverified",
                id="verdict-after-an-unverified-trial",
            ),
            pytest.param(
                lambda lines: lines[:16] + lines[17:],
                17,
                "bad 'attempt_verdict' event: no trial of 200298 before it",
                id="verdict-without-trials",
            ),
            pytest.param(
                lambda lines: with_fields(
                    3, total_trials=0, factors=None, failure="trial_budget_exhausted"
                )(lines[:2] + lines[-1:]),
                3,
                "bad 'summary' event: no AttemptRecord ended the session: there are no attempts",
                id="no-attempt",
            ),
            pytest.param(
                lambda lines: with_fields(
                    23, factors=None, failure="trial_budget_exhausted"
                )(lines[:21] + [REJECTION] + lines[21:]),
                23,
                "bad 'summary' event: no AttemptRecord ended the session: "
                "the stream ends on the rejection of 7",
                id="rejection-last",
            ),
        ],
    )
    def test_stream_the_writers_cannot_reproduce_is_refused(self, edit, line, cause):
        lines = edit(to_jsonl(session_history()).splitlines())
        with pytest.raises(TranscriptError) as info:
            from_jsonl("\n".join(lines))
        assert info.value.line == line
        assert cause in str(info.value)

    def test_edited_trial_is_refused_on_its_line(self):
        # the second trial of a two-trial budget, edited as a whole, with a
        # summary that agrees with the edited index
        lines = to_jsonl(factor(187, 16, seed=7, max_trials=2)).splitlines()
        number = [i for i, line in enumerate(lines, 1) if '"trial"' in line][1]
        lines = with_fields(number, index="x", readout=-5, verified="yes")(lines)
        lines = with_fields(len(lines), total_trials="x")(lines)
        with pytest.raises(TranscriptError, match="index 'x' is not 2, its position") as info:
            from_jsonl("\n".join(lines))
        assert info.value.line == number

    @pytest.mark.parametrize(
        "seed,fields,cause",
        [
            (0, dict(total_trials=99, factors=None), "total_trials 99 is not 0"),
            (0, dict(total_trials=False), "total_trials False is not 0"),
            (9, dict(total_trials=10.0), "total_trials 10.0 is not 10"),
            (9, dict(n=187.0), "n 187.0 is not 187"),
            # n is checked first, then total_trials, then factors
            (9, dict(n=188, total_trials=11, factors=None), "n 188 is not 187"),
            (9, dict(factors=[11.0, 17]), "factors [11.0, 17] is not [11, 17]"),
        ],
    )
    def test_summary_that_disagrees_with_its_attempts_is_refused(self, seed, fields, cause):
        # seed 0 draws a base sharing a factor with 187 and runs no trial;
        # seed 9 runs ten trials to factor 187 as (11, 17). Equal values of
        # another JSON type disagree too.
        lines = stream_187(seed)
        lines = with_fields(len(lines), **fields)(lines)
        with pytest.raises(TranscriptError) as info:
            from_jsonl("\n".join(lines))
        assert info.value.line == len(lines)
        assert f"bad 'summary' event: {cause}, as the attempts give" in str(info.value)

    @pytest.mark.parametrize(
        "stream,line,cause",
        [
            pytest.param(
                # seed 7 spends its budget of two trials on one base
                lambda: with_fields(1, max_trials=100)(stream_187(7, max_trials=2)),
                7,
                "the session stops without factors after 2 of 100 trials",
                id="budget-exhausted-early",
            ),
            pytest.param(
                lambda: renumbered(session_stream(), 4),
                4,
                "bad 'trial' event: index 5 is not 1, its position in the session",
                id="first-trial-not-1",
            ),
            pytest.param(
                # trial 5 fails, so its base spends the budget of five trials
                lambda: with_fields(9, status="trial_budget_exhausted", order=MISSING)(
                    with_fields(8, readout=0, candidate=1, verified=False)(
                        with_fields(1, max_trials=5)(session_stream())
                    )
                ),
                22,
                "base 505980 comes after the session ended at trial 5",
                id="base-after-budget-exhausted",
            ),
            pytest.param(
                success_then_base,
                25,
                "base 205920 comes after the session ended at trial 11",
                id="base-after-success",
            ),
            pytest.param(
                # seed 9 runs ten trials on one base
                lambda: with_fields(1, max_trials=3)(stream_187(9)),
                15,
                "the attempts run 10 trials, past max_trials 3",
                id="trials-past-max-trials",
            ),
            pytest.param(
                # seed 9 at max_trials 1 runs one unverified trial of y = 120;
                # pick_y ends a session on 11, which shares 11 with 187
                lambda: with_fields(3, y=11)(stream_187(9, max_trials=1)),
                5,
                "bad 'attempt_verdict' event: "
                "y 11 shares a factor with 187, gcd 11, so no trial runs on it",
                id="trials-on-a-base-sharing-a-factor",
            ),
            pytest.param(
                lambda: session_stream()[:18] + [shared_factor(1039)] + session_stream()[18:],
                23,
                "base 205920 comes after the session ended at trial 10",
                id="base-after-shared-factor",
            ),
            pytest.param(
                # the session cut after the odd order of trial 10
                lambda: with_fields(
                    19, total_trials=10, factors=None, failure="trial_budget_exhausted"
                )(session_stream()[:18] + session_stream()[-1:]),
                19,
                "the session stops without factors after 10 of 100 trials",
                id="failure-short-of-max-trials",
            ),
        ],
    )
    def test_attempts_no_session_runs_are_refused(self, stream, line, cause):
        # every line before the refused one passes its own checks, and a
        # refused summary agrees with the trials and the last attempt
        with pytest.raises(TranscriptError) as info:
            from_jsonl("\n".join(stream()))
        assert info.value.line == line
        assert cause in str(info.value)

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, "1" * 5000, '{"event": "banner", "n": ' + "9" * 5000 + "}"]
    )
    def test_json_the_decoder_cannot_hold_is_refused(self, text):
        # nesting past the decoder's recursion limit and integer literals
        # past CPython's digit limit raise other errors than JSONDecodeError
        with pytest.raises(TranscriptError, match="not JSON") as info:
            from_jsonl(text)
        assert info.value.line == 1

    @pytest.mark.parametrize("frames", [0, 1, 2, 3, 50])
    def test_deep_nesting_is_refused_alike_from_any_stack_depth(self, frames):
        # the recursion error names the container being decoded when the
        # limit hits, which moves with the caller's stack; the refusal does not
        def call(depth):
            return from_jsonl('[{"b": ' * 50_000) if depth == 0 else call(depth - 1)

        with pytest.raises(TranscriptError) as info:
            call(frames)
        assert str(info.value) == "line 1: not JSON (nested too deeply)"

    @pytest.mark.parametrize(
        "spell,cause",
        [
            pytest.param(
                lambda line: "\ufeff" + line,
                "Unexpected UTF-8 BOM (decode using utf-8-sig)",
                id="byte-order-mark",
            ),
            pytest.param(lambda line: line + " x", "Extra data", id="trailing-word"),
            pytest.param(lambda line: line + "{}", "Extra data", id="trailing-object"),
        ],
    )
    # the banner, a ceiling_rejection, a trial and the summary of
    # session_history()'s stream with a rejection put before its first base
    @pytest.mark.parametrize("number", [1, 3, 5, 23])
    def test_not_json_names_the_cause_json_gives(self, spell, cause, number):
        head, tail = frame()
        lines = head + [REJECTION] + tail
        lines[number - 1] = spell(lines[number - 1])
        with pytest.raises(ValueError) as decoded:
            json.loads(lines[number - 1])
        assert decoded.value.msg == cause
        with pytest.raises(TranscriptError) as info:
            from_jsonl("\n".join(lines))
        assert str(info.value) == f"line {number}: not JSON ({cause})"
        assert info.value.line == number

    @pytest.mark.parametrize(
        "field,events",
        [("candidate", 18), ("verified", 18), ("order", 5), ("factors", 1), ("total_trials", 4)],
    )
    def test_respelled_stream_with_a_field_edited_is_refused_on_its_line(self, field, events):
        # every event carrying the field (18 trials, 5 verdicts, 1 shared
        # factor, 4 summaries), in each of every_event_histories() re-spelled,
        # edited one at a time: the cause is the one a canonical stream gets,
        # on the edited line
        edited = 0
        for history in every_event_histories():
            n = history.params.n
            lines = [respelled(line) for line in to_jsonl(history).splitlines()]
            y = position = None  # the open base, and the last trial's index
            for number, line in enumerate(lines, 1):
                event = json.loads(line)
                kind = event["event"]
                y = event.get("y", y)
                position = event.get("index", position)
                if kind == "trial" and field == "candidate":
                    c = event["candidate"]
                    event["candidate"] = c + 1
                    cause = (
                        f"candidate {c + 1} is not {c}, "
                        f"the denominator of the convergent of readout {event['readout']}"
                    )
                elif kind == "trial" and field == "verified":
                    v = event["verified"]
                    event["verified"] = not v
                    c = event["candidate"]
                    cause = f"verified {not v} is not {v}, as pow({y}, {c}, {n}) == 1 is"
                elif kind == "attempt_verdict" and field == "order":
                    order = event.get("order")
                    event["order"] = (order or 0) + 1
                    if order is None:
                        reason = f"as trial {position} is unverified"
                    else:
                        reason = f"as extract_factors({y}, {order}, {n}) gives"
                    cause = f"order {event['order']} is not {order}, {reason}"
                elif kind == "shared_factor" and field == "factors":
                    f1, f2 = event["factors"]
                    event["factors"] = [f2, f1]
                    reason = f"as gcd({y}, {n}) = {f1} gives"
                    cause = f"factors [{f2}, {f1}] is not [{f1}, {f2}], {reason}"
                elif kind == "summary" and field == "total_trials":
                    t = event["total_trials"]
                    event["total_trials"] = t + 1
                    cause = f"total_trials {t + 1} is not {t}, as the attempts give"
                else:
                    continue
                line = json.dumps(event, separators=(",", ":"))
                text = "\n".join(lines[: number - 1] + [line] + lines[number:])
                with pytest.raises(TranscriptError) as info:
                    from_jsonl(text)
                assert str(info.value) == f"line {number}: bad {kind!r} event: {cause}"
                assert info.value.line == number
                edited += 1
        assert edited == events

    @pytest.mark.xfail(
        strict=True,
        raises=pytest.fail.Exception,  # "DID NOT RAISE", and no other failure
        reason="the reader does not test a rejection's order",
    )
    def test_rejection_of_a_base_within_the_ceiling_is_refused(self):
        # 140 has order 639 mod 1328881, within the ceiling of 1152, so no
        # session rejects it; the stream with it as the first rejection's y
        # parses until the reader tests each rejection's order
        assert brute_order(140, 1328881) == 639
        lines = to_jsonl(factor(1328881, 41, seed=0)).splitlines()
        assert lines[2] == '{"ceiling": 1152, "event": "ceiling_rejection", "y": 882004}'
        lines[2] = '{"ceiling": 1152, "event": "ceiling_rejection", "y": 140}'
        with pytest.raises(TranscriptError) as info:
            from_jsonl("\n".join(lines))
        assert info.value.line == 3


EVENT_KINDS = [
    "banner",
    "safe_qubits_hint",
    "ceiling_rejection",
    "shared_factor",
    "new_base",
    "trial",
    "attempt_verdict",
    "summary",
]
FIELDS = [
    "schema", "n", "qubits", "max_trials", "order_ceiling", "seed", "ceiling",
    "y", "factors", "index", "readout", "candidate", "verified", "status",
    "order", "elapsed", "total_trials", "failure", "warnings",
]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
event_objects = st.builds(
    lambda kind, fields: {"event": kind, **fields},
    st.sampled_from(EVENT_KINDS) | json_values,
    st.dictionaries(st.sampled_from(FIELDS), json_values, max_size=6),
)


@functools.lru_cache(maxsize=None)
def valid_streams() -> tuple[tuple[str, ...], ...]:
    """Real sessions, as lines, with ceiling rejections, trials and every
    verdict kind: a success at N = 1328881 after 301 rejections, then at
    N = 187, L = 16 a shared factor and, on a budget of two trials, an odd
    order, a trivial split and the budget running out."""
    histories = [factor(1328881, 41, seed=3), factor(187, 16, seed=13)]
    histories += [factor(187, 16, seed=seed, max_trials=2) for seed in (212, 71, 7)]
    return tuple(tuple(to_jsonl(history).splitlines()) for history in histories)


def parses_or_refuses(text: str) -> None:
    try:
        history = from_jsonl(text)
    except TranscriptError:
        return
    assert isinstance(history, FactoringHistory)
    render_text(history)
    assert read_back(history) == history


class TestJsonlFuzz:
    """from_jsonl returns a history that both writers can write, or raises
    TranscriptError, nothing else."""

    def test_valid_streams_hold_every_outcome(self):
        events = [json.loads(line) for lines in valid_streams() for line in lines]
        assert {event["event"] for event in events} == set(EVENT_KINDS)
        statuses = {event.get("status") for event in events} - {None}
        assert statuses == {"success", "order_odd", "trivial_factors", "trial_budget_exhausted"}

    @given(st.text())
    @settings(max_examples=300)
    def test_arbitrary_text(self, text):
        parses_or_refuses(text)

    @given(st.lists(event_objects | json_values, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_json_lines(self, objects):
        parses_or_refuses("\n".join(json.dumps(o) for o in objects))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_valid_stream_with_one_line_dropped_cut_or_edited(self, data):
        lines = list(data.draw(st.sampled_from(valid_streams())))
        i = data.draw(st.integers(0, len(lines) - 1))
        edit = data.draw(st.sampled_from(["drop", "cut", "set", "delete"]))
        if edit == "drop":
            del lines[i]
        elif edit == "cut":
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i]) - 1))]
        else:
            obj = json.loads(lines[i])
            key = data.draw(st.sampled_from(sorted(obj)) | st.sampled_from(FIELDS))
            if edit == "set":
                obj[key] = data.draw(json_values | st.sampled_from([o.value for o in Outcome]))
            else:
                obj.pop(key, None)
            lines[i] = json.dumps(obj)
        parses_or_refuses("\n".join(lines))


# integer spellings around what to_jsonl writes and json.loads reads
numbers = st.one_of(
    st.integers(-(10**21), 10**21).map(str),
    st.sampled_from(
        ["0", "-0", str(2**63), "9" * 19, "1" + "0" * 19, "9" * 20, "1" * 4301]
    ),
    st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(1, 2), st.integers(0, 999)),
    st.integers(0, 999).map(lambda n: f"+{n}"),
    st.integers(1000, 10**9).map(lambda n: f"{n:_}"),
    st.text(alphabet="0123456789\u0663\u0665\u096a\uff11\uff19", min_size=1, max_size=5),
)


def written(ceiling: str, y: str) -> str:
    """A rejection line in the layout to_jsonl writes."""
    return f'{{"ceiling": {ceiling}, "event": "ceiling_rejection", "y": {y}}}'


@st.composite
def rejection_lines(draw) -> str:
    """ceiling_rejection lines in and around the layout to_jsonl writes."""
    # the session's ceiling and bases in [2, n) often enough that lines
    # which pass the reader's checks are drawn too
    ceiling = draw(st.one_of(st.just("1152"), numbers))
    y = draw(st.one_of(st.integers(2, 1328880).map(str), numbers))
    if draw(st.booleans()):
        return written(ceiling, y)
    items = [("ceiling", ceiling), ("event", '"ceiling_rejection"'), ("y", y)]
    if draw(st.booleans()):
        items = draw(st.permutations(items))
    comma = draw(st.sampled_from([", ", ",", ",  ", " ,"]))
    colon = draw(st.sampled_from([": ", ":", " : ", ":  "]))
    pad = draw(st.sampled_from(["", " "]))
    tail = draw(st.sampled_from(["", "}", "x", " ,"]))
    return "{" + pad + comma.join(f'"{k}"{colon}{v}' for k, v in items) + pad + "}" + tail


# rejection lines of session_history()'s stream, ceiling 1152, in and
# around the layout to_jsonl writes: other digits, leading zeros, signs,
# underscores, too many digits, a y out of [2, n) or that is no int, another
# ceiling or one of another type, other spacing, a second y, a byte-order
# mark, no closing brace, and trailing text or a second rejection
REJECTION_EXAMPLES = [
    written("1152", "1\u0663"),
    written("1\uff11", "7"),
    written("1152", "007"),
    written("1152", "+5"),
    written("1152", "-5"),
    written("1152", "1_000"),
    written("1152", "1" * 4301),
    written("1152", "9" * 19),
    written("1152", "9" * 20),
    written("1152", "7") + "}",
    written("1152", "7").replace(": ", ":  ", 1),
    written("1152", "17").replace('"y": ', '"y":'),
    written("1152", " 7"),
    written("1152", "7 "),
    written("1152", '7, "y": 8'),
    written("1152", "99999999999999"),
    written("1152", "0"),
    written("1152", "1"),
    written("1152", "2"),
    written("1152", "1328880"),
    written("1152", "1328881"),
    written("1152", str(2**70)),
    written("5", "7"),
    written("1153", "7"),
    written("01152", "7"),
    written("1152.0", "7"),
    written("true", "7"),
    written("1152", "true"),
    written("1152", "2.0"),
    "\ufeff" + written("1152", "7"),
    written("1152", "7")[:-1],
    written("1152", "7")[:-1] + "]",
    written("1152", "7") + " x",
    written("1152", "7") + "{}",
    written("1152", "7") + written("1152", "8"),
]


def with_examples(*lines: str):
    """A hypothesis example of each line."""

    def decorate(test):
        for line in lines:
            test = example(line)(test)
        return test

    return decorate


def rejected_first(history: FactoringHistory, y: int) -> FactoringHistory:
    """history with y rejected before every other base of its first pick."""
    first, *rest = history.attempts
    first = dataclasses.replace(first, n=history.params.n, rejected=(y, *first.rejected))
    return dataclasses.replace(history, attempts=(first, *rest))


@functools.lru_cache(maxsize=None)
def frame() -> tuple[list[str], list[str]]:
    """The lines of session_history()'s stream before its first attempt, and
    those from it on: a line put between them is followed by real attempts."""
    lines = to_jsonl(session_history()).splitlines()
    return lines[:2], lines[2:]


class TestFastPathsAgreeWithJson:
    """The rejection template and its parse give what json gives: a line
    whose y is an int in [2, n) and whose ceiling is the int 1152 parses,
    any other is refused on its line."""

    @with_examples(*REJECTION_EXAMPLES)
    @given(rejection_lines())
    @settings(max_examples=400, deadline=None)
    def test_reader(self, line):
        head, tail = frame()
        text = "\n".join(head + [line] + tail)
        try:
            data = json.loads(line)
        except ValueError as exc:
            # the reader names the cause json names
            with pytest.raises(TranscriptError) as info:
                from_jsonl(text)
            assert str(info.value) == f"line 3: not JSON ({getattr(exc, 'msg', exc)})"
            assert info.value.line == 3
            return
        y, ceiling = data["y"], data["ceiling"]
        if type(y) is int and 2 <= y < 1328881 and type(ceiling) is int and ceiling == 1152:
            history = from_jsonl(text)
            assert history == rejected_first(session_history(), y)
            assert type(history.attempts[0].rejected[0]) is int
            return
        with pytest.raises(TranscriptError, match="bad 'ceiling_rejection' event") as info:
            from_jsonl(text)
        assert info.value.line == 3

    @pytest.mark.parametrize("y", [2, 7, 1328880])
    def test_writer(self, y):
        base = session_history()
        history = rejected_first(base, y)
        text = to_jsonl(history)
        event = {"event": "ceiling_rejection", "y": y, "ceiling": 1152}
        lines = to_jsonl(base).splitlines()
        lines.insert(2, json.dumps(event, sort_keys=True))
        assert text == "\n".join(lines)
        assert render_text(history)[2] == (
            f"The order of y = {y} exceeds the ceiling of 1152, "
            "hence a new value of y will be chosen."
        )
        assert from_jsonl(text) == history


# lines that json.loads refuses, drawn most often in the ways the reader's
# scanner refuses without naming json's cause: a leading byte-order mark,
# data after a value, an int past CPython's limit of 4300 digits, and
# nesting far past the recursion limit, of arrays and objects mixed
refused_lines = st.one_of(
    st.text(),
    json_values.map(lambda value: "\ufeff" + json.dumps(value)),
    st.builds(lambda value, tail: json.dumps(value) + tail, json_values, st.text(min_size=1)),
    st.builds(
        lambda layout, digits: layout.format("9" * digits),
        st.sampled_from(["{}", "-{}", '{{"n": {}}}', "[1, {}]"]),
        st.integers(4301, 5000),
    ),
    st.builds(
        lambda openers, depth: "".join(openers) * depth,
        st.lists(st.sampled_from(["[", '{"a": ']), min_size=1, max_size=5),
        st.integers(20_000, 50_000),
    ),
)


class TestRefusesWhatJsonRefuses:
    @with_examples(
        "\ufeff{}", '{"event": "banner"} x', "{}{}", "9" * 4301, "[" * 100_000,
        '[{"a": ' * 50_000,
    )
    @given(refused_lines)
    @settings(max_examples=300, deadline=None)
    def test_line_json_refuses_is_refused_with_its_cause(self, line):
        # the line is stripped and holds no line break, as the reader takes it
        line = line.strip()
        assume(line and line.splitlines() == [line])
        try:
            json.loads(line)
        except RecursionError:
            # whose text names the container it stops in, which with mixed
            # nesting depends on how deep the stack is where it stops
            cause = "nested too deeply"
        except ValueError as exc:
            cause = getattr(exc, "msg", exc)
        else:
            reject()
        head, tail = frame()
        with pytest.raises(TranscriptError) as info:
            from_jsonl("\n".join(head + [line] + tail))
        assert str(info.value) == f"line 3: not JSON ({cause})"
        assert info.value.line == 3


def long_run() -> tuple[FactoringHistory, list[str], list[int]]:
    """valid_streams()'s N = 1328881 session, its lines, and the indices of
    its one run of 301 ceiling_rejection lines."""
    lines = list(valid_streams()[0])
    run = [i for i, line in enumerate(lines) if '"ceiling_rejection"' in line]
    assert len(run) == 301 and run == list(range(run[0], run[-1] + 1))
    return from_jsonl("\n".join(lines)), lines, run


@functools.cache
def ten_digit_stream() -> tuple[FactoringHistory, list[str]]:
    """The ten-digit session of seed 3, with its 42,523 ceiling rejections,
    and its lines."""
    history = line_kind_sessions()[9954647173]
    return history, to_jsonl(history).splitlines()


def ten_digit_run() -> tuple[FactoringHistory, list[str], list[int]]:
    """ten_digit_stream()'s history, a copy of its lines, and the indices of
    its one run of 42,523 ceiling_rejection lines."""
    history, lines = ten_digit_stream()
    run = [i for i, line in enumerate(lines) if '"ceiling_rejection"' in line]
    assert len(run) == 42523 and run == list(range(run[0], run[-1] + 1))
    return history, list(lines), run


@pytest.fixture
def decoded(monkeypatch) -> list[str]:
    """Each line from_jsonl hands to its JSON decoder, in order."""
    lines: list[str] = []
    decode = transcript._decode

    def counting(line: str, index: int):
        lines.append(line)
        return decode(line, index)

    monkeypatch.setattr(transcript, "_decode", counting)
    return lines


def read(text: str) -> FactoringHistory | tuple[int, str]:
    """What from_jsonl gives for a text: its history, or its refusal's line
    and message."""
    try:
        return from_jsonl(text)
    except TranscriptError as exc:
        return exc.line, str(exc)


class TestRunPath:
    """A run of ceiling_rejection lines with a line planted or broken in it
    reads, or is refused, as the general path reads or refuses it one line
    at a time with the whole-stream check off."""

    @pytest.mark.parametrize("line", REJECTION_EXAMPLES)
    @pytest.mark.parametrize("where", [0, 150, 300])
    def test_planted_line_reads_as_on_the_general_path(self, line, where, monkeypatch):
        # planted at the first, a middle and the last line of the run: the
        # same as with every other line re-spelled, and as with the
        # whole-stream check off
        _, lines, run = long_run()
        number = run[where] + 1
        planted = lines[: number - 1] + [line] + lines[number:]
        respelled_around = [respelled(other) for other in lines]
        respelled_around[number - 1] = line
        got = read("\n".join(planted))
        assert got == read("\n".join(respelled_around))
        if type(got) is tuple:
            assert got[0] == number
        # and as with a space after every line
        assert read("\n".join(f"{row} " for row in planted)) == got
        monkeypatch.setattr(transcript, "_written_back", lambda text: None)
        assert read("\n".join(planted)) == got

    @pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
    def test_planted_line_in_the_ten_digit_run_is_refused_on_its_line(self, end, decoded):
        # a y written 07 on the first or the last line of the ten-digit
        # stream's run: refused as not JSON on that line. Each line up to
        # the refused one is decoded once, so a reader that scanned the run
        # again from each of its lines, in time quadratic in the run, fails
        # here
        _, lines, run = ten_digit_run()
        number = run[end] + 1
        lines[number - 1] = lines[number - 1].rsplit(" ", 1)[0] + " 07}"
        assert read("\n".join(lines)) == (
            number, f"line {number}: not JSON (Expecting ',' delimiter)"
        )
        assert decoded == lines[:number]

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda line: ["", line], id="blank-line"),
            pytest.param(lambda line: [f"  {line}\t"], id="padded"),
            pytest.param(lambda line: [respelled(line)], id="respelled"),
        ],
    )
    def test_broken_run_reads_to_the_canonical_history(self, edit):
        history, lines, run = long_run()
        middle = run[150]
        lines[middle : middle + 1] = edit(lines[middle])
        assert from_jsonl("\n".join(lines)) == history

    def test_rejection_while_a_base_is_open_is_refused_on_its_line(self):
        # session_history()'s first new_base, on line 3, followed by a run
        lines = session_stream()
        assert json.loads(lines[2])["event"] == "new_base"
        lines[3:3] = [REJECTION] * 3
        with pytest.raises(TranscriptError) as info:
            from_jsonl("\n".join(lines))
        assert str(info.value) == (
            "line 4: bad 'ceiling_rejection' event: the last new_base has no attempt_verdict"
        )

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\x85", "\u2028"])
    @pytest.mark.parametrize("stream", [long_run, ten_digit_run], ids=["1328881", "ten-digit"])
    def test_line_breaks_of_splitlines_read_the_same(self, newline, stream):
        # the same history, and the same refusal of a y written 07 in the
        # middle of the run, as with "\n"
        history, lines, run = stream()
        assert from_jsonl(newline.join(lines) + newline) == history
        number = run[len(run) // 2] + 1
        lines[number - 1] = lines[number - 1].rsplit(" ", 1)[0] + " 07}"
        got = read(newline.join(lines))
        assert got == read("\n".join(lines)) == (
            number, f"line {number}: not JSON (Expecting ',' delimiter)"
        )

    @pytest.mark.parametrize("pad", ["", " "], ids=["run", "line-by-line"])
    def test_stream_cut_after_its_last_rejection_is_refused_on_the_summary(self, pad):
        # no session ends on a rejection, so rejections that no record
        # takes are refused on the summary line, with or without a space
        # after every line
        _, lines = ten_digit_stream()
        last = max(i for i, line in enumerate(lines) if '"ceiling_rejection"' in line)
        assert last < len(lines) - 2
        cut = lines[: last + 1] + lines[-1:]
        with pytest.raises(TranscriptError) as info:
            from_jsonl("".join(f"{line}{pad}\n" for line in cut))
        assert info.value.line == len(cut)
        assert str(info.value) == (
            f"line {len(cut)}: bad 'summary' event: no AttemptRecord ended the session: "
            f"the stream ends on the rejection of {json.loads(lines[last])['y']}"
        )

    def test_stream_that_ends_in_a_run_is_refused_past_it(self):
        _, lines, run = long_run()
        lines = lines[: run[-1] + 1]
        with pytest.raises(TranscriptError, match="no summary event") as info:
            from_jsonl("\n".join(lines) + "\n\n")
        assert info.value.line == len(lines) + 1


class TestDecodesEachLineOnce:
    """from_jsonl decodes no line of a stream that to_jsonl wrote, alone or
    followed by whitespace only, and each non-blank line of any other text
    at most once, so the reader stays linear."""

    @pytest.mark.parametrize(
        "end", ["", "\n", "\n\n", "\r\n", " \t\n\x0c\u2028"],
        ids=["as-written", "final-newline", "blank-line", "crlf", "whitespace"],
    )
    def test_written_stream(self, end, decoded):
        # the whole-stream check reads it, the banner included, without a
        # decode: every event and verdict, and the ten-digit stream
        for history in [*every_event_histories(), ten_digit_stream()[0]]:
            assert from_jsonl(to_jsonl(history) + end) == history
        assert decoded == []

    def test_canonical_stream(self, decoded):
        # 301 rejections, then trials; blank lines in between are skipped,
        # and each other line is decoded once
        history = factor(1328881, 41, seed=3)
        lines = to_jsonl(history).splitlines()
        assert from_jsonl("\n \n".join(lines) + "\n\n") == history
        assert len([line for line in lines if '"ceiling_rejection"' in line]) == 301
        assert decoded == lines

    def test_unbroken_run(self, decoded):
        # 301 rejections on consecutive lines, no line decoded
        history, lines, run = long_run()
        decoded.clear()
        assert from_jsonl("\n".join(lines)) == history
        assert decoded == []

    def test_padded_line_breaks_the_run(self, decoded):
        # a padded line makes the stream one that to_jsonl did not write:
        # every line, the rest of the run included, is decoded once, stripped
        history, lines, run = long_run()
        lines[run[150]] = f" {lines[run[150]]}"
        decoded.clear()
        assert from_jsonl("\n".join(lines)) == history
        assert decoded == [line.strip() for line in lines]

    def test_failed_run_is_read_line_by_line(self, decoded):
        # a rejection with a space before its "}": the stream is decoded
        # line by line, once
        history, lines, run = long_run()
        lines[run[150]] = lines[run[150]][:-1] + " }"
        decoded.clear()
        assert from_jsonl("\n".join(lines)) == history
        assert decoded == lines

    @pytest.mark.parametrize("pad", [" ", "\t", " \t "])
    def test_lines_that_end_in_whitespace(self, pad, decoded):
        # whitespace after every line of the ten-digit stream: it reads to
        # the same history, and every line is decoded once, stripped
        history, lines = ten_digit_stream()
        decoded.clear()
        assert from_jsonl("\n".join(f"{line}{pad}" for line in lines)) == history
        assert decoded == lines

    def test_respelled_stream(self, decoded):
        # every line of another layout, rejections included, is decoded once
        for history in every_event_histories():
            decoded.clear()
            lines = [respelled(line) for line in to_jsonl(history).splitlines()]
            assert from_jsonl("\n".join(lines)) == history
            assert decoded == lines

    def test_refused_line(self, decoded):
        lines = to_jsonl(session_history()).splitlines()
        lines[3] += " x"
        with pytest.raises(TranscriptError, match="line 4: not JSON \\(Extra data\\)"):
            from_jsonl("\n".join(lines))
        assert decoded == lines[:4]


def read_alike(text: str) -> FactoringHistory | tuple[int, str]:
    """What from_jsonl gives for a text, checked to be what it gives with
    the whole-stream check off, on the general path alone."""
    got = read(text)
    with mock.patch.object(transcript, "_written_back", lambda text: None):
        assert read(text) == got
    return got


def spellings(value: str) -> list[str]:
    """Other spellings of a field's value: the same number as int or float
    reads it (a sign, a space, an underscore, Arabic-Indic digits, a
    fraction), which json refuses or reads as another type, and other
    values, null and a 5000-digit int among them."""
    arabic = value.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                                         "\u0665\u0666\u0667\u0668\u0669"))
    return [
        f"+{value}", f" {value}", f"{value[0]}_{value[1:]}", arabic, f"{value}.0",
        "1_0.5", "nan", "inf", "1e400", "null", "2", "9" * 5000,
    ]


def with_value(line: str, key: str, spelling: str) -> str:
    """line with the value of its field key, up to the next "," or "}",
    spelled otherwise."""
    return re.sub(f'"{key}": [^,}}]*', lambda _: f'"{key}": {spelling}', line, count=1)


FREE_FIELDS = [
    *(("banner", key) for key in ("max_trials", "n", "order_ceiling", "qubits", "schema", "seed")),
    ("ceiling_rejection", "y"), ("new_base", "y"), ("trial", "readout"), ("shared_factor", "y"),
    ("summary", "elapsed"),
]


@st.composite
def tampered_streams(draw) -> str:
    """A seeded stream with one line edited, put in or swapped for another,
    joined and ended by line breaks to_jsonl does or does not write."""
    lines = list(draw(st.sampled_from(valid_streams())))
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["value", "rejection", "respelled", "refused", "nested", "none"]))
    if edit == "value":
        keys = re.findall(r'"(\w+)": [^,}]', lines[i])
        key = draw(st.sampled_from(keys))
        value = re.search(f'"{key}": ([^,}}]*)', lines[i]).group(1)
        lines[i] = with_value(lines[i], key, draw(st.sampled_from(spellings(value))))
    elif edit == "rejection":  # in the N = 1328881 stream, of ceiling 1152
        lines = list(valid_streams()[0])
        i = draw(st.integers(2, len(lines) - 2))
        lines[i : i + draw(st.integers(0, 1))] = [draw(st.sampled_from(REJECTION_EXAMPLES))]
    elif edit == "respelled":
        lines[i] = respelled(lines[i])
    elif edit == "refused":
        lines[i] = draw(refused_lines)
    elif edit == "nested":
        lines[0] = draw(st.sampled_from(["[", '{"a": ', '[{"event": '])) * 50_000
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]))


class TestWrittenBackAgreesWithTheGeneralPath:
    """from_jsonl gives the same history, or the same refusal on the same
    line, with the whole-stream check on as with it off: the check reads
    only what to_jsonl wrote, and leaves any other text to the general
    path."""

    @pytest.mark.parametrize("kind, key", FREE_FIELDS, ids=[f"{k}-{f}" for k, f in FREE_FIELDS])
    def test_free_field_spelled_otherwise(self, kind, key):
        # every free field of the first stream of every_event_histories()
        # that writes its event, in each spelling
        lines = next(
            lines for lines in map(str.splitlines, map(to_jsonl, every_event_histories()))
            if any(f'"event": "{kind}"' in line for line in lines)
        )
        i = next(i for i, line in enumerate(lines) if f'"event": "{kind}"' in line)
        value = re.search(f'"{key}": ([^,}}]*)', lines[i]).group(1)
        for spelling in spellings(value):
            planted = lines[:i] + [with_value(lines[i], key, spelling)] + lines[i + 1 :]
            read_alike("\n".join(planted))
        # a sign, which int reads and json refuses, is refused on its line
        planted = lines[:i] + [with_value(lines[i], key, f"+{value}")] + lines[i + 1 :]
        assert read_alike("\n".join(planted))[0] == i + 1

    @pytest.mark.parametrize("end", ["\n\n", "\r\n", " ", "\n ", " \t\n\x0c\u2028"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_breaks(self, newline, end):
        # read to the history to_jsonl wrote: by the check, when only the
        # end differs, and else by the general path
        for history in every_event_histories():
            text = newline.join(to_jsonl(history).splitlines()) + end
            assert read_alike(text) == history

    @pytest.mark.parametrize("end", ["\nx", " x", "\n\n{}", "\n\u00a0."])
    def test_text_after_the_summary(self, end):
        # refused on its line, as the general path refuses it
        for history in every_event_histories():
            text = to_jsonl(history) + end
            got = read_alike(text)
            assert type(got) is tuple
            assert got[0] == len(text.splitlines())

    @pytest.mark.parametrize(
        "first",
        ["[" * 50_000, '[{"a": ' * 50_000, '{"event": "banner", "n": ' + "[" * 50_000],
        ids=["arrays", "mixed", "in-banner"],
    )
    def test_deeply_nested_first_line(self, first):
        lines = to_jsonl(session_history()).splitlines()
        assert read_alike("\n".join([first, *lines[1:]])) == (
            1, "line 1: not JSON (nested too deeply)"
        )

    @given(tampered_streams())
    @settings(max_examples=300, deadline=None)
    def test_tampered_stream(self, text):
        read_alike(text)

    @pytest.fixture
    def built(self, monkeypatch) -> list[tuple[int, int]]:
        """The (readout, y) of each trial the reader asks _trial for."""
        asked: list[tuple[int, int]] = []
        memo = transcript._trial

        def spy(readout, y, q, n):
            asked.append((readout, y))
            return memo(readout, y, q, n)

        monkeypatch.setattr(transcript, "_trial", spy)
        return asked

    @pytest.mark.parametrize("y", ["187", "1", "-5", "9" * 4000])
    def test_no_trial_is_built_for_a_base_out_of_range(self, y, built):
        # a new_base y outside [2, n) is refused before any trial of it is
        # built, by the check as by the general path, so the process-wide
        # memo holds no entry for it
        lines = to_jsonl(factor(187, seed=9)).splitlines()
        i = next(i for i, line in enumerate(lines) if '"new_base"' in line)
        lines[i] = with_value(lines[i], "y", y)
        assert read_alike("\n".join(lines)) == (i + 1, f"line {i + 1}: bad 'new_base' "
                                                 f"event: y {int(y)} is not an int in [2, 187)")
        assert built == []

    def test_no_trial_is_built_for_a_readout_out_of_range(self, built):
        lines = to_jsonl(factor(187, seed=9)).splitlines()
        i = next(i for i, line in enumerate(lines) if '"trial"' in line)
        lines[i] = with_value(lines[i], "readout", str(2**16))
        got = read_alike("\n".join(lines))
        assert got[0] == i + 1
        assert all(0 <= readout < 2**16 for readout, _ in built)

    def test_check_builds_no_trial_past_max_trials(self, built):
        # factor(187, seed=9) runs ten trials; under a banner of max_trials
        # 2 the check gives up before it builds any, and the general path
        # refuses the stream
        history = factor(187, seed=9)
        text = to_jsonl(history).replace('"max_trials": 100', '"max_trials": 2', 1)
        assert transcript._written_back(text) is None
        assert built == []
        assert type(read_alike(text)) is tuple

    @pytest.mark.parametrize("key", ["max_trials", "qubits", "seed", "n"])
    def test_check_builds_no_trial_under_a_banner_written_otherwise(self, key, built):
        lines = to_jsonl(factor(187, seed=9)).splitlines()
        value = re.search(f'"{key}": ([^,}}]*)', lines[0]).group(1)
        lines[0] = with_value(lines[0], key, f"+{value}")
        assert transcript._written_back("\n".join(lines)) is None
        assert built == []
        hint = to_jsonl(factor(187, seed=9)).splitlines()
        hint[1] = hint[1].replace('"qubits": ', '"qubits": 0')
        assert transcript._written_back("\n".join(hint)) is None
        assert built == []
