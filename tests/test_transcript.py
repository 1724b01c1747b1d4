import dataclasses
import functools
import hashlib
import json
import math
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shorsim.factorizer import AttemptRecord, FactoringHistory, Outcome, factor
from shorsim.model import FactoringParams
from shorsim.orderfinder import OrderResult
from shorsim.transcript import (
    CEILING_LINE,
    SCHEMA_VERSION,
    TranscriptError,
    from_jsonl,
    render_text,
    to_jsonl,
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
        rejected = [a for a in history.attempts if type(a) is int]
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


class TestTranscriptBytes:
    @pytest.mark.parametrize(
        "n,seed,jsonl_digest,text_digest",
        [
            (
                1328881,
                0,
                "f4908d36590b865f56bd5588f1e03411375cf5e07844f8f34f89dd2a8ea554dc",
                "7fb5b317fda445d0301a341983a43cab481d33348b59ff9004b75a12470105ed",
            ),
            (
                9954647173,
                3,
                "9e02baa322124c9b36ac5efddf3e4052a706712ea7cdf566844b0b25b3149aff",
                "fa0681087edfd08bc077002cedf74fe899e4cd8f7fd97d8756d6f74f4770814e",
            ),
        ],
    )
    def test_output_is_pinned(self, n, seed, jsonl_digest, text_digest):
        # both renderings of a seeded session, hashed with the wall-clock time
        # zeroed; the ten-digit session has 42,524 attempts, almost all of
        # them ceiling rejections
        history = dataclasses.replace(factor(n, seed=seed), elapsed=0.0)
        text = "\n".join(render_text(history))
        assert hashlib.sha256(to_jsonl(history).encode()).hexdigest() == jsonl_digest
        assert hashlib.sha256(text.encode()).hexdigest() == text_digest


class TestJsonlRoundTrip:
    def test_handcrafted_history(self):
        history = session_history()
        assert from_jsonl(to_jsonl(history)) == history

    @pytest.mark.parametrize("seed", range(6))
    def test_real_sessions(self, seed):
        history = factor(1328881, 41, seed=seed)
        assert from_jsonl(to_jsonl(history)) == history

    def test_failure_session(self):
        history = factor(1328881, 41, seed=11, max_trials=1)
        assert from_jsonl(to_jsonl(history)) == history

    def test_small_sessions(self):
        for seed in range(4):
            history = factor(15, 8, seed=seed)
            assert from_jsonl(to_jsonl(history)) == history

    @pytest.mark.parametrize("n", [15, 105, 187, 1328881])
    def test_every_history_the_constructors_accept(self, n):
        # every seeded session on these grids, and every prefix of its
        # attempts that ends on a record: the session under a budget of the
        # trials that prefix ran, which ends there
        for max_trials in (1, 2, 100):
            for order_ceiling in ("sqrt", None, 3):
                for seed in range(30):
                    session = factor(n, seed=seed, max_trials=max_trials,
                                     order_ceiling=order_ceiling)
                    attempts, trials = session.attempts, 0
                    for end, record in enumerate(attempts, 1):
                        if type(record) is int:
                            continue
                        trials += len(record.trials)
                        params = session.params
                        if end < len(attempts):
                            params = dataclasses.replace(params, max_trials=trials)
                        history = FactoringHistory(params, attempts[:end], 0.5)
                        assert from_jsonl(to_jsonl(history)) == history
                        render_text(history)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_records_built_from_arbitrary_readouts(self, data):
        # up to three coprime bases, each with trials built from arbitrary
        # readouts and stopped at the first verified one, until one does not
        # continue the session: a success, or a base whose trials all fail.
        # A success may leave some of the budget; any other end spends it.
        n = data.draw(st.sampled_from([15, 187, 1328881]))
        q = FactoringParams(n, seed=0).q
        attempts, total = [], 0
        for _ in range(data.draw(st.integers(1, 3))):
            y = data.draw(st.integers(2, n - 1).filter(lambda y: math.gcd(y, n) == 1))
            trials = []
            for readout in data.draw(st.lists(st.integers(0, q - 1), min_size=1)):
                trials.append(OrderResult(readout, y, q, n))
                if trials[-1].verified:
                    break
            attempts.append(AttemptRecord(y, tuple(trials), n))
            total += len(trials)
            if attempts[-1].outcome in (Outcome.SUCCESS, Outcome.TRIAL_BUDGET_EXHAUSTED):
                break
        spare = data.draw(st.integers(0, 5)) if attempts[-1].outcome is Outcome.SUCCESS else 0
        params = FactoringParams(n, seed=0, max_trials=total + spare)
        elapsed = data.draw(st.floats(0.0, 1e6))
        history = FactoringHistory(params, tuple(attempts), elapsed)
        assert history.total_trials == total
        assert from_jsonl(to_jsonl(history)) == history

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
                "bad 'shared_factor' event: y 1329920 is not an int in [2, 1328881)",
                id="shared-factor-y-above-n",
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
                "bad 'summary' event: no AttemptRecord ended the session: attempts end on None",
                id="no-attempt",
            ),
            pytest.param(
                lambda lines: with_fields(
                    23, factors=None, failure="trial_budget_exhausted"
                )(lines[:21] + [REJECTION] + lines[21:]),
                23,
                "bad 'summary' event: no AttemptRecord ended the session: attempts end on 7",
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
        # every line but the summary passes its own checks, and the summary
        # agrees with the trials and the last attempt
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
    verdict kind: a success at N = 1328881 after 303 rejections, then at
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
    assert from_jsonl(to_jsonl(history)) == history


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

    @given(rejection_lines())
    @example(written("1152", "1\u0663"))
    @example(written("1\uff11", "7"))
    @example(written("1152", "007"))
    @example(written("1152", "+5"))
    @example(written("1152", "-5"))
    @example(written("1152", "1_000"))
    @example(written("1152", "1" * 4301))
    @example(written("1152", "9" * 19))
    @example(written("1152", "9" * 20))
    @example(written("1152", "7") + "}")
    @example(written("1152", "7").replace(": ", ":  ", 1))
    @example(written("1152", "99999999999999"))
    @example(written("1152", "1"))
    @example(written("1152", "2"))
    @example(written("1152", "1328880"))
    @example(written("1152", "1328881"))
    @example(written("5", "7"))
    @example(written("1153", "7"))
    @example(written("01152", "7"))
    @example(written("1152.0", "7"))
    @example(written("true", "7"))
    @example(written("1152", "true"))
    @example(written("1152", "2.0"))
    @settings(max_examples=400, deadline=None)
    def test_reader(self, line):
        head, tail = frame()
        text = "\n".join(head + [line] + tail)
        try:
            data = json.loads(line)
        except ValueError:
            with pytest.raises(TranscriptError, match="not JSON") as info:
                from_jsonl(text)
            assert info.value.line == 3
            return
        y, ceiling = data["y"], data["ceiling"]
        if type(y) is int and 2 <= y < 1328881 and type(ceiling) is int and ceiling == 1152:
            history = from_jsonl(text)
            base = session_history()
            assert history == dataclasses.replace(base, attempts=(y,) + base.attempts)
            assert type(history.attempts[0]) is int
            return
        with pytest.raises(TranscriptError, match="bad 'ceiling_rejection' event") as info:
            from_jsonl(text)
        assert info.value.line == 3

    @pytest.mark.parametrize("y", [2**70, -3, 0])
    def test_writer(self, y):
        base = session_history()
        history = dataclasses.replace(base, attempts=(y,) + base.attempts)
        text = to_jsonl(history)
        event = {"event": "ceiling_rejection", "y": y, "ceiling": 1152}
        lines = to_jsonl(base).splitlines()
        lines.insert(2, json.dumps(event, sort_keys=True))
        assert text == "\n".join(lines)
        assert render_text(history)[2] == CEILING_LINE.format(y=y, ceiling=1152)
        # none of these is a base in [2, n), so the reader refuses the line
        with pytest.raises(TranscriptError, match="bad 'ceiling_rejection' event") as info:
            from_jsonl(text)
        assert info.value.line == 3
