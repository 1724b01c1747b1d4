import dataclasses
import io
import json
import os
import re
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim import cli, transcript
from shorsim.cli import MAX_BENCH_SESSIONS, main
from shorsim.factorizer import factor
from shorsim.model import dominant_mass
from shorsim.transcript import PRIME_WARNING, from_jsonl, render_text, to_jsonl


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactorCommand:
    def test_factors_fifteen(self, capsys):
        code, out, _ = run(capsys, "factor", "15", "--qubits", "8", "--seed", "7")
        assert code == 0
        assert "The number to be factored is 15." in out
        assert "The safe number of qubits needed to factor this number is 8." in out
        assert "determined to be" in out
        assert "The program has succeeded and will now terminate." in out

    def test_uses_safe_register_by_default(self, capsys):
        code, out, _ = run(capsys, "factor", "187", "--seed", "3")
        assert code == 0
        assert "The safe number of qubits needed to factor this number is 16." in out

    def test_prime_input_prints_warning(self, capsys):
        code, out, _ = run(capsys, "factor", "1039")
        assert code == 2
        assert PRIME_WARNING in out

    def test_eleven_digit_input_fails(self, capsys):
        code, _, err = run(capsys, "factor", "12345678901")
        assert code == 2
        assert "ten digits" in err

    @pytest.mark.parametrize("command", ["factor", "dist", "bench"])
    def test_ten_to_the_ten_is_refused(self, capsys, command):
        extra = ["3"] if command == "dist" else []
        code, out, err = run(capsys, command, str(10**10), *extra)
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == [
            "shorsim: 10000000000 has more than ten digits"
        ]

    @pytest.mark.parametrize(
        "extra,failed",
        [
            ([], "has failed"),
            # the stream, written to a file, exits 1 all the same
            (["--format", "jsonl", "--out", "run.jsonl"], '"failure": "trial_budget_exhausted"'),
        ],
        ids=["text", "jsonl-out"],
    )
    def test_budget_failure_exit_code(self, capsys, monkeypatch, tmp_path, extra, failed):
        monkeypatch.chdir(tmp_path)
        for seed in range(30):
            code, out, _ = run(
                capsys,
                "factor",
                "1328881",
                "--seed",
                str(seed),
                "--max-trials",
                "1",
                *extra,
            )
            if code == 1:
                assert failed in (out or (tmp_path / "run.jsonl").read_text())
                return
        pytest.fail("no failing session found in 30 seeds")

    def test_jsonl_output_parses_back(self, capsys):
        code, out, _ = run(
            capsys, "factor", "187", "--seed", "5", "--format", "jsonl"
        )
        assert code == 0
        history = from_jsonl(out)
        assert history.params.seed == 5
        assert history.succeeded
        assert set(history.factors) == {11, 17}

    def test_unwritable_out_fails_in_one_line(self, capsys, tmp_path):
        path = tmp_path / "missing" / "run.txt"
        for argv in (
            ["factor", "187", "--seed", "9"],
            ["dist", "187", "56"],
            # bench must fail before its first session, so no table is printed
            ["bench", "1328881", "--runs", "20", "--seed", "1"],
        ):
            code, out, err = run(capsys, *argv, "--out", str(path))
            assert code == 2
            assert out == ""
            assert err.strip().splitlines() == [
                f"shorsim: cannot write {path}: No such file or directory"
            ]

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "run.txt"
        code, out, _ = run(
            capsys, "factor", "15", "--seed", "7", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert "The number to be factored is 15." in path.read_text()

    def test_jsonl_out_reads_back_without_a_decode(self, capsys, tmp_path, monkeypatch):
        # the file is the session's stream and one final newline, which the
        # whole-stream check reads with no line handed to the JSON decoder
        path = tmp_path / "run.jsonl"
        argv = ["factor", "1328881", "--seed", "3", "--format", "jsonl", "--out", str(path)]
        assert run(capsys, *argv) == (0, "", "")
        decoded = []
        monkeypatch.setattr(transcript, "_decode", lambda line, index: decoded.append(line))
        history = from_jsonl(path.read_text())
        assert decoded == []
        session = factor(1328881, seed=3)
        assert history == dataclasses.replace(session, elapsed=history.elapsed)
        assert path.read_text() == to_jsonl(history) + "\n"

    def test_order_ceiling_none(self, capsys):
        code, out, _ = run(
            capsys, "factor", "187", "--seed", "5", "--order-ceiling", "none"
        )
        assert code == 0
        assert "exceeds the ceiling" not in out

    def test_order_ceiling_integer(self, capsys):
        code, out, _ = run(
            capsys, "factor", "187", "--seed", "1", "--order-ceiling", "10"
        )
        assert code == 0

    @pytest.mark.parametrize("ceiling", ["100", "none"])
    def test_transcript_names_the_applied_ceiling(self, capsys, ceiling):
        # the order of 36 mod 187 is 40: rejected because 40 > q = 8, which
        # caps the requested ceiling
        argv = ["factor", "187", "--qubits", "3", "--order-ceiling", ceiling, "--seed", "1"]
        _, out, _ = run(capsys, *argv)
        assert "The order of y = 36 exceeds the ceiling of 8, " in out
        _, out, _ = run(capsys, *argv, "--format", "jsonl")
        events = [json.loads(line) for line in out.splitlines()]
        rejections = [e for e in events if e["event"] == "ceiling_rejection"]
        assert rejections and {e["ceiling"] for e in rejections} == {8}

    def test_order_ceiling_garbage(self, capsys):
        code, _, err = run(
            capsys, "factor", "187", "--order-ceiling", "often"
        )
        assert code == 2
        assert "order-ceiling" in err


class TestDistCommand:
    # 16 qubits is the safe size for 187, so it is also the default
    @pytest.mark.parametrize("qubits", [["--qubits", "16"], []], ids=["qubits-16", "default"])
    def test_divisor_order_spectrum_has_sixteen_rows(self, capsys, qubits):
        # order of 56 mod 187 is 16, which divides q: exactly 16 nonzero rows
        code, out, _ = run(capsys, "dist", "187", "56", *qubits)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# N=187,L=16,y=56,r=16,dominant_mass=")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 16
        assert [int(r[0]) for r in rows] == [4096 * m for m in range(16)]
        assert all(float(r[1]) == 0.0625 for r in rows)

    def test_base_one_spectrum_is_a_single_row(self, capsys):
        code, out, _ = run(capsys, "dist", "187", "1", "--qubits", "16")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "0,1.0"
        assert len(lines) == 2

    def test_full_spectrum_order_forty(self, capsys):
        code, out, _ = run(capsys, "dist", "187", "36", "--qubits", "16")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# N=187,L=16,y=36,r=40,dominant_mass=0.77917")
        rows = {int(line.split(",")[0]): float(line.split(",")[1]) for line in lines[1:]}
        # 40 does not divide q, so no readout has probability zero
        assert len(rows) == 1 << 16
        assert rows[1638] == pytest.approx(0.0143196684291567, rel=1e-12)
        assert rows[1] == pytest.approx(2.2351761514212e-09, rel=1e-9)
        assert all(p > 0.0 for p in rows.values())

    def test_truncated_spectrum_above_the_dump_limit(self, capsys):
        code, out, _ = run(
            capsys, "dist", "1328881", "200298", "--qubits", "41", "--rings", "1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# N=1328881,L=41,y=200298,r=519,dominant_mass=")
        assert lines[0].endswith(",columns=c:prob:coverage")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) <= 519 * 3
        assert all(len(r) == 3 for r in rows)
        coverages = [float(r[2]) for r in rows]
        assert all(a <= b + 1e-15 for a, b in zip(coverages, coverages[1:]))
        assert 0.5 < coverages[-1] <= 1.001

    def test_truncated_spectrum_too_large_is_refused(self, capsys):
        # r = 4977223814 would need about 4.5e10 rows at the default 4 rings
        code, out, err = run(capsys, "dist", "9954647173", "2")
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == [
            "shorsim: order 4977223814 with 4 rings needs 44795014326 rows,"
            " more than the limit 1048576"
        ]

    @pytest.mark.parametrize(
        "argv,r,q",
        [
            (["187", "36"], 40, 1 << 16),
            (["1328881", "200298", "--rings", "0"], 519, 1 << 41),
        ],
    )
    def test_header_carries_dominant_mass(self, capsys, argv, r, q):
        code, out, _ = run(capsys, "dist", *argv)
        assert code == 0
        header = out.splitlines()[0]
        assert header.split("dominant_mass=")[1].split(",")[0] == repr(dominant_mass(r, q))

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        code, out, _ = run(
            capsys, "dist", "187", "56", "--qubits", "16", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("# N=187,")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["1039", "2", "--qubits", "12"], "1039 is prime"),
            (["1039", "2"], "1039 is prime"),
            (["3", "2", "--qubits", "4"], "n must be >= 4"),
        ],
    )
    def test_modulus_is_checked_at_every_register_size(self, capsys, argv, message):
        code, out, err = run(capsys, "dist", *argv)
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == [f"shorsim: {message}"]

    def test_non_coprime_base_fails(self, capsys):
        code, _, err = run(capsys, "dist", "187", "33")
        assert code == 2
        assert "gcd(33, 187) = 11" in err

    def test_order_exceeding_register_fails(self, capsys):
        code, _, err = run(capsys, "dist", "187", "36", "--qubits", "3")
        assert code == 2
        assert "exceeds the register size" in err

    def test_safe_register_default_for_modulus(self, capsys):
        code, out, _ = run(capsys, "dist", "15", "7")
        assert code == 0
        assert out.startswith("# N=15,L=8,y=7,r=4,")


class TestBenchCommand:
    def test_two_sizes_two_runs(self, capsys, tmp_path):
        path = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys,
            "bench",
            "187",
            "--qubits",
            "16,12",
            "--runs",
            "2",
            "--seed",
            "3",
            "--out",
            str(path),
        )
        assert code == 0
        assert "Factoring N = 187, 2 runs per register size, seed base 3" in out
        assert "L =  16:" in out
        assert "L =  12:" in out
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "n,qubits,run,seed,elapsed,trials,outcome,factor1,factor2"
        assert len(rows) == 5
        first = rows[1].split(",")
        assert first[0] == "187" and first[1] == "16" and first[3] == "3"

    def test_cells_are_the_csv_elapsed_in_milliseconds(self, capsys, tmp_path):
        path = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys, "bench", "1328881", "--qubits", "30,41", "--runs", "4", "--seed", "0",
            "--out", str(path),
        )
        assert code == 0
        # "L =  30: 0.17(0) 0.15(1) ...  avg 0.23(1)": the cells between ":" and "avg"
        cells = [
            cell
            for line in out.splitlines()[1:]
            for cell in line.split(":", 1)[1].split("  avg ")[0].split()
        ]
        rows = [row.split(",") for row in path.read_text().strip().splitlines()[1:]]
        assert len(cells) == len(rows) == 8
        assert cells == [
            f"{float(r[4]) * 1e3:.2f}({'-' if r[6] == 'trial_budget_exhausted' else r[5]})"
            for r in rows
        ]
        assert any(float(cell.split("(")[0]) > 0 for cell in cells)

    def test_csv_outcome_is_how_each_session_ended(self, capsys, tmp_path):
        # seeds 11, 12, 13 and 15 draw a base sharing a factor with 187, which
        # factors it with no trial
        path = tmp_path / "bench.csv"
        code, _, _ = run(
            capsys, "bench", "187", "--runs", "6", "--seed", "10", "--out", str(path)
        )
        assert code == 0
        rows = [row.split(",") for row in path.read_text().strip().splitlines()[1:]]
        shortcut = "shared_factor_shortcut"
        assert [(r[3], r[5], r[6]) for r in rows] == [
            ("10", "4", "success"),
            ("11", "0", shortcut),
            ("12", "0", shortcut),
            ("13", "0", shortcut),
            ("14", "1", "success"),
            ("15", "0", shortcut),
        ]
        assert all(sorted(r[7:]) == ["11", "17"] for r in rows)

    def test_prime_input(self, capsys):
        code, out, _ = run(capsys, "bench", "1039", "--runs", "1")
        assert code == 2
        assert PRIME_WARNING in out

    @pytest.mark.parametrize(
        "argv,seeds",
        [
            (["15", "--qubits", "8", "--runs", "3", "--seed", "100"], ["100", "101", "102"]),
            (["187", "--runs", "2", "--seed", "0"], ["0", "1"]),
        ],
    )
    def test_seeds_step_by_run_index(self, capsys, tmp_path, argv, seeds):
        path = tmp_path / "bench.csv"
        code, out, _ = run(capsys, "bench", *argv, "--out", str(path))
        assert code == 0
        assert out.splitlines()[0] == (
            f"Factoring N = {argv[0]}, {len(seeds)} runs per register size, seed base {seeds[0]}"
        )
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
        assert [r[3] for r in rows] == seeds

    @pytest.mark.parametrize(
        "argv,sessions",
        [
            (["--runs", str(MAX_BENCH_SESSIONS + 1)], MAX_BENCH_SESSIONS + 1),
            (["--qubits", "16,12", "--runs", str(MAX_BENCH_SESSIONS // 2 + 1)],
             MAX_BENCH_SESSIONS + 2),
            (["--runs", str(10**11)], 10**11),
        ],
    )
    def test_session_count_over_the_cap_is_refused(self, capsys, argv, sessions):
        # refused before any session runs or any per-session state is built
        code, out, err = run(capsys, "bench", "187", "--seed", "0", *argv)
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == [
            f"shorsim: a bench runs at most {MAX_BENCH_SESSIONS} sessions"
            f" (register sizes x --runs), not {sessions}"
        ]

    def test_bad_qubits_list(self, capsys):
        code, _, err = run(capsys, "bench", "187", "--qubits", "16,x")
        assert code == 2
        assert "comma-separated" in err or "invalid literal" in err

    def test_averages_are_the_means_of_the_successful_runs(self, capsys, monkeypatch):
        # each run's elapsed fixed, so the avg column can be held to
        # statistics.mean, which bench does not import
        histories = []
        real = cli.run_session

        def timed(params):
            elapsed = (0.00123, 0.0004567, 0.002, 0.0011, 0.0007, 0.0031)[len(histories) % 6]
            histories.append(dataclasses.replace(real(params), elapsed=elapsed))
            return histories[-1]

        monkeypatch.setattr(cli, "run_session", timed)
        code, out, _ = run(
            capsys, "bench", "187", "--runs", "6", "--seed", "18", "--max-trials", "2"
        )
        assert code == 0
        done = [history for history in histories if history.succeeded]
        assert 0 < len(done) < 6
        ms = statistics.mean(history.elapsed for history in done) * 1e3
        trials = statistics.mean(history.total_trials for history in done)
        assert out.splitlines()[-1].endswith(f"  avg {ms:.2f}({round(trials, 1):g})")


class TestJsonlShape:
    def test_banner_event_carries_the_session_parameters(self, capsys):
        code, out, _ = run(
            capsys, "factor", "15", "--seed", "7", "--format", "jsonl"
        )
        assert code == 0
        banner = json.loads(out.splitlines()[0])
        assert banner["event"] == "banner"
        assert banner["n"] == 15
        assert banner["qubits"] == 8
        assert banner["seed"] == 7
        assert banner["max_trials"] == 100
        assert banner["order_ceiling"] == 3  # isqrt(15)


class TestPipeSafety:
    def test_early_closed_pipe_is_not_a_crash(self):
        proc = subprocess.run(
            f"{sys.executable} -m shorsim dist 187 36 | head -1",
            shell=True,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0  # head's status, the left side must not traceback
        assert "Traceback" not in proc.stderr
        assert proc.stdout.startswith("# N=187,L=16,y=36,r=40")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "187", "--seed", "9"],
            ["dist", "187", "36"],
            ["bench", "187", "--seed", "9", "--runs", "2"],
        ],
        ids=["factor", "dist", "bench"],
    )
    def test_full_device_is_a_one_line_failure(self, argv):
        # every write to a full device fails; factor 187 --seed 9 succeeds,
        # so its status would be 0 had the write gone through
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "shorsim", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert proc.returncode == 2
        assert proc.stderr == "shorsim: cannot write standard output: No space left on device\n"

    def test_import_leaves_statistics_out(self):
        # bench averages by sums over counts, so a one-shot run does not pay
        # for statistics and what it imports
        code = "import sys, shorsim.cli; print('statistics' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def masked(text: str) -> str:
    """text with the elapsed time of its summary line masked, in either format."""
    return re.sub(r'took [0-9.]+ seconds|"elapsed": [^,]+', "elapsed", text)


class TestTenDigitSession:
    @pytest.mark.parametrize(
        "seed,argv,out",
        [
            (11, [], None),
            (3, ["--format", "jsonl", "--out", "ten-digit.jsonl"], "ten-digit.jsonl"),
            (3, ["--out", "ten-digit.txt"], "ten-digit.txt"),
        ],
        ids=["seed-11-text", "seed-3-jsonl-out", "seed-3-text-out"],
    )
    def test_session_through_python_m_shorsim(self, tmp_path, seed, argv, out):
        # a modulus wider than one CPython digit (2**30), in a fresh process
        # with no memo or order table filled; seed 3 writes 42,523 ceiling
        # rejections. A session gone back to taking seconds fails the
        # timeout. The output is what the session run here writes.
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "shorsim", "factor", "9954647173", "--seed", str(seed), *argv],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        written = proc.stdout
        if out is not None:
            assert written == ""
            written = (tmp_path / out).read_text()
        history = factor(9954647173, seed=seed)
        expected = to_jsonl(history) if "jsonl" in argv else "\n".join(render_text(history))
        # compared line by line: pytest's report on two long texts that
        # differ throughout takes minutes, on two lists of lines a second
        assert written.endswith("\n")
        assert masked(written).splitlines() == masked(expected).splitlines()


def run_argv(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) with its output captured; argparse's exit becomes a code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


N_VALUES = ["15", "21", "187", "1039", "4", "1", "0", "-187", "10000000000", "abc", ""]
SESSION_FLAGS = {
    "--seed": ["0", "7", "-1", str(2**64), "x"],
    "--max-trials": ["1", "5", "0", "-2", "x"],
    "--order-ceiling": ["sqrt", "none", "3", "0", "-1", "x"],
}
COMMAND_FLAGS = {
    "factor": {
        **SESSION_FLAGS,
        "--qubits": ["2", "8", "12", "0", "-3", "97", "x"],
        "--format": ["text", "jsonl", "xml"],
    },
    "dist": {
        "--qubits": ["3", "8", "12", "96", "0", "97", "x"],
        "--rings": ["0", "1", "4", "-1", "100000000", "x"],
    },
    "bench": {
        **SESSION_FLAGS,
        "--qubits": ["8", "12,8", "1,2", "", ",", "0", "97", "8,x"],
        "--runs": ["1", "3", "0", "-1", str(MAX_BENCH_SESSIONS + 1), str(10**11), "x"],
    },
}


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command, draw(st.sampled_from(N_VALUES))]
    if command == "dist":
        argv.append(draw(st.sampled_from(["2", "7", "36", "56", "33", "0", "-1", "187", "x"])))
    for flag, values in COMMAND_FLAGS[command].items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    return argv


class TestArgumentFuzz:
    @given(command_lines())
    @settings(max_examples=300, deadline=None)
    def test_exit_status_and_message_shape(self, argv):
        code, out, err = run_argv(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            shapes = [
                out == "" and err.startswith("shorsim: ") and len(err.splitlines()) == 1,
                out == PRIME_WARNING + "\n" and err == "",
                out == "" and err.startswith("usage: shorsim") and "error:" in err,
            ]
            assert shapes.count(True) == 1, (out, err)
