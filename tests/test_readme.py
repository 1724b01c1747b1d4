"""The README's library and command-line examples print what it shows, and
its python blocks use only the package's public surface, whose
__version__ is the one pyproject.toml declares."""

import importlib
import re
from pathlib import Path

import pytest

import shorsim
from shorsim import render_text
from shorsim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def text_of(path: Path) -> str:
    """A file of the checkout, read as UTF-8 whatever the platform's
    default encoding: the README holds non-ASCII characters."""
    return path.read_text(encoding="utf-8")


def python_block(section: str) -> str:
    """The first ```python block under the README heading `section`."""
    text = text_of(README).split(f"\n## {section}\n", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_its_comments(capsys):
    code = python_block("Library")
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    # a comment gives a printed line, and may go on with words about it
    comments = re.findall(r"(?:^|\s)# (.*)$", code, flags=re.MULTILINE)
    assert len(comments) == 4
    for line, comment in zip(printed, comments):
        assert comment == line or comment.startswith(line + " "), (line, comment)
    # the last print, which has no comment, is the text transcript
    assert printed[len(comments):] == render_text(namespace["history"])


def run_example(capsys, command: str) -> tuple[list[str], list[str]]:
    """What `shorsim command` prints, and the README's lines for it."""
    shown = text_of(README).split(f"\n$ shorsim {command}\n", 1)[1]
    assert main(command.split("|")[0].split()) == 0
    return capsys.readouterr().out.splitlines(), shown.split("```", 1)[0].splitlines()


def test_factor_example(capsys):
    printed, shown = run_example(capsys, "factor 187 --seed 9")
    # the summary carries the wall-clock time
    assert len(printed) == len(shown) and printed[:-1] == shown[:-1]


def test_dist_example(capsys):
    printed, shown = run_example(capsys, "dist 187 36 | head -3")
    assert printed[:3] == shown


def test_bench_example(capsys):
    printed, shown = run_example(capsys, "bench 25610987 --qubits 50,40,30 --runs 4 --seed 1000")
    assert len(printed) == len(shown) and printed[0] == shown[0]
    # the times vary from run to run; each row's trial counts, in brackets
    # after each time, and its avg trial mean do not
    for row, example in zip(printed[1:], shown[1:]):
        assert row.split(":")[0] == example.split(":")[0]
        assert re.findall(r"\(([^)]*)\)", row) == re.findall(r"\(([^)]*)\)", example), row


# what the paper's user calls: a session, its records, its transcripts and
# the model the dist header reads
PUBLIC = [
    "AttemptRecord", "FactoringHistory", "FactoringParams", "InputTooLarge", "OrderResult",
    "Outcome", "PrimeInput", "TranscriptError", "dominant_mass", "factor", "from_jsonl",
    "multiplicative_order", "prob", "render_text", "run_session", "safe_qubits", "to_jsonl",
]
# the pieces a session is built from, importable from their modules only
INTERNAL = {
    "pick_y": "shorsim.factorizer",
    "extract_factors": "shorsim.factorizer",
    "find_order": "shorsim.orderfinder",
    "RandomSource": "shorsim.sampler",
    "ReadoutSampler": "shorsim.sampler",
    "dominant_readouts": "shorsim.model",
    "convergents": "shorsim.numtheory",
    "is_prime": "shorsim.numtheory",
    "NotCoprime": "shorsim.numtheory",
}


class TestPublicSurface:
    def test_all_is_the_public_names(self):
        assert sorted(shorsim.__all__) == sorted([*PUBLIC, "__version__"])

    def test_version_is_the_one_pyproject_declares(self):
        # read by a regex, as tomllib is new in Python 3.11 and the package
        # supports 3.10
        project = text_of(PYPROJECT).split("\n[project]\n", 1)[1].split("\n[", 1)[0]
        declared = re.findall(r'^version = "([^"]+)"$', project, flags=re.MULTILINE)
        assert declared == [shorsim.__version__]

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from shorsim import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted([*PUBLIC, "__version__"])

    @pytest.mark.parametrize("name", sorted(INTERNAL))
    def test_internal_name_imports_from_its_module(self, name):
        assert hasattr(importlib.import_module(INTERNAL[name]), name)
        assert not hasattr(shorsim, name)

    def test_python_blocks_import_only_public_names(self):
        blocks = re.findall(r"```python\n(.*?)```", text_of(README), flags=re.DOTALL)
        imports = [
            name.strip()
            for block in blocks
            for names in re.findall(r"^from shorsim import (.*)$", block, flags=re.MULTILINE)
            for name in names.split(",")
        ]
        assert imports and set(imports) <= set(shorsim.__all__)

    @pytest.mark.parametrize("name", PUBLIC)
    def test_library_section_names_each_public_name(self, name):
        library = text_of(README).split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
        assert f"`{name}" in library
