"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

from shorsim import render_text

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(section: str) -> str:
    """The first ```python block under the README heading `section`."""
    text = README.read_text().split(f"\n## {section}\n", 1)[1]
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
