"""The README's examples run as written."""

import doctest
import re
from pathlib import Path

from legknots.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(info: str, first_line: str = "") -> str:
    """The body of the first fenced block tagged `info` whose body starts with
    `first_line`, without its fences."""
    for body in re.findall(rf"^```{info}\n(.*?)^```$", README, re.DOTALL | re.MULTILINE):
        if body.startswith(first_line):
            return body
    raise AssertionError(f"README has no {info} block starting {first_line!r}")


def test_readme_library_session():
    # doctest reads a closing fence as expected output, so it runs the body only
    test = doctest.DocTestParser().get_doctest(_block("pycon"), {}, "README.md", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples))
    assert len(test.examples) == 3


def test_readme_transverse_example(capsys):
    command, *expected = _block("console", "$ legknots transverse 5 8\n").splitlines()
    assert main(command.split()[2:]) == 0
    assert capsys.readouterr().out.splitlines() == expected
