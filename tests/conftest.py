"""Line coverage of src/, collected with the standard library alone.

    python -m pytest --unexecuted-lines=FILE

writes to FILE, one `path:line` a line, every executable line of
src/legknots that the run never executed.  A line is executable when some
code object compiled from the file maps an instruction to it (co_lines).
The collector is a sys.monitoring LINE callback that records the line and
returns DISABLE, so each line costs one event and the time budgets of the
checks hold under it; sys.monitoring needs Python 3.12.  Without the option
nothing is collected.  unexecuted_lines.txt lists the lines tier-1 leaves
unexecuted, with the reason for each.
"""

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
EXECUTED = pytest.StashKey[set]()  # (co_filename, line) of every line that ran


def pytest_addoption(parser):
    parser.addoption(
        "--unexecuted-lines", metavar="FILE",
        help="write the executable lines of src/ that the run never executed to FILE (Python >= 3.12)",
    )


def pytest_configure(config):
    if not config.getoption("unexecuted_lines"):
        return
    if sys.version_info < (3, 12):
        raise pytest.UsageError("--unexecuted-lines needs sys.monitoring, Python 3.12 or later")
    executed = config.stash[EXECUTED] = set()

    def record(code, line):
        executed.add((code.co_filename, line))
        return sys.monitoring.DISABLE

    tool = sys.monitoring.COVERAGE_ID
    sys.monitoring.use_tool_id(tool, "legknots-lines")
    sys.monitoring.register_callback(tool, sys.monitoring.events.LINE, record)
    sys.monitoring.set_events(tool, sys.monitoring.events.LINE)


def _executable_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}  # None: no line; 0: synthetic
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable_lines(const)
    return lines


def pytest_unconfigure(config):
    if EXECUTED not in config.stash:  # not collecting
        return
    sys.monitoring.set_events(sys.monitoring.COVERAGE_ID, 0)
    sys.monitoring.free_tool_id(sys.monitoring.COVERAGE_ID)
    ran = config.stash[EXECUTED]
    resolved = {name: str(Path(name).resolve()) for name, _ in ran}
    executed = {(resolved[name], line) for name, line in ran}
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        name = str(path.resolve())
        rel = path.relative_to(SRC.parent).as_posix()
        missed += [f"{rel}:{line}" for line in sorted(_executable_lines(code)) if (name, line) not in executed]
    Path(config.getoption("unexecuted_lines")).write_text("".join(f"{entry}\n" for entry in missed), encoding="utf-8")
