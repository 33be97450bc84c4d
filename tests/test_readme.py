"""The README's examples run as written.

Every ``gammaexc ...`` line of the "Command line" block goes through
``cli.main`` and must exit 0, and the "Library tour" snippet must run and
give the values its comments state.
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from gammaexc.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()

# test_harness.py already runs the whole suite, which takes seconds
SKIPPED = (["verify", "--suite", "all"],)


def _block(heading, language=""):
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _commands():
    commands = []
    for line in _block("Command line").splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["gammaexc"] and argv[1:] not in SKIPPED:
            commands.append(argv[1:])
    return commands


def test_the_command_block_is_found():
    assert len(_commands()) == 7


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_command_line_example_exits_zero(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    assert out.getvalue()


def test_library_tour_runs():
    namespace = {}
    exec(_block("Library tour", "python"), namespace)
    expansion = namespace["expansion"]
    assert expansion.gammas == (63, 336, 168)
    assert expansion.center_of_symmetry == 3
