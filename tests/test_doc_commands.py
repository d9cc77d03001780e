"""Every ``python -m repro …`` command the docs show parses.

Collects the command lines of README.md, docs/USAGE.md, docs/API.md and
docs/INTERNALS.md (``\\`` continuations joined, the command cut at its first
shell operator or comment) and requires ``build_parser().parse_args`` to
accept each.  Lines with ``$``, ``<``, ``[`` or ``…`` placeholders are
templates, not commands, and are skipped.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).parents[1]
DOCS = ("README.md", "docs/USAGE.md", "docs/API.md", "docs/INTERNALS.md")
COMMAND = re.compile(r"python3? -m repro (.*)")
#: where a shell command line stops being the repro command
SHELL_END = re.compile(r"\s(?:\||&&|;|&|\d?>)|\s#|\)")
PLACEHOLDER = re.compile(r"[$<\[…]")


def _lines(text: str):
    """``(lineno, line)`` with backslash continuations joined."""
    start, buf = None, ""
    for no, line in enumerate(text.splitlines(), 1):
        start = start or no
        if line.endswith("\\"):
            buf += line[:-1] + " "
            continue
        yield start, buf + line
        start, buf = None, ""


def doc_commands():
    found = []
    for doc in DOCS:
        for no, line in _lines((ROOT / doc).read_text()):
            m = COMMAND.search(line)
            if not m:
                continue
            cmd = SHELL_END.split(m.group(1), maxsplit=1)[0]
            if PLACEHOLDER.search(cmd):
                continue
            found.append(pytest.param(shlex.split(cmd), id=f"{doc}:{no}"))
    return found


COMMANDS = doc_commands()


def test_docs_show_commands():
    # a collector that silently finds nothing would pass every case below
    assert len(COMMANDS) >= 30


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"`repro {' '.join(argv)}` is rejected: "
                    f"{capsys.readouterr().err.strip()}")
