"""Every ``python -m repro …`` command the docs show parses.

Collects the command lines of README.md, docs/USAGE.md, docs/API.md and
docs/INTERNALS.md (``\\`` continuations joined, the command cut at its first
shell operator or comment) and requires ``build_parser().parse_args`` to
accept each.  Lines with ``$``, ``<``, ``[`` or ``…`` placeholders are
templates, not commands, and are skipped.

A case's id is its doc's file name and its command, words joined by ``_``
and cut at ``ID_WIDTH`` characters (``USAGE.md:list``), with ``~2``, ``~3``,
... on a repeat of that id within one doc: an edit elsewhere in a doc
renames no case, and a report line shows the whole id.
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
#: long enough to tell most commands apart, short enough to read in a report
ID_WIDTH = 40


def _lines(text: str):
    """Lines with backslash continuations joined."""
    buf = ""
    for line in text.splitlines():
        if line.endswith("\\"):
            buf += line[:-1] + " "
            continue
        yield buf + line
        buf = ""


def doc_commands():
    found = []
    for doc in DOCS:
        seen: dict[str, int] = {}
        for line in _lines((ROOT / doc).read_text()):
            m = COMMAND.search(line)
            if not m:
                continue
            cmd = SHELL_END.split(m.group(1), maxsplit=1)[0]
            if PLACEHOLDER.search(cmd):
                continue
            argv = shlex.split(cmd)
            case = f"{Path(doc).name}:{'_'.join(argv)}"[:ID_WIDTH]
            seen[case] = seen.get(case, 0) + 1
            if seen[case] > 1:
                case += f"~{seen[case]}"
            found.append(pytest.param(argv, id=case))
    return found


COMMANDS = doc_commands()


def test_docs_show_commands():
    # a collector that silently finds nothing would pass every case below
    assert len(COMMANDS) >= 40


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"`repro {' '.join(argv)}` is rejected: "
                    f"{capsys.readouterr().err.strip()}")
