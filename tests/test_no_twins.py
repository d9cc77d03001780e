"""No subsystem is a copy of its neighbour (ROADMAP aim 2).

Tier-1 guard in the ``grep -c "def emit_level" = 1`` tradition: no window
of 6 consecutive code lines — stripped; blank, comment-only and
bare-bracket lines skipped; at least 150 characters in all — may occur in
two different modules under ``src/repro``.  ``workloads/`` is exempt: kernel
descriptions are data.  At ca78b9e this named ``deps/analysis.py`` ×
``deps/rar.py`` and ``server/daemon.py`` × ``server/shard.py``.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
WINDOW, MIN_CHARS = 6, 150
_BRACKETS = set("()[]{},:")


def _code_lines(path):
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#") and not set(line) <= _BRACKETS:
            yield number, line


def find_twins(root=SRC):
    seen, twins = {}, []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root)
        if module.parts[0] == "workloads":
            continue
        lines = list(_code_lines(path))
        for i in range(len(lines) - WINDOW + 1):
            window = tuple(text for _, text in lines[i:i + WINDOW])
            if sum(map(len, window)) < MIN_CHARS:
                continue
            here = f"{module}:{lines[i][0]}"
            first = seen.setdefault(window, here)
            if first.split(":")[0] != str(module):
                twins.append((first, here, window))
    return twins


def test_no_module_repeats_six_lines_of_another():
    twins = find_twins()
    report = "\n".join(
        f"{a} == {b}\n    " + "\n    ".join(window) for a, b, window in twins[:5]
    )
    assert not twins, f"{len(twins)} duplicated window(s), first ones:\n{report}"
