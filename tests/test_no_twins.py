"""No subsystem is a copy of its neighbour (ROADMAP aim 2).

Tier-1 guard in the ``grep -c "def emit_level" = 1`` tradition: no window
of 6 consecutive code lines — stripped; blank, comment-only and
bare-bracket lines skipped; at least 150 characters in all — may occur in
two different modules under ``src/repro``.  ``workloads/`` is exempt: kernel
descriptions are data.  At ca78b9e this named ``deps/analysis.py`` ×
``deps/rar.py`` and ``server/daemon.py`` × ``server/shard.py``.

Four narrower guards of the same kind: one module imports
``scipy.optimize``, makes a HiGHS in one place and passes it a model once, ``repro.polyhedra`` cancels a
column through an equality in one function, ``core/farkas.py`` eliminates
multipliers in one place, and Fourier–Motzkin combines a lower with an
upper bound in one expression, which the scan reaches through one
``project_chain`` call.  And one worker pool forks and waits on children.
And every stats record (a class named ``*Stats`` or ``*Metrics``, plus
``TimingBreakdown``) derives from ``repro.records.Record``: serialized by
one rule, never spelled out field by field again.
"""

import ast
import re
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


# -- one door to HiGHS, one equality elimination (ISSUE 18) -------------------

#: any import of ``scipy.optimize`` or of the HiGHS bindings under it (``_highspy``)
_SCIPY_OPTIMIZE = re.compile(
    r"^\s*(import scipy\.optimize|from scipy\.optimize\b|from scipy import .*\boptimize\b"
    r"|(from|import) .*\b_highspy\b)",
    re.MULTILINE,
)
#: the positive-scaling cancel step ``scale * c - back * e for c, e in zip(...)``
_CANCEL = re.compile(r"\w+ \* \w+ - [\w ]+(\* \w+ )+for \w+, \w+ in zip\(")


def test_highs_backend_is_the_only_door_to_scipy_optimize():
    """At 4ce864d ``polyhedra/fastcheck.py`` and ``polyhedra/fourier_motzkin.py``
    imported ``scipy.optimize`` and called ``linprog`` themselves; until
    v1.19.0 the door went through ``optimize.milp``'s wrapper, and until
    v1.22.0 it made a new ``_Highs`` per entry.  Now one module imports
    HiGHS's bindings, makes each thread's one HiGHS in one place and hands
    it a model in one place."""
    sources = {p.relative_to(SRC).as_posix(): p.read_text() for p in SRC.rglob("*.py")}
    importers = [m for m, text in sources.items() if _SCIPY_OPTIMIZE.search(text)]
    assert importers == ["ilp/highs_backend.py"]
    assert sum(text.count("_Highs(") for text in sources.values()) == 1
    assert sum(text.count("passModel(") for text in sources.values()) == 1
    assert not [m for m, text in sources.items() if re.search(r"milp|linprog", text)]


def test_polyhedra_eliminates_equalities_in_one_place():
    """At 4ce864d ``fourier_motzkin.eliminate_column`` and ``_row_rules`` each
    carried the cancel step; ``fourier_motzkin.cancel`` is the one copy."""
    sites = [
        f"{path.name}:{text.count(chr(10), 0, match.start()) + 1}"
        for path in sorted((SRC / "polyhedra").glob("*.py"))
        for text in [path.read_text()]
        for match in _CANCEL.finditer(text)
    ]
    assert len(sites) == 1, sites


def test_farkas_eliminates_multipliers_in_one_place():
    """``core/farkas.py`` eliminates once per polyhedron, over a generic form
    (``cone``); a per-form elimination kept beside it would be a second call."""
    assert (SRC / "core" / "farkas.py").read_text().count("eliminate_columns(") == 1


#: the Fourier–Motzkin step ``b * lc + a * uc for lc, uc in zip(lo, up)``
_COMBINE = re.compile(r"\w+ \* \w+ \+ \w+ \* \w+ for \w+, \w+ in zip\(")


def test_fourier_motzkin_combines_in_one_place():
    """The history-tracked chain and the untracked elimination (Farkas') share
    ``_combine``; the scan asks for all its levels at once and never projects
    one level at a time again."""
    text = (SRC / "polyhedra" / "fourier_motzkin.py").read_text()
    assert len(_COMBINE.findall(text)) == 1
    scan = (SRC / "codegen" / "scan.py").read_text()
    assert scan.count("project_chain(") == 1 and scan.count("project_out(") == 0


def test_one_worker_pool_forks_and_waits():
    """At 8285a09 the suite forked its runs through
    ``repro.workers.WorkerSupervisor`` (with ``WorkerHandle`` and the child
    body ``worker_main``) beside the daemon's ``repro.server.pool``: two
    spawn → wait → deadline-kill loops.  ``WarmWorkerPool`` is the one."""
    sources = [p.read_text() for p in SRC.rglob("*.py")]
    assert sum(text.count(".Process(") for text in sources) == 1
    assert sum(text.count("conn_wait(") for text in sources) == 1


def test_every_stats_record_derives_from_record():
    """Until v1.21.0 ``ServerMetrics`` was the one stats record written by
    hand: 21 counters initialised one by one, a method per counter and a
    ``snapshot()`` that listed every field again."""
    records = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and (
                node.name.endswith(("Stats", "Metrics"))
                or node.name == "TimingBreakdown"
            ):
                bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
                records[node.name] = "Record" in bases
    assert len(records) >= 8, sorted(records)
    assert all(records.values()), sorted(n for n, ok in records.items() if not ok)
