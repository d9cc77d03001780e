"""What the scan's projection chain costs and yields: counted, not timed.

``ScanSystem`` takes every level's hull from one history-tracked
``project_chain``; redundancy is decided by ancestry, so emission never
enters HiGHS on the kernels below (at 0d80be4 seidel-2d's emission made 4
pruning entries and heat-2dp's 56), and deep levels come out leaner than
the per-level project-then-LP-prune left them (heat-1dp's outermost tile
loop was bounded by 31 rows, 36 nested ``repro_max``/``repro_min`` calls on
one ``for`` line).  That the leaner bounds scan the same points is
``test_inversion.py``'s differential sweep, which this change leaves alone.
"""

import functools

import pytest

from repro.codegen import build_scan_systems, generate_c_kernel, generate_python
from repro.pipeline import optimize
from repro.polyhedra.cache import global_cache
from repro.workloads import get_workload
from tests.codegen.test_inversion import CELLS, _schedule

SWEEP = [c for c in CELLS if c.rpartition("--")[2] in ("pluto", "plutoplus")]


@functools.lru_cache(maxsize=None)
def _tiled(cell_id):
    if cell_id in SWEEP:
        return _schedule(cell_id)[2]
    name, _, variant = cell_id.rpartition("--")
    workload = get_workload(name)
    return optimize(workload.program(), workload.pipeline_options(variant)).tiled


def _levels(cell_id, stmt_name):
    """Rows per level of one statement's hull, innermost first."""
    (system,) = [s for s in build_scan_systems(_tiled(cell_id)) if s.stmt.name == stmt_name]
    return [len(level.constraints) for level in reversed(system._compute_z_projections())]


@pytest.mark.parametrize("cell_id", SWEEP + ["heat-2dp--pluto", "heat-2dp--plutoplus"])
def test_emission_never_asks_the_lp(cell_id):
    tsched = _tiled(cell_id)
    global_cache().clear()
    before = global_cache().stats.snapshot()
    generate_python(tsched)
    generate_c_kernel(tsched)
    delta = global_cache().stats.delta_since(before)
    assert delta.prune_lp_solves == 0
    # one question per statement and emitter, not one per level
    assert delta.project_lookups <= 2 * len(tsched.program.statements)


def test_heat_1dp_levels_and_bounds_are_lean():
    # rows: the wavefront w, two diamond tile rows, then the source order
    # (t, i); w's equality with the tile rows' sum is one more row on each
    # level above i ([9, 11, 13, 5] for the tile rows and (t, i) without it)
    counts = _levels("heat-1dp--plutoplus", "S0_m")
    assert all(got <= most for got, most in zip(counts, [10, 12, 14, 13, 5])), counts
    source = generate_c_kernel(_tiled("heat-1dp--plutoplus")).source
    calls = [
        line.count("repro_max(") + line.count("repro_min(")
        for line in source.splitlines()
        if line.lstrip().startswith("for (")
    ]
    # outermost first (w, the parallel tile loop; the other tile index is
    # pinned), the innermost loop once per ISS half; [36, 26, 18, 2] when
    # each level was projected alone and the point rows were t +- i
    assert len(calls) == 5 and all(c <= m for c, m in zip(calls, [4, 16, 18, 5, 5])), calls


def test_heat_2dp_levels_stay_under_the_lp_threshold():
    # w, three tile rows, (t, i, j): [14, 16, 21, 40, 12, 5] from the first
    # tile row on before the wavefront's equality row
    counts = _levels("heat-2dp--plutoplus", "S0_mm")
    assert all(got <= most for got, most in zip(counts, [15, 17, 22, 41, 13, 12, 6])), counts
