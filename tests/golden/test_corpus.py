"""The tier-1 slice of the golden schedule corpus, plus its self-checks.

Cells whose stored tier is ``"full"`` are recomputed by CI's ``golden-full``
job (``python -m tests.golden --check --tier full``), not here.

The corpus stores one schedule per cell, the one HiGHS finds.  Seven
Polybench cells are also recomputed with the exact reference lexmin
(``tests/ilp/reference_lexmin.py``: the warm simplex + branch-and-bound, one
objective at a time) substituted into the scheduler: the only end-to-end run
of the exact solver, which must find the same schedules.

Two of the paper's qualitative claims are read off the stored pretty
schedules of every tier: the cell checks (here for tier 1, ``golden-full``
for the rest) keep those lines current, so the claims recompute nothing.
"""

import copy
import re

import pytest

from repro.core import scheduler
from repro.pipeline import optimize
from repro.workloads import all_workloads
from tests.golden import (
    cell_specs,
    compute_cell,
    load_corpus,
    mismatch,
    result_digest,
)
from tests.ilp.reference_lexmin import reference_lexmin

CORPUS = load_corpus()
CELLS = CORPUS["cells"]
SPECS = cell_specs()

#: the Polybench kernels the seed's exact solver finished in minutes
EXACT_WORKLOADS = (
    "floyd-warshall", "mvt", "gemm", "syrk", "trisolv", "lu", "seidel-2d",
)

#: the marker ``Schedule.pretty()`` puts on the first row of a band of
#: width >= 2: ``<- band[start..end] (flags)``
BAND_MARKER = re.compile(r"<- band\[(\d+)\.\.(\d+)\] \(([^)]*)\)")


def test_corpus_covers_every_workload_variant_cell():
    assert set(CELLS) == set(SPECS)
    limit = CORPUS["header"]["tier1_max_seconds"]
    for cell_id, cell in CELLS.items():
        assert cell["tier"] == (1 if cell["seconds"] <= limit else "full"), cell_id


@pytest.mark.parametrize(
    "cell_id", [cid for cid, cell in CELLS.items() if cell["tier"] == 1]
)
def test_tier1_cell_matches_golden(cell_id):
    report = mismatch(cell_id, CELLS[cell_id], compute_cell(*SPECS[cell_id]))
    assert report is None, report


@pytest.mark.parametrize("name", EXACT_WORKLOADS)
def test_exact_backend_cell_matches_golden(name, monkeypatch):
    """HiGHS and the exact simplex are independent solvers of the same
    lexmin: with the exact one in the scheduler, the pipeline reproduces
    the cell HiGHS froze."""
    calls = 0

    def exact_lexmin(model):
        nonlocal calls
        calls += 1
        return reference_lexmin(model)

    monkeypatch.setattr(scheduler, "lexmin", exact_lexmin)
    cell_id = f"{name}--plutoplus"
    report = mismatch(cell_id, CELLS[cell_id], compute_cell(*SPECS[cell_id]))
    assert report is None, report
    assert calls > 0


def test_mismatch_report_names_the_cell_and_diffs_the_schedule():
    cell_id = "mvt--pluto"
    golden = CELLS[cell_id]
    assert mismatch(cell_id, golden, golden) is None
    corrupted = copy.deepcopy(golden)
    corrupted["schedule_digest"] = "0" * 64
    corrupted["pretty"][1] = "  t0: [scalar] a row the scheduler never emitted"
    report = mismatch(cell_id, corrupted, golden)
    assert "workload 'mvt'" in report and "variant 'pluto'" in report
    assert "schedule_digest differ" in report and "tiled_digest" not in report
    assert "-  t0: [scalar] a row the scheduler never emitted" in report
    assert "+" + golden["pretty"][1] in report


def _bands(cell_id):
    """``(start, end, flags)`` of every band the cell's stored pretty marks."""
    return [
        (int(m[1]), int(m[2]), m[3])
        for m in map(BAND_MARKER.search, CELLS[cell_id]["pretty"])
        if m
    ]


def test_pluto_and_plutoplus_bands_agree_on_polybench():
    """Section 4.2: on Polybench, Pluto+ finds the same (or an equivalent)
    transformation as Pluto: the same tilable bands, level for level, on
    all 27 kernels.  Catches a scheduler change, once regenerated into the
    corpus, that gives one algorithm another band structure, e.g. Pluto+
    closing its band at a reversed (negative-coefficient) row."""
    names = [w.name for w in all_workloads("polybench")]
    assert len(names) == 27
    differ = [n for n in names if _bands(f"{n}--pluto") != _bands(f"{n}--plutoplus")]
    assert differ == []


def test_only_plutoplus_time_tiles_the_periodic_suite():
    """Fig. 6: Pluto+ time-tiles all 9 periodic kernels (a band starting at
    the outermost, time, level), with concurrent start on all but swim;
    classic Pluto time-tiles none of them.  Catches a scheduler change, once
    regenerated into the corpus, that loses a diamond, e.g. a diamond band no
    longer flagged concurrent-start."""
    names = [w.name for w in all_workloads("periodic")]
    assert len(names) == 9
    outer = {n: [b for b in _bands(f"{n}--plutoplus") if b[0] == 0] for n in names}
    assert [n for n in names if not outer[n]] == []
    assert [n for n in names if "concurrent-start" not in outer[n][0][2]] == ["swim"]
    assert [n for n in names if any(b[0] == 0 for b in _bands(f"{n}--pluto"))] == []


def test_result_digest_drops_wall_clock_fields_only():
    """``python -m tests.golden --digest`` fingerprints everything a result
    serializes but its timings: a moved counter moves the digest."""
    result = optimize("fig1-skew")
    digest = result_digest(result)
    result.timing.code_generation += 1.0
    result.scheduler_stats.solve.solve_seconds += 1.0
    result.dep_stats.analysis_seconds += 1.0
    assert result_digest(result) == digest
    result.dep_stats.pairs_tested += 1
    assert result_digest(result) != digest
