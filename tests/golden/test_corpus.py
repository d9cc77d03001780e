"""The tier-1 slice of the golden schedule corpus, plus its self-checks.

Cells whose stored tier is ``"full"`` are recomputed by CI's ``golden-full``
job (``python -m tests.golden --check --tier full``), not here — except the
``@exact`` cells: their stored cost is the deleted seed solver's (5-93 s, so
tier ``"full"``) but they take well under a second each now, and they are
the only end-to-end run of the exact backend against the corpus.
"""

import copy

import pytest

from tests.golden import (
    EXACT_WORKLOADS,
    cell_specs,
    compute_cell,
    load_corpus,
    mismatch,
)

CORPUS = load_corpus()
CELLS = CORPUS["cells"]
SPECS = cell_specs()
DIGESTS = ("schedule_digest", "tiled_digest")


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
def test_exact_backend_cell_matches_golden(name):
    cell_id = f"{name}--plutoplus@exact"
    report = mismatch(cell_id, CELLS[cell_id], compute_cell(*SPECS[cell_id]))
    assert report is None, report


def test_exact_backend_cells_equal_default_backend_cells():
    """HiGHS and the exact simplex are independent solvers of the same
    lexmin; where both were frozen they froze the same schedule."""
    for name in EXACT_WORKLOADS:
        exact = CELLS[f"{name}--plutoplus@exact"]
        default = CELLS[f"{name}--plutoplus"]
        assert [exact[k] for k in DIGESTS] == [default[k] for k in DIGESTS], name


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
