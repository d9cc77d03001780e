"""Golden schedule corpus: the schedules this repo must keep producing.

``schedules.json`` holds, for every registered workload under each of
:data:`VARIANTS`, the ``Schedule.pretty()`` text and the sha256 digests of
``Schedule.to_dict()`` and ``TiledSchedule.to_dict()``.  It
replaces the ``REPRO_EXACT_LEGACY`` seed-reproduction switch: the file was
first written at the last commit that still had the switch, with the switch
on (each cell records its generating commit and the ``REPRO_*`` environment
it was computed under), so "no schedule drifted from the seed solver" is a
data comparison instead of a second solver kept alive in ``src/``.

``python -m tests.golden --check | --write`` is the one check/regen entry
point (``--digest`` prints the whole-result fingerprints of
:func:`digest_lines` instead: the byte-identity check of a change that must
move nothing); ``tests/golden/test_corpus.py`` asserts the tier-1 cells under the
ordinary ``pytest -x -q``.  A cell's tier is stored in the file (1 when the
cell cost at most :data:`TIER1_MAX_SECONDS` to generate, ``"full"``
otherwise) — never chosen at run time.

Regenerate only when a schedule is *meant* to change (a ``PIPELINE_VERSION``
or ``QUICK_SCHEDULER_VERSION`` bump) and review the pretty-schedule diff.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import time
from pathlib import Path
from typing import Optional

from repro.pipeline import OptimizationResult, PipelineOptions, optimize
from repro.polyhedra.cache import global_cache
from repro.suite.matrix import build_matrix
from repro.workloads import all_workloads, get_workload

CORPUS_PATH = Path(__file__).with_name("schedules.json")

#: suite variants (``repro.suite.matrix.VARIANTS``) frozen per workload
VARIANTS = ("plutoplus", "pluto", "quick", "auto", "rar", "redpar")

#: generation cost up to which a cell runs under the ordinary ``pytest``
TIER1_MAX_SECONDS = 1.0


def cell_specs() -> dict[str, tuple[str, PipelineOptions]]:
    """Every corpus cell: ``id -> (workload name, resolved options)``.

    Ids are the suite's run ids (``<workload>--<variant>``).
    """
    return {
        s.run_id: (s.workload, s.options)
        for s in build_matrix(category="all", variants=VARIANTS)
    }


def _digest(data: dict) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(result: OptimizationResult) -> dict:
    """The comparable part of a corpus entry."""
    return {
        "schedule_digest": _digest(result.schedule.to_dict()),
        "tiled_digest": _digest(result.tiled.to_dict()),
        "pretty": result.schedule.pretty().splitlines(),
    }


def compute_cell(workload: str, options: PipelineOptions) -> dict:
    """Run the pipeline for one cell: its cost plus :func:`summarize`."""
    t0 = time.perf_counter()
    result = optimize(workload, options=options)
    seconds = time.perf_counter() - t0
    return {"seconds": round(seconds, 3), **summarize(result)}


def load_corpus() -> dict:
    return json.loads(CORPUS_PATH.read_text())


def mismatch(cell_id: str, expected: dict, got: dict) -> Optional[str]:
    """``None`` when ``got`` matches the golden cell, else a report naming the
    workload/variant and carrying the pretty-schedule diff."""
    differing = [
        key for key in ("schedule_digest", "tiled_digest")
        if expected[key] != got[key]
    ]
    if not differing:
        return None
    workload, _, variant = cell_id.rpartition("--")
    diff = list(
        difflib.unified_diff(
            expected["pretty"], got["pretty"], "golden", "computed", lineterm=""
        )
    )
    if not diff:
        diff = ["(pretty schedules are identical; only the digest moved)"]
    return "\n".join(
        [
            f"golden schedule mismatch: workload {workload!r}, variant "
            f"{variant!r} ({', '.join(differing)} differ; golden cell written at "
            f"{expected.get('commit', '?')})"
        ]
        + diff
    )


#: what ``--digest`` runs beside the polybench category, under each of
#: :data:`DIGEST_SCHEDULERS`
DIGEST_EXTRA = ("heat-1dp", "heat-2dp", "fig1-skew")
DIGEST_SCHEDULERS = ("exact", "auto")


def _timeless(data):
    """``data`` without wall-clock values: every ``*seconds`` key, at any
    depth.  Counters stay."""
    if isinstance(data, dict):
        return {
            k: _timeless(v) for k, v in data.items() if not k.endswith("seconds")
        }
    if isinstance(data, list):
        return [_timeless(v) for v in data]
    return data


def result_digest(result: OptimizationResult) -> str:
    """sha256 of ``result.to_json()`` minus ``timing`` and every
    ``*seconds`` field: programs, schedules, emitted code, options and the
    solver / dependence counters."""
    payload = json.loads(result.to_json())
    del payload["timing"]
    return _digest(_timeless(payload))


def digest_lines():
    """One ``workload scheduler sha256`` line per request: the polybench
    kernels plus :data:`DIGEST_EXTRA`, each under every scheduler of
    :data:`DIGEST_SCHEDULERS`, the PolyCache cleared before each request so
    a line does not depend on the ones before it.  Counters and
    ``min_of`` order follow set iteration order: run under
    ``PYTHONHASHSEED=0`` (``python -m tests.golden --digest`` does)."""
    names = [w.name for w in all_workloads("polybench")] + list(DIGEST_EXTRA)
    for name in names:
        workload = get_workload(name)
        for scheduler in DIGEST_SCHEDULERS:
            global_cache().clear()
            result = optimize(
                workload.program(), workload.pipeline_options(scheduler=scheduler)
            )
            yield f"{name} {scheduler} {result_digest(result)}"
