"""On-disk suite manifests: ``<root>/<suite-id>/manifest.json`` + records.

Layout::

    runs/suite-20260806-121314-1234/
        manifest.json          # matrix, config, per-run status index
        heat-1dp--plutoplus.json   # one record per completed run

``manifest.json`` schema (``MANIFEST_VERSION`` 2)::

    {
      "version": 2,
      "suite_id": "...",
      "created": "2026-08-06T12:13:14",
      "config": {"jobs": ..., "timeout": ..., "retries": ...,
                 "exec": ExecutionOptions.as_dict() (where kernels run)},
      "specs": [RunSpec.to_dict(), ...],
      "runs": {
        "<run_id>": {"status": "ok"|"failure", "file": "<run_id>.json",
                      "attempts": N, "elapsed": S}
      }
    }

Per-run records carry ``status`` plus, for ``ok``, the schedule export
(:meth:`Schedule.to_dict`), schedule properties, the per-stage timing
breakdown, and SolveStats/DepStats; for ``failure``, the structured
:class:`~repro.suite.failures.RunFailure`.  The manifest is rewritten
atomically (tmp + rename) after every run, so a killed suite resumes from
exactly what finished.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional

from repro.store import atomic_write_text
from repro.suite.matrix import RunSpec

__all__ = ["MANIFEST_VERSION", "SuiteManifest"]

#: bumped whenever the manifest's or a record's shape changes; :meth:`load`
#: reads this version only.  2: every options dict holds every
#: ``PipelineOptions`` field and nothing else, every stats record every
#: counter, and ``schedule_properties`` always names ``rar``,
#: ``parallel_reductions`` and ``reduction_levels``.
MANIFEST_VERSION = 2


class SuiteManifest:
    """One suite directory: the status index plus per-run record files."""

    def __init__(self, suite_dir: Path, data: dict):
        self.suite_dir = Path(suite_dir)
        self.data = data

    # -- creation / loading ------------------------------------------------

    @classmethod
    def create(
        cls,
        root: Path,
        specs: list[RunSpec],
        config: dict,
        suite_id: Optional[str] = None,
    ) -> "SuiteManifest":
        suite_id = suite_id or time.strftime(
            f"suite-%Y%m%d-%H%M%S-{os.getpid()}"
        )
        suite_dir = Path(root) / suite_id
        suite_dir.mkdir(parents=True, exist_ok=False)
        data = {
            "version": MANIFEST_VERSION,
            "suite_id": suite_id,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "config": dict(config),
            "specs": [s.to_dict() for s in specs],
            "runs": {},
        }
        manifest = cls(suite_dir, data)
        manifest.flush()
        return manifest

    @classmethod
    def load(cls, suite_dir: Path) -> "SuiteManifest":
        suite_dir = Path(suite_dir)
        data = json.loads((suite_dir / "manifest.json").read_text())
        version = data.get("version")
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"manifest version {version} unsupported "
                f"(this build reads v{MANIFEST_VERSION})"
            )
        return cls(suite_dir, data)

    # -- accessors ---------------------------------------------------------

    @property
    def path(self) -> Path:
        return self.suite_dir / "manifest.json"

    @property
    def specs(self) -> list[RunSpec]:
        return [RunSpec.from_dict(d) for d in self.data["specs"]]

    def record_path(self, run_id: str) -> Path:
        return self.suite_dir / f"{run_id}.json"

    def load_record(self, run_id: str) -> dict:
        return json.loads(self.record_path(run_id).read_text())

    def completed_ok(self) -> set[str]:
        """Run ids recorded as ok whose record file still exists.

        ``--resume`` skips exactly these; failures are re-attempted."""
        return {
            run_id
            for run_id, entry in self.data["runs"].items()
            if entry.get("status") == "ok"
            and self.record_path(run_id).is_file()
        }

    def failures(self) -> list[dict]:
        out = []
        for run_id, entry in self.data["runs"].items():
            if entry.get("status") == "failure":
                rec = self.load_record(run_id)
                out.append(rec["failure"])
        return out

    # -- mutation ----------------------------------------------------------

    def write_record(self, record: dict) -> None:
        """Persist one run record and index it; atomic at every step."""
        run_id = record["run_id"]
        atomic_write_text(
            self.record_path(run_id), json.dumps(record, indent=1)
        )
        self.data["runs"][run_id] = {
            "status": record["status"],
            "file": f"{run_id}.json",
            "attempts": record["attempts"],
            "elapsed": record["elapsed"],
        }
        self.flush()

    def flush(self) -> None:
        atomic_write_text(self.path, json.dumps(self.data, indent=1))
