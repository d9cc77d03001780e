"""Structured failure records for suite runs.

A run that crashes, hangs, or raises does not abort the suite — it becomes
a :class:`RunFailure` in the manifest, with enough context (kind, message,
attempt count, elapsed wall time) to triage without re-running.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["FAILURE_KINDS", "RunFailure"]

#: ``crash``   — the worker process died without reporting (signal, exit);
#: ``timeout`` — the run exceeded the per-run deadline and was killed;
#: ``error``   — the pipeline raised; the traceback is in ``message``.
FAILURE_KINDS = ("crash", "timeout", "error")


@dataclass(kw_only=True)
class RunFailure:
    run_id: str
    workload: str
    variant: str
    kind: str
    message: str = ""
    attempts: int = 1
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunFailure":
        return cls(**data)

    def __str__(self) -> str:
        head = self.message.strip().splitlines()
        detail = f": {head[-1]}" if head else ""
        return (
            f"{self.run_id}: {self.kind} after {self.attempts} attempt(s), "
            f"{self.elapsed:.1f}s{detail}"
        )
