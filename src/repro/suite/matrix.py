"""The run matrix: workloads × option variants.

A :class:`RunSpec` is one cell of the paper's evaluation tables — a
registered workload paired with a fully-resolved
:class:`~repro.pipeline.PipelineOptions`.  Specs are plain data (workload
*name* plus an options dict), so they cross process boundaries and land in
manifests verbatim; the worker re-resolves the workload from the registry
on its side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Iterable, Optional, Sequence

from repro.pipeline import PipelineOptions

__all__ = ["VARIANTS", "RunSpec", "build_matrix"]

#: Named option variants, applied on top of each workload's paper flags
#: (``--iss --partlbtile`` for the periodic suite).  The default suite runs
#: ``plutoplus`` only; ``repro suite --variants plutoplus,pluto`` reproduces
#: the paper's side-by-side columns.
VARIANTS: dict[str, dict] = {
    "plutoplus": {"algorithm": "plutoplus"},
    "pluto": {"algorithm": "pluto"},
    "notile": {"algorithm": "plutoplus", "tile": False},
    "l2tile": {"algorithm": "plutoplus", "l2tile": True},
    "quick": {"algorithm": "plutoplus", "scheduler": "quick"},
    "auto": {"algorithm": "plutoplus", "scheduler": "auto"},
    # RAR reuse as a locality objective (exact scheduler only; legality
    # and thus the result's correctness story are unchanged).
    "rar": {"algorithm": "plutoplus", "rar": True},
    # Relax commutative-associative reductions and discharge them with
    # reduction clauses / privatized partial sums at emission.
    "redpar": {"algorithm": "plutoplus", "parallel_reductions": "omp"},
}


@dataclass(kw_only=True)
class RunSpec:
    """One suite run: a workload under one options variant."""

    run_id: str
    workload: str
    variant: str
    options: PipelineOptions

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "workload": self.workload,
            "variant": self.variant,
            "options": self.options.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        return cls(
            run_id=data["run_id"],
            workload=data["workload"],
            variant=data["variant"],
            options=PipelineOptions.from_dict(data["options"]),
        )


def _matches(name: str, run_id: str, patterns: Sequence[str]) -> bool:
    return any(fnmatch(name, p) or fnmatch(run_id, p) for p in patterns)


def build_matrix(
    category: Optional[str] = "periodic",
    variants: Iterable[str] = ("plutoplus",),
    filters: Sequence[str] = (),
) -> list[RunSpec]:
    """Expand the registered workloads into run specs.

    ``category`` selects a workload category (``None``/``"all"`` for every
    registered workload); ``variants`` names entries of :data:`VARIANTS`;
    ``filters`` are fnmatch globs matched against the workload name or the
    ``workload--variant`` run id (any match keeps the spec).
    """
    from repro.workloads import all_workloads

    if category in (None, "all"):
        workloads = all_workloads()
    else:
        workloads = all_workloads(category)
        if not workloads:
            raise ValueError(f"no workloads in category {category!r}")

    specs: list[RunSpec] = []
    for vname in variants:
        try:
            overrides = VARIANTS[vname]
        except KeyError:
            raise ValueError(
                f"unknown variant {vname!r}; known: {sorted(VARIANTS)}"
            ) from None
        for w in workloads:
            run_id = f"{w.name}--{vname}"
            if filters and not _matches(w.name, run_id, filters):
                continue
            algorithm = overrides.get("algorithm", "plutoplus")
            extra = {k: v for k, v in overrides.items() if k != "algorithm"}
            specs.append(
                RunSpec(
                    run_id=run_id,
                    workload=w.name,
                    variant=vname,
                    options=w.pipeline_options(algorithm, **extra),
                )
            )
    return specs
