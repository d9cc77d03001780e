"""Table formatting for the suite report and the CLI's stats blocks.

Small, dependency-free helpers that render the paper's tables as monospace
text: aligned tables with geometric-mean footers (Table 3) and normalized
stacked fractions (Fig. 5).  Kept separate from their callers so the
formatting is unit-testable.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

__all__ = [
    "geomean",
    "format_table",
    "format_stats",
    "format_suite_report",
    "normalized_breakdown",
]


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of the positive entries (0.0 if none)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    floatfmt: str = "{:.3f}",
    indent: str = "  ",
) -> str:
    """Render an aligned monospace table."""

    def cell(v) -> str:
        if isinstance(v, float):
            return floatfmt.format(v)
        return str(v)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in text_rows)) if text_rows else len(h)
        for i, h in enumerate(headers)
    ]
    out = [indent + "  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in text_rows:
        out.append(indent + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def format_stats(stats: Mapping[str, float], indent: str = "  ") -> str:
    """Render a counters record (any ``as_dict()`` of scalars, e.g.
    ``SolveStats``, ``DepStats``) as an aligned block.

    Seconds are printed with millisecond precision, counters as integers;
    zero-valued counters are kept so runs are comparable line-by-line.
    """
    rows = []
    for key, value in stats.items():
        if isinstance(value, float) and not float(value).is_integer():
            shown = f"{value:.3f}"
        elif isinstance(value, float):
            shown = f"{value:.3f}" if key.endswith("seconds") else str(int(value))
        else:
            shown = str(value)
        rows.append((key, shown))
    width = max(len(k) for k, _ in rows) if rows else 0
    return "\n".join(f"{indent}{k.ljust(width)}  {v}" for k, v in rows)


_SUITE_STAGES = (
    ("dependence_analysis", "deps"),
    ("auto_transformation", "transform"),
    ("code_generation", "codegen"),
    ("misc", "misc"),
)


def format_suite_report(records: Sequence[Mapping], wall_seconds: Optional[float] = None) -> str:
    """Render suite run records as the paper-style report.

    Two tables over the successful runs — the per-stage time breakdown
    (Table 3 / Fig. 5: absolute seconds plus the fraction of total spent in
    automatic transformation) and the schedule-properties summary — followed
    by a failures section when any run degraded to a ``RunFailure``.
    """
    ok = [r for r in records if r.get("status") == "ok"]
    failed = [r for r in records if r.get("status") == "failure"]
    blocks: list[str] = []

    if ok:
        time_rows = []
        for r in ok:
            t = r["timing"]
            frac = normalized_breakdown(
                {k: t[k] for k, _ in _SUITE_STAGES}
            )["auto_transformation"]
            time_rows.append(
                [r["run_id"]]
                + [t[k] for k, _ in _SUITE_STAGES]
                + [t["total"], f"{100 * frac:.0f}%"]
            )
        time_rows.append(
            ["geomean"]
            + [geomean([r["timing"][k] for r in ok]) for k, _ in _SUITE_STAGES]
            + [geomean([r["timing"]["total"] for r in ok]), ""]
        )
        blocks.append("per-stage time (seconds):")
        blocks.append(
            format_table(
                ["run"] + [label for _, label in _SUITE_STAGES]
                + ["total", "transform%"],
                time_rows,
            )
        )

        prop_rows = []
        for r in ok:
            p = r["schedule_properties"]
            prop_rows.append([
                r["run_id"],
                p["depth"],
                len(p["bands"]),
                p["max_band_width"],
                ",".join(str(i) for i in p["parallel_levels"]) or "-",
                "yes" if p["concurrent_start"] else "no",
                "yes" if p["used_iss"] else "no",
                "yes" if p["used_diamond"] else "no",
                p.get("scheduler_path") or "-",  # pre-quick records lack it
                # PR-10 knobs: absent from older (and all-defaults) records
                "yes" if p.get("rar") else "-",
                (
                    ",".join(str(i) for i in p["reduction_levels"]) or "none"
                ) if p.get("parallel_reductions") else "-",
            ])
        blocks.append("")
        blocks.append("schedule properties:")
        blocks.append(
            format_table(
                ["run", "depth", "bands", "bandw", "par-levels",
                 "concur", "iss", "diamond", "sched", "rar", "redpar"],
                prop_rows,
            )
        )

    if failed:
        blocks.append("")
        blocks.append(f"failures ({len(failed)}):")
        for r in failed:
            f = r["failure"]
            blocks.append(
                f"  {f['run_id']}: {f['kind']} after {f['attempts']} "
                f"attempt(s), {f['elapsed']:.1f}s"
            )

    counts = f"{len(ok)} ok, {len(failed)} failed, {len(records)} total"
    tail = f"; wall {wall_seconds:.1f}s" if wall_seconds is not None else ""
    blocks.append("")
    blocks.append(f"suite: {counts}{tail}")
    return "\n".join(blocks)


def normalized_breakdown(parts: Mapping[str, float]) -> dict[str, float]:
    """Fractions of the total (all zeros if the total is zero)."""
    total = sum(parts.values())
    if total <= 0:
        return {k: 0.0 for k in parts}
    return {k: v / total for k, v in parts.items()}

