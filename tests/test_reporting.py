"""Tests for the report formatting helpers."""

import pytest

from repro.reporting import format_table, geomean, normalized_breakdown


class TestGeomean:
    def test_basic(self):
        assert geomean([2, 8]) == pytest.approx(4.0)

    def test_ignores_nonpositive(self):
        assert geomean([2, 8, 0, -3]) == pytest.approx(4.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_identity(self):
        assert geomean([1.15]) == pytest.approx(1.15)


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["name", "x"], [["a", 1.0], ["long-name", 12.5]])
        lines = text.splitlines()
        assert len(lines) == 3
        assert len(set(len(l) for l in lines)) == 1  # equal widths

    def test_float_formatting(self):
        text = format_table(["v"], [[1.23456]])
        assert "1.235" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestNormalizedBreakdown:
    def test_fractions_sum_to_one(self):
        out = normalized_breakdown({"a": 1.0, "b": 3.0})
        assert sum(out.values()) == pytest.approx(1.0)
        assert out["b"] == pytest.approx(0.75)

    def test_zero_total(self):
        assert normalized_breakdown({"a": 0.0}) == {"a": 0.0}


class TestSuiteReportColumns:
    """The PR-10 rar/redpar columns degrade to '-' on older records."""

    @staticmethod
    def _record(props_extra):
        return {
            "run_id": "w--v",
            "status": "ok",
            "timing": {
                "dependence_analysis": 0.1,
                "auto_transformation": 0.2,
                "code_generation": 0.1,
                "misc": 0.0,
                "total": 0.4,
            },
            "schedule_properties": {
                "depth": 2,
                "bands": ["b"],
                "max_band_width": 2,
                "parallel_levels": [0],
                "concurrent_start": False,
                "used_iss": False,
                "used_diamond": False,
                "scheduler_path": "exact",
                **props_extra,
            },
        }

    def test_old_record_renders_dashes(self):
        from repro.reporting import format_suite_report

        text = format_suite_report([self._record({})])
        assert "rar" in text and "redpar" in text
        row = next(l for l in text.splitlines() if "w--v" in l and "exact" in l)
        assert row.rstrip().endswith("-")

    def test_active_knobs_render(self):
        from repro.reporting import format_suite_report

        text = format_suite_report([
            self._record({
                "rar": True,
                "parallel_reductions": "omp",
                "reduction_levels": [0, 2],
            })
        ])
        row = next(l for l in text.splitlines() if "w--v" in l and "exact" in l)
        assert "yes" in row and "0,2" in row
