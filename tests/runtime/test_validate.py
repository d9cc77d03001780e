"""The one output comparison behind validate_transformation and
backend_compat_check: bitwise unless the schedule reorders a reduction."""

import numpy as np
import pytest

from repro.pipeline import optimize
from repro.runtime import ValidationResult, validate_transformation
from repro.runtime.validate import _compare
from repro.workloads import get_workload


class _Writes:
    """A stand-in kernel that writes fixed values into its arrays."""

    backend = "python"

    def __init__(self, **values):
        self.values = values

    def run(self, arrays, params, threads=None):
        for name, value in self.values.items():
            arrays[name][...] = value


def _run(mode, ref, out):
    arrays = {"A": np.zeros(3)}
    return _compare(_Writes(A=ref), _Writes(A=out), mode, {"N": 3}, arrays)


ONE_ULP = np.nextafter(1000.0, np.inf)


class TestCompare:
    def test_one_ulp_is_a_bitwise_mismatch(self):
        report = _run("bitwise", [1.0, 1000.0, 2.0], [1.0, ONE_ULP, 2.0])
        assert not report and report.mismatched_arrays == ["A"]
        assert report.max_abs_diff == ONE_ULP - 1000.0 > 0

    def test_one_ulp_passes_under_tolerance(self):
        report = _run("tolerance", [1.0, 1000.0, 2.0], [1.0, ONE_ULP, 2.0])
        assert report.ok and report.mode == "tolerance"
        assert report.max_abs_diff == ONE_ULP - 1000.0

    def test_shared_nans_and_signed_zeros_pass_bitwise(self):
        report = _run("bitwise", [np.nan, 0.0, 5.0], [np.nan, -0.0, 5.0])
        assert report.ok and report.max_abs_diff == 0.0

    def test_a_nan_on_one_side_only_fails_both_contracts(self):
        for mode in ("bitwise", "tolerance"):
            report = _run(mode, [np.nan, 0.0, 5.0], [1.0, 0.0, 5.0])
            assert not report and report.max_abs_diff == np.inf

    def test_a_shared_nan_hides_no_difference(self):
        report = _run("tolerance", [np.nan, 1.0, np.inf], [np.nan, 1.0 + 1e-13, np.inf])
        assert report.ok and 0 < report.max_abs_diff < 1e-12

    def test_inputs_are_left_untouched(self):
        arrays = {"A": np.zeros(3)}
        _compare(_Writes(A=1.0), _Writes(A=1.0), "bitwise", {}, arrays)
        assert not arrays["A"].any()


def test_transformation_of_gemm_is_bitwise():
    w = get_workload("gemm")
    result = optimize(w.program(), w.pipeline_options("plutoplus"))
    report = validate_transformation(result.program, result.tiled, w.small_sizes)
    assert isinstance(report, ValidationResult)
    assert report.ok and report.mode == "bitwise" and report.checked
    assert report.max_abs_diff == 0.0


@pytest.mark.parametrize("name", ["dot", "l2norm"])
def test_reduction_schedule_picks_tolerance(name):
    w = get_workload(name)
    result = optimize(w.program(), w.pipeline_options(parallel_reductions="omp"))
    assert result.tiled.reduction_levels()
    report = validate_transformation(result.program, result.tiled, w.small_sizes)
    assert report.ok and report.mode == "tolerance"
