"""Tests for the workload registry and model structure."""

import pytest

from repro.workloads import all_workloads, get_workload

PAPER_POLYBENCH = {
    "correlation", "covariance", "2mm", "3mm", "atax", "bicg", "cholesky",
    "doitgen", "gemm", "gemver", "gesummv", "mvt", "symm", "syr2k", "syrk",
    "trisolv", "durbin", "dynprog", "gramschmidt", "lu", "ludcmp",
    "floyd-warshall", "fdtd-2d", "fdtd-apml", "jacobi-1d-imper",
    "jacobi-2d-imper", "seidel-2d",
}

PAPER_PERIODIC = {
    "heat-1dp", "heat-2dp", "heat-3dp",
    "lbm-ldc-d2q9", "lbm-ldc-d2q9-mrt", "lbm-fpc-d2q9", "lbm-poi-d2q9",
    "lbm-ldc-d3q27", "swim",
}


class TestRegistry:
    def test_all_27_polybench_present(self):
        names = {w.name for w in all_workloads("polybench")}
        assert names == PAPER_POLYBENCH
        assert len(names) == 27

    def test_excluded_kernels_absent(self):
        names = {w.name for w in all_workloads()}
        for excluded in ("trmm", "adi", "reg-detect"):
            assert excluded not in names

    def test_all_periodic_present(self):
        names = {w.name for w in all_workloads("periodic")}
        assert names == PAPER_PERIODIC

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_workload("nosuch")

    def test_periodic_flags(self):
        for w in all_workloads("periodic"):
            assert w.iss and w.diamond, w.name

    def test_polybench_has_no_iss(self):
        for w in all_workloads("polybench"):
            assert not w.iss and not w.diamond

    def test_table2_sizes(self):
        assert get_workload("heat-1dp").sizes == {"N": 1_600_000, "T": 1000}
        assert get_workload("heat-2dp").sizes == {"N": 16000, "T": 500}
        assert get_workload("heat-3dp").sizes == {"N": 300, "T": 200}
        assert get_workload("swim").sizes == {"N": 1335, "T": 800}
        assert get_workload("lbm-ldc-d2q9").sizes["T"] == 50000

    def test_pipeline_options_carry_flags(self):
        w = get_workload("heat-1dp")
        opts = w.pipeline_options("plutoplus")
        assert opts.iss and opts.diamond and opts.algorithm == "plutoplus"
        opts2 = w.pipeline_options("pluto", diamond=False)
        assert not opts2.diamond


class TestModelStructure:
    def test_programs_build_and_have_accesses(self):
        for w in all_workloads():
            p = w.program()
            assert len(p) >= 1, w.name
            for s in p.statements:
                assert s.writes, f"{w.name}/{s.name} has no writes"

    def test_small_sizes_cover_params(self):
        for w in all_workloads():
            p = w.program()
            missing = set(p.params) - set(w.small_sizes)
            assert not missing, f"{w.name} missing small sizes {missing}"

    def test_swim_statement_count(self):
        assert len(get_workload("swim").program()) == 13

    def test_lbm_models_are_periodic(self):
        from repro.core import needs_iss
        from repro.deps import compute_dependences

        w = get_workload("lbm-ldc-d2q9")
        assert needs_iss(compute_dependences(w.program()))

    def test_heat_models_run_against_reference(self):
        """The polyhedral heat model (original order) matches the numpy app."""
        import numpy as np

        from tests.apps import run_heat
        from repro.codegen import generate_python, original_schedule
        from repro.runtime import random_arrays

        w = get_workload("heat-1dp")
        p = w.program()
        params = {"N": 10, "T": 4}
        arrays = random_arrays(p, params, seed=5)
        init = arrays["A"][0].copy()
        generate_python(original_schedule(p)).run(arrays, params)
        expected = run_heat(init, 4)
        assert np.allclose(arrays["A"][4], expected)

    def test_heat2d_model_matches_reference(self):
        import numpy as np

        from tests.apps import run_heat
        from repro.codegen import generate_python, original_schedule
        from repro.runtime import random_arrays

        w = get_workload("heat-2dp")
        p = w.program()
        params = {"N": 6, "T": 3}
        arrays = random_arrays(p, params, seed=5)
        init = arrays["A"][0].copy()
        generate_python(original_schedule(p)).run(arrays, params)
        assert np.allclose(arrays["A"][3], run_heat(init, 3))
