"""RAR relations: locality signal only, never a legality constraint."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps import DependenceGraph, compute_dependences
from repro.deps.analysis import DepStats
from repro.deps.rar import compute_rar_dependences
from repro.frontend import parse_program
from repro.pipeline import PipelineOptions, optimize
from repro.workloads import get_workload

SHARED_READ = """
for (i = 0; i < N; i++)
    B[i] = 2.0 * A[i];
for (i = 0; i < N; i++)
    C[i] = 3.0 * A[N-1-i];
"""


class TestComputeRar:
    def test_kind_and_array(self):
        p = parse_program(SHARED_READ, "p", params=("N",))
        rars = compute_rar_dependences(p)
        assert rars and all(d.kind == "rar" for d in rars)
        assert {d.array for d in rars} == {"A"}

    def test_stats_counter(self):
        p = parse_program(SHARED_READ, "p", params=("N",))
        stats = DepStats()
        rars = compute_rar_dependences(p, stats)
        assert stats.rar_deps == len(rars)
        assert stats.as_dict()["rar_deps"] == len(rars)

    def test_no_shared_reads_no_rars(self):
        p = parse_program(
            "for (i = 0; i < N; i++) B[i] = 2.0 * A[i];", "p", params=("N",)
        )
        # A is read twice only across iterations of the same access — those
        # pairs exist; what cannot happen is a RAR on an unread array
        rars = compute_rar_dependences(p)
        assert all(d.array == "A" for d in rars)

    def test_rars_never_reach_the_ddg(self):
        p = parse_program(SHARED_READ, "p", params=("N",))
        deps = compute_dependences(p)
        assert all(d.kind in ("raw", "war", "waw") for d in deps)
        ddg = DependenceGraph(p, deps)
        assert all(d.kind != "rar" for d in ddg.deps)


_SRCS = {
    "skew": """
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            A[i+1][j+1] = 2.0 * A[i][j];
    """,
    "shared-read": SHARED_READ,
    "jacobi": """
    for (t = 0; t < T; t++)
        for (i = 1; i < N-1; i++)
            A[t+1][i] = 0.3 * (A[t][i-1] + A[t][i] + A[t][i+1]);
    """,
    "gemm": """
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            for (k = 0; k < N; k++)
                C[i][j] = C[i][j] + A[i][k] * B[k][j];
    """,
}


def _params_of(src):
    return ("T", "N") if "T" in src else ("N",)


class TestRarLegality:
    """Enabling rar steers the objective; it can never change legality."""

    @settings(max_examples=8, deadline=None)
    @given(name=st.sampled_from(sorted(_SRCS)), tile=st.booleans())
    def test_schedule_stays_legal_and_deps_satisfied(self, name, tile):
        from repro.core.verify import verify_schedule

        src = _SRCS[name]
        params = _params_of(src)
        p = parse_program(src, name, params=params, param_min=3)
        opts = PipelineOptions(
            algorithm="plutoplus",
            tile=tile,
            tile_size=4,
            rar=True,
        )
        result = optimize(p, opts)
        ddg = DependenceGraph(
            result.program, compute_dependences(result.program)
        )
        report = verify_schedule(result.schedule, ddg)
        assert report.legal, report

    def test_legality_dep_set_identical_with_and_without(self):
        p = parse_program(_SRCS["gemm"], "g", params=("N",))
        without = optimize(p, PipelineOptions(algorithm="plutoplus"))
        withrar = optimize(p, PipelineOptions(algorithm="plutoplus", rar=True))
        # both runs saw the same legality dependences; rar only adds
        # bounding rows, which is visible in dep_stats
        assert withrar.dep_stats.rar_deps > 0
        assert without.dep_stats.as_dict()["rar_deps"] == 0
        assert without.schedule.depth == withrar.schedule.depth


class TestDefaultByteIdentity:
    """All-defaults schedules serialize as they did before the RAR and
    reduction knobs existed; options and stats name the knobs' defaults."""

    def test_default_schedules_unchanged_and_options_complete(self):
        w = get_workload("gemm")
        result = optimize(w.program(), w.pipeline_options("plutoplus"))
        opts_d = result.options.as_dict()
        assert (opts_d["rar"], opts_d["parallel_reductions"]) == (False, "off")
        for row in result.schedule.to_dict()["rows"]:
            assert "reduction" not in row
        for row in result.tiled.to_dict()["rows"]:
            assert "reduction" not in row
        stats_d = result.scheduler_stats.as_dict()
        assert (stats_d["reductions_detected"], stats_d["reductions_relaxed"]) == (0, 0)
