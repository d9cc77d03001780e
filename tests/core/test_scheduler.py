"""Tests for the iterative Pluto / Pluto+ scheduler."""

import pytest

from repro.core import (
    PlutoScheduler,
    SchedulerOptions,
    mark_parallelism,
)
from repro.deps import DependenceGraph, compute_dependences
from repro.frontend import parse_program


def schedule_src(src, algo="plutoplus", params=("N",), param_min=3, **kw):
    p = parse_program(src, "p", params=params, param_min=param_min)
    ddg = DependenceGraph(p, compute_dependences(p))
    sch = PlutoScheduler(p, ddg, SchedulerOptions(algorithm=algo, **kw))
    s = sch.schedule()
    mark_parallelism(s, ddg)
    return p, sch, s


FIG1 = """
for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
        A[i+1][j+1] = 2.0 * A[i][j];
"""

FIG2 = """
for (i = 0; i < N; i++)
    b[i] = 2.0 * a[i];
for (i = 0; i < N; i++)
    c[i] = 3.0 * b[N-1-i];
"""

JACOBI = """
for (t = 0; t < T; t++) {
    for (i = 1; i < N - 1; i++)
        B[i] = 0.33 * (A[i-1] + A[i] + A[i+1]);
    for (i = 1; i < N - 1; i++)
        A[i] = B[i];
}
"""


class TestBasicProperties:
    def test_full_rank_reached(self):
        for algo in ("pluto", "plutoplus"):
            _, _, s = schedule_src(FIG1, algo)
            assert s.rank["S0"] == 2

    def test_all_deps_satisfied(self):
        for algo in ("pluto", "plutoplus"):
            _, sch, s = schedule_src(FIG1, algo)
            assert not sch.order.unsatisfied()

    def test_band_is_permutable(self):
        _, _, s = schedule_src(FIG1, "plutoplus")
        assert s.bands and s.bands[0].width == 2

    def test_legality_of_all_rows(self):
        """Every loop row must have non-negative distance on every dep not
        yet strictly satisfied — verified exactly, post hoc."""
        p, sch, s = schedule_src(JACOBI, "plutoplus", params=("T", "N"), param_min=4)
        for d in sch.ddg.deps:
            remaining = d.polyhedron
            for row in s.rows:
                if row.kind != "loop":
                    continue
                expr = d.distance_expr(
                    row.expr_for(d.source), row.expr_for(d.target)
                )
                mn = remaining.min_of(expr)
                if mn is None:
                    break
                assert mn >= 0 or id(d) in sch.order.by_cut


class TestPlutoPlusFindsNegativeCoefficients:
    def test_fig1_outer_parallel(self):
        """Section 2.2: Pluto+ exposes a communication-free outer loop."""
        _, _, s = schedule_src(FIG1, "plutoplus")
        first = s.rows[0]
        coeffs = first.coeff_rows(s.program.statement("S0"))
        assert sorted(coeffs) == [-1, 1]  # +-(i - j)
        assert first.parallel

    def test_fig1_pluto_outer_not_parallel(self):
        """Without negative coefficients the outer loop carries the (1,1)
        dependence; only inner parallelism remains."""
        _, _, s = schedule_src(FIG1, "pluto")
        assert not s.rows[0].parallel

    def test_fig2_fused_with_reversal(self):
        """Section 2.1/Fig. 2: fuse + reverse -> outer parallel loop."""
        p, _, s = schedule_src(FIG2, "plutoplus")
        first = s.rows[0]
        c0 = first.coeff_rows(p.statement("S0"))[0]
        c1 = first.coeff_rows(p.statement("S1"))[0]
        assert c0 == -c1  # one of the two is reversed
        assert first.parallel

    def test_fig2_pluto_no_reversal(self):
        p, _, s = schedule_src(FIG2, "pluto")
        for row in s.rows:
            if row.kind != "loop":
                continue
            assert all(
                c >= 0
                for st_ in p.statements
                for c in row.coeff_rows(st_)
            )


class TestPlutoCoefficientSign:
    def test_pluto_never_negative(self):
        for src in (FIG1, FIG2, JACOBI):
            params = ("T", "N") if "t" in src.split("(")[1] else ("N",)
            p, _, s = schedule_src(src, "pluto", params=params, param_min=4)
            for row in s.rows:
                if row.kind != "loop":
                    continue
                for st_ in p.statements:
                    assert all(c >= 0 for c in row.coeff_rows(st_))

    def test_plutoplus_respects_bound(self):
        p, _, s = schedule_src(JACOBI, "plutoplus", params=("T", "N"), param_min=4, coeff_bound=4)
        for row in s.rows:
            if row.kind != "loop":
                continue
            for st_ in p.statements:
                assert all(abs(c) <= 4 for c in row.coeff_rows(st_))

    def test_csum_objective_keeps_coefficients_small(self):
        """Ablation A4 (Section 3.6): with the csum objective the loop rows'
        total |c| is no larger than with the lexmin tie-break alone."""

        def magnitude(csum):
            p, _, s = schedule_src(FIG1, "plutoplus", csum_objective=csum)
            return sum(
                abs(c)
                for row in s.rows if row.kind == "loop"
                for st_ in p.statements
                for c in row.coeff_rows(st_)
            )

        assert magnitude(True) <= magnitude(False)


class TestJacobiStructure:
    def test_time_skewed_band(self):
        p, _, s = schedule_src(JACOBI, "plutoplus", params=("T", "N"), param_min=4)
        assert s.bands[0].width == 2  # (t, 2t +- i) band: time-tilable
        row1 = s.rows[1]
        for st_ in p.statements:
            c = row1.coeff_rows(st_)
            assert abs(c[1]) == 1 and c[0] == 2  # skew factor 2 on t

    def test_beta_orders_statements(self):
        p, _, s = schedule_src(JACOBI, "plutoplus", params=("T", "N"), param_min=4)
        last = s.rows[-1]
        assert last.kind == "scalar"
        assert last.expr_for("S0").const_term < last.expr_for("S1").const_term


class TestFusionAndCuts:
    def test_independent_statements_get_distinct_positions(self):
        src = """
        for (i = 0; i < N; i++) A[i] = 1;
        for (i = 0; i < N; i++) B[i] = 2;
        """
        p, _, s = schedule_src(src)
        maps = {st_.name: s.map_for(st_) for st_ in p.statements}
        # they must not collide: at least one level differs structurally
        assert maps["S0"].exprs != maps["S1"].exprs or any(
            r.kind == "scalar" for r in s.rows
        )

    def test_pipeline_fusion(self):
        src = """
        for (i = 0; i < N; i++) B[i] = 2.0 * A[i];
        for (i = 0; i < N; i++) C[i] = 3.0 * B[i];
        """
        p, sch, s = schedule_src(src)
        # producer-consumer at the same i: fusable with a beta dimension
        assert not sch.order.unsatisfied()

    def test_scc_cut_produces_scalar_dim(self):
        # two dependent loop nests that cannot fuse into one band fully:
        src = """
        for (i = 0; i < N; i++)
            B[i] = 2.0 * A[N-1-i];
        for (i = 0; i < N; i++)
            A[i] = A[i] + B[i];
        """
        p, sch, s = schedule_src(src, "pluto")
        assert not sch.order.unsatisfied()


class TestOptionsValidation:
    def test_bad_algorithm(self):
        with pytest.raises(ValueError):
            SchedulerOptions(algorithm="feautrier")

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            SchedulerOptions(coeff_bound=0)

    def test_stats_populated(self):
        p = parse_program(FIG1, "p", params=("N",))
        ddg = DependenceGraph(p, compute_dependences(p))
        sch = PlutoScheduler(p, ddg, SchedulerOptions(algorithm="plutoplus"))
        sch.schedule()
        assert sch.stats.hyperplanes_found == 2
        assert sch.stats.ilp_solves > 0


def test_farkas_rows_once_per_dependence_graph(monkeypatch):
    """Under ``pluto`` heat-2dp's diamond attempt fails and the fallback
    scheduler runs over the same graph: each dependence's Farkas rows are
    computed once between them (twice until 1.37.0), and the schedule is
    the golden corpus's."""
    import repro.core.scheduler as scheduler_module
    import repro.pipeline as pipeline_module
    from tests.golden import cell_specs, load_corpus, summarize

    calls, graphs = [], []
    legality = scheduler_module.legality_constraints
    monkeypatch.setattr(
        scheduler_module, "legality_constraints",
        lambda dep: calls.append(id(dep)) or legality(dep),
    )

    class RecordedGraph(DependenceGraph):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            graphs.append(self)

    monkeypatch.setattr(pipeline_module, "DependenceGraph", RecordedGraph)
    workload, options = cell_specs()["heat-2dp--pluto"]
    result = pipeline_module.optimize(workload, options)
    (ddg,) = graphs
    assert not result.used_diamond
    assert len(calls) == len(set(calls)) == len(ddg.deps)
    golden = load_corpus()["cells"]["heat-2dp--pluto"]
    assert summarize(result) == {k: golden[k] for k in summarize(result)}
