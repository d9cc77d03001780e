"""Lattice Boltzmann Method benchmarks (Table 2; Fig. 6 d-h).

The *compiler's view* of an LBM time step is a periodic stencil: every site
update reads neighbor distributions (pull scheme) and writes the site's own.
The polyhedral models here use a single time-expanded logical array with one
read per distinct *dependence direction* (the runnable physics, D2Q9 and
D3Q27, is a test-side oracle under ``tests/apps/``).

Dependence-cone reductions (sound, see DESIGN.md): for d3q27 the 12 edge
directions ``(1, ±1, ±1, 0)…`` are omitted because each is a convex
combination of corner and face directions already present — any schedule
legal (and bounded) for those is legal for the edges.

The four d2q9 applications (lid-driven cavity, its MRT variant, flow past
cylinder, Poiseuille flow) share one dependence structure; they differ in
boundary handling and per-site work, which the compiler does not observe —
hence one model, registered under each application's name and Table 2
size.
"""

from __future__ import annotations

from repro.frontend import Access, ProgramBuilder
from repro.polyhedra import AffExpr, AffineMap
from repro.workloads.base import Workload, register
from repro.workloads.periodic_util import periodic_reads

__all__ = ["lbm_d2q9_model", "lbm_d3q27_model", "LBM_WORKLOADS"]

# d2q9: rest + 4 axis + 4 diagonal directions.
_D2Q9_SHIFTS = [
    (0, 0),
    (1, 0), (-1, 0), (0, 1), (0, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
]

# d3q27 reduced to its dependence-cone generators: rest + 6 faces + 8 corners.
_D3Q27_SHIFTS = (
    [(0, 0, 0)]
    + [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    + [(si, sj, sk) for si in (1, -1) for sj in (1, -1) for sk in (1, -1)]
)


def lbm_d2q9_model(name: str = "lbm-d2q9"):
    """One stream-collide update per site on a periodic 2-d grid."""
    b = ProgramBuilder(name, params=("T", "NX", "NY"), param_min=4)
    with b.loop("t", 0, "T-1"):
        with b.loop("i", 0, "NX-1"):
            with b.loop("j", 0, "NY-1"):
                sp = b.program.space_for(["t", "i", "j"])
                t = AffExpr.var(sp, "t")
                i = AffExpr.var(sp, "i")
                j = AffExpr.var(sp, "j")
                reads = []
                for si, sj in _D2Q9_SHIFTS:
                    reads += periodic_reads(
                        sp, "F", t, {"i": si, "j": sj}, {"i": "NX", "j": "NY"}
                    )
                b.stmt(
                    "F[t+1][i][j] = collide(F[t][i..][j..])",
                    body_py=(
                        "F[t+1, i, j] = 0.2*F[t, i, j] + 0.1*("
                        "F[t, (i+1) % NX, j] + F[t, (i-1) % NX, j] + "
                        "F[t, i, (j+1) % NY] + F[t, i, (j-1) % NY]) + 0.1*("
                        "F[t, (i+1) % NX, (j+1) % NY] + F[t, (i+1) % NX, (j-1) % NY] + "
                        "F[t, (i-1) % NX, (j+1) % NY] + F[t, (i-1) % NX, (j-1) % NY])"
                    ),
                    writes=[Access("F", AffineMap(sp, [t + 1, i, j]))],
                    reads=reads,
                )
    return b.build()


def lbm_d3q27_model(name: str = "lbm-ldc-d3q27"):
    """One stream-collide update per site on a periodic 3-d grid."""
    b = ProgramBuilder(name, params=("T", "N"), param_min=4)
    with b.loop("t", 0, "T-1"):
        with b.loop("i", 0, "N-1"):
            with b.loop("j", 0, "N-1"):
                with b.loop("k", 0, "N-1"):
                    sp = b.program.space_for(["t", "i", "j", "k"])
                    t = AffExpr.var(sp, "t")
                    i = AffExpr.var(sp, "i")
                    j = AffExpr.var(sp, "j")
                    k = AffExpr.var(sp, "k")
                    reads = []
                    for si, sj, sk in _D3Q27_SHIFTS:
                        reads += periodic_reads(
                            sp, "F", t,
                            {"i": si, "j": sj, "k": sk},
                            {"i": "N", "j": "N", "k": "N"},
                        )
                    b.stmt(
                        "F[t+1][i][j][k] = collide(F[t][i..][j..][k..])",
                        body_py=(
                            "F[t+1, i, j, k] = 0.3*F[t, i, j, k] + 0.05*("
                            "F[t, (i+1) % N, j, k] + F[t, (i-1) % N, j, k] + "
                            "F[t, i, (j+1) % N, k] + F[t, i, (j-1) % N, k] + "
                            "F[t, i, j, (k+1) % N] + F[t, i, j, (k-1) % N]) + 0.05*("
                            "F[t, (i+1) % N, (j+1) % N, (k+1) % N] + "
                            "F[t, (i+1) % N, (j+1) % N, (k-1) % N] + "
                            "F[t, (i+1) % N, (j-1) % N, (k+1) % N] + "
                            "F[t, (i+1) % N, (j-1) % N, (k-1) % N] + "
                            "F[t, (i-1) % N, (j+1) % N, (k+1) % N] + "
                            "F[t, (i-1) % N, (j+1) % N, (k-1) % N] + "
                            "F[t, (i-1) % N, (j-1) % N, (k+1) % N] + "
                            "F[t, (i-1) % N, (j-1) % N, (k-1) % N])"
                        ),
                        writes=[Access("F", AffineMap(sp, [t + 1, i, j, k]))],
                        reads=reads,
                    )
    return b.build()


LBM_WORKLOADS = [
    register(
        Workload(
            name="lbm-ldc-d2q9",
            category="periodic",
            factory=lambda: lbm_d2q9_model("lbm-ldc-d2q9"),
            sizes={"NX": 1024, "NY": 1024, "T": 50000},
            small_sizes={"NX": 6, "NY": 6, "T": 3},
            iss=True,
            diamond=True,
            notes="lid-driven cavity flow [8]",
        )
    ),
    register(
        Workload(
            name="lbm-ldc-d2q9-mrt",
            category="periodic",
            factory=lambda: lbm_d2q9_model("lbm-ldc-d2q9-mrt"),
            sizes={"NX": 1024, "NY": 1024, "T": 20000},
            small_sizes={"NX": 6, "NY": 6, "T": 3},
            iss=True,
            diamond=True,
            notes="lid-driven cavity, MRT collision (higher operational intensity)",
        )
    ),
    register(
        Workload(
            name="lbm-fpc-d2q9",
            category="periodic",
            factory=lambda: lbm_d2q9_model("lbm-fpc-d2q9"),
            sizes={"NX": 1024, "NY": 256, "T": 40000},
            small_sizes={"NX": 6, "NY": 5, "T": 3},
            iss=True,
            diamond=True,
            notes="flow past cylinder",
        )
    ),
    register(
        Workload(
            name="lbm-poi-d2q9",
            category="periodic",
            factory=lambda: lbm_d2q9_model("lbm-poi-d2q9"),
            sizes={"NX": 1024, "NY": 256, "T": 40000},
            small_sizes={"NX": 6, "NY": 5, "T": 3},
            iss=True,
            diamond=True,
            notes="Poiseuille flow [43]",
        )
    ),
    register(
        Workload(
            name="lbm-ldc-d3q27",
            category="periodic",
            factory=lambda: lbm_d3q27_model(),
            sizes={"N": 256, "T": 300},
            small_sizes={"N": 5, "T": 3},
            iss=True,
            diamond=True,
            notes="3-d lid-driven cavity; NUMA effects dominate at high core counts",
        )
    ),
]
