"""Heat equations with periodic boundary conditions (Pochoir suite; Table 2).

Jacobi-style heat updates on 1-d, 2-d, and 3-d periodic grids.  Problem
sizes follow Table 2 of the paper; the validation sizes are tiny.  These are
the benchmarks where Pluto+ composes ISS + reversal + shift + diamond tiling
(Fig. 4) while classic Pluto can only parallelize the space loops.
"""

from __future__ import annotations

from repro.frontend import Access, ProgramBuilder
from repro.polyhedra import AffExpr, AffineMap
from repro.workloads.base import Workload, register
from repro.workloads.periodic_util import periodic_reads

__all__ = ["heat_1dp", "heat_2dp", "heat_3dp", "PERIODIC_HEAT"]


def heat_1dp():
    b = ProgramBuilder("heat-1dp", params=("T", "N"), param_min=4)
    with b.loop("t", 0, "T-1"):
        with b.loop("i", 0, "N-1"):
            sp = b.program.space_for(["t", "i"])
            t = AffExpr.var(sp, "t")
            i = AffExpr.var(sp, "i")
            reads = []
            for s in (-1, 0, 1):
                reads += periodic_reads(sp, "A", t, {"i": s}, {"i": "N"})
            b.stmt(
                "A[t+1][i] = 0.125 * A[t][i+1] + 0.75 * A[t][i] + 0.125 * A[t][i-1]",
                body_py=(
                    "A[t+1, i] = 0.125 * A[t, (i+1) % N] + 0.75 * A[t, i] "
                    "+ 0.125 * A[t, (i-1) % N]"
                ),
                writes=[Access("A", AffineMap(sp, [t + 1, i]))],
                reads=reads,
            )
    return b.build()


def heat_2dp():
    b = ProgramBuilder("heat-2dp", params=("T", "N"), param_min=4)
    with b.loop("t", 0, "T-1"):
        with b.loop("i", 0, "N-1"):
            with b.loop("j", 0, "N-1"):
                sp = b.program.space_for(["t", "i", "j"])
                t = AffExpr.var(sp, "t")
                i = AffExpr.var(sp, "i")
                j = AffExpr.var(sp, "j")
                reads = []
                for si, sj in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
                    reads += periodic_reads(
                        sp, "A", t, {"i": si, "j": sj}, {"i": "N", "j": "N"}
                    )
                b.stmt(
                    "A[t+1][i][j] = 0.125*(A[t][i+1][j] + A[t][i-1][j] + "
                    "A[t][i][j+1] + A[t][i][j-1]) + 0.5*A[t][i][j]",
                    body_py=(
                        "A[t+1, i, j] = 0.125*(A[t, (i+1) % N, j] + A[t, (i-1) % N, j] "
                        "+ A[t, i, (j+1) % N] + A[t, i, (j-1) % N]) + 0.5*A[t, i, j]"
                    ),
                    writes=[Access("A", AffineMap(sp, [t + 1, i, j]))],
                    reads=reads,
                )
    return b.build()


def heat_3dp():
    b = ProgramBuilder("heat-3dp", params=("T", "N"), param_min=4)
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
                    for si, sj, sk in (
                        (0, 0, 0),
                        (1, 0, 0), (-1, 0, 0),
                        (0, 1, 0), (0, -1, 0),
                        (0, 0, 1), (0, 0, -1),
                    ):
                        reads += periodic_reads(
                            sp, "A", t,
                            {"i": si, "j": sj, "k": sk},
                            {"i": "N", "j": "N", "k": "N"},
                        )
                    b.stmt(
                        "A[t+1][i][j][k] = 0.1*(A[t][i+1][j][k] + A[t][i-1][j][k] "
                        "+ A[t][i][j+1][k] + A[t][i][j-1][k] + A[t][i][j][k+1] "
                        "+ A[t][i][j][k-1]) + 0.4*A[t][i][j][k]",
                        body_py=(
                            "A[t+1, i, j, k] = 0.1*(A[t, (i+1) % N, j, k] + A[t, (i-1) % N, j, k] "
                            "+ A[t, i, (j+1) % N, k] + A[t, i, (j-1) % N, k] "
                            "+ A[t, i, j, (k+1) % N] + A[t, i, j, (k-1) % N]) + 0.4*A[t, i, j, k]"
                        ),
                        writes=[Access("A", AffineMap(sp, [t + 1, i, j, k]))],
                        reads=reads,
                    )
    return b.build()


PERIODIC_HEAT = [
    register(
        Workload(
            name="heat-1dp",
            category="periodic",
            factory=heat_1dp,
            sizes={"N": 1_600_000, "T": 1000},            # Table 2
            small_sizes={"N": 12, "T": 6},
            iss=True,
            diamond=True,
        )
    ),
    register(
        Workload(
            name="heat-2dp",
            category="periodic",
            factory=heat_2dp,
            sizes={"N": 16000, "T": 500},                  # 16000^2 x 500
            small_sizes={"N": 8, "T": 4},
            iss=True,
            diamond=True,
        )
    ),
    register(
        Workload(
            name="heat-3dp",
            category="periodic",
            factory=heat_3dp,
            sizes={"N": 300, "T": 200},                    # 300^3 x 200
            small_sizes={"N": 6, "T": 3},
            iss=True,
            diamond=True,
        )
    ),
]
