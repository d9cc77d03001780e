"""171.swim (SPECFP2000): shallow-water equations on a periodic 2-d grid.

Structurally faithful polyhedral model of the C translation the paper feeds
to pet — the three calc sweeps inlined into one time loop over a periodic
grid (Sadourny's scheme [33]): calc1 computes the fluxes/vorticity
(forward-shifted periodic reads), calc2 the new fields (backward-shifted
periodic reads), calc3 the time smoothing and copy-back — three separate grid sweeps
per time step, thirteen statements over ``(t, i, j)`` — the Pluto+ ILP for this model crosses the
large-model threshold and runs on the HiGHS backend, mirroring the paper's
swim-only switch to GLPK (219 variables there).
"""

from __future__ import annotations

from repro.frontend import Access, ProgramBuilder
from repro.polyhedra import AffExpr, AffineMap
from repro.workloads.base import Workload, register
from repro.workloads.periodic_util import periodic_reads

__all__ = ["swim_model", "SWIM"]


def swim_model():
    b = ProgramBuilder("swim", params=("T", "N"), param_min=4)
    ext = {"i": "N", "j": "N"}
    with b.loop("t", 0, "T-1"):
        sp = b.program.space_for(["t", "i", "j"])
        t = AffExpr.var(sp, "t")
        i = AffExpr.var(sp, "i")
        j = AffExpr.var(sp, "j")

        def wr(arr, time):
            return [Access(arr, AffineMap(sp, [time, i, j]))]

        def rd(arr, time, si=0, sj=0):
            return periodic_reads(sp, arr, time, {"i": si, "j": sj}, ext)

        ip = "(i+1) % N"
        jp = "(j+1) % N"
        im = "(i-1) % N"
        jm = "(j-1) % N"

        # ---- calc1: fluxes, vorticity, height (its own grid sweep) ----
        with b.loop("i", 0, "N-1"):
            with b.loop("j", 0, "N-1"):
                b.stmt(
                    "CU[i][j] = .5*(P[i+1][j]+P[i][j])*U[i][j]",
                    name="S_cu",
                    body_py=f"CU[t, i, j] = 0.5*(P[t, {ip}, j] + P[t, i, j]) * U[t, i, j]",
                    writes=wr("CU", t),
                    reads=rd("P", t, 1, 0) + rd("P", t) + rd("U", t),
                )
                b.stmt(
                    "CV[i][j] = .5*(P[i][j+1]+P[i][j])*V[i][j]",
                    name="S_cv",
                    body_py=f"CV[t, i, j] = 0.5*(P[t, i, {jp}] + P[t, i, j]) * V[t, i, j]",
                    writes=wr("CV", t),
                    reads=rd("P", t, 0, 1) + rd("P", t) + rd("V", t),
                )
                b.stmt(
                    "Z[i][j] = (fsdx*(V[i+1][j]-V[i][j]) - fsdy*(U[i][j+1]-U[i][j])) / Ptot",
                    name="S_z",
                    body_py=(
                        f"Z[t, i, j] = (0.0002*(V[t, {ip}, j] - V[t, i, j]) "
                        f"- 0.0002*(U[t, i, {jp}] - U[t, i, j])) "
                        f"/ (P[t, i, j] + P[t, {ip}, j] + P[t, i, {jp}] + P[t, {ip}, {jp}] + 1.0)"
                    ),
                    writes=wr("Z", t),
                    reads=(
                        rd("V", t, 1, 0) + rd("V", t) + rd("U", t, 0, 1) + rd("U", t)
                        + rd("P", t) + rd("P", t, 1, 0) + rd("P", t, 0, 1) + rd("P", t, 1, 1)
                    ),
                )
                b.stmt(
                    "H[i][j] = P[i][j] + .25*(U[i+1][j]*U[i+1][j] + ... )",
                    name="S_h",
                    body_py=(
                        f"H[t, i, j] = P[t, i, j] + 0.25*(U[t, {ip}, j]*U[t, {ip}, j] "
                        f"+ U[t, i, j]*U[t, i, j] + V[t, i, {jp}]*V[t, i, {jp}] "
                        f"+ V[t, i, j]*V[t, i, j])"
                    ),
                    writes=wr("H", t),
                    reads=(
                        rd("P", t) + rd("U", t, 1, 0) + rd("U", t)
                        + rd("V", t, 0, 1) + rd("V", t)
                    ),
                )

        # ---- calc2: new fields, after ALL of calc1 (separate sweep) ----
        with b.loop("i", 0, "N-1"):
            with b.loop("j", 0, "N-1"):
                b.stmt(
                    "UNEW[i][j] = UOLD[i][j] + tdts8*(Z[i][j-1]+Z[i][j])*(CV..) - tdtsdx*(H[i][j]-H[i-1][j])",
                    name="S_unew",
                    body_py=(
                        f"UNEW[t+1, i, j] = UOLD[t, i, j] "
                        f"+ 0.05*(Z[t, i, {jm}] + Z[t, i, j]) * (CV[t, i, j] + CV[t, {im}, j]) "
                        f"- 0.1*(H[t, i, j] - H[t, {im}, j])"
                    ),
                    writes=wr("UNEW", t + 1),
                    reads=(
                        rd("UOLD", t) + rd("Z", t, 0, -1) + rd("Z", t)
                        + rd("CV", t) + rd("CV", t, -1, 0)
                        + rd("H", t) + rd("H", t, -1, 0)
                    ),
                )
                b.stmt(
                    "VNEW[i][j] = VOLD[i][j] - tdts8*(Z[i-1][j]+Z[i][j])*(CU..) - tdtsdy*(H[i][j]-H[i][j-1])",
                    name="S_vnew",
                    body_py=(
                        f"VNEW[t+1, i, j] = VOLD[t, i, j] "
                        f"- 0.05*(Z[t, {im}, j] + Z[t, i, j]) * (CU[t, i, j] + CU[t, i, {jm}]) "
                        f"- 0.1*(H[t, i, j] - H[t, i, {jm}])"
                    ),
                    writes=wr("VNEW", t + 1),
                    reads=(
                        rd("VOLD", t) + rd("Z", t, -1, 0) + rd("Z", t)
                        + rd("CU", t) + rd("CU", t, 0, -1)
                        + rd("H", t) + rd("H", t, 0, -1)
                    ),
                )
                b.stmt(
                    "PNEW[i][j] = POLD[i][j] - tdtsdx*(CU[i][j]-CU[i-1][j]) - tdtsdy*(CV[i][j]-CV[i][j-1])",
                    name="S_pnew",
                    body_py=(
                        f"PNEW[t+1, i, j] = POLD[t, i, j] "
                        f"- 0.1*(CU[t, i, j] - CU[t, {im}, j]) "
                        f"- 0.1*(CV[t, i, j] - CV[t, i, {jm}])"
                    ),
                    writes=wr("PNEW", t + 1),
                    reads=(
                        rd("POLD", t) + rd("CU", t) + rd("CU", t, -1, 0)
                        + rd("CV", t) + rd("CV", t, 0, -1)
                    ),
                )

        # ---- calc3: time smoothing and copy-back (separate sweep) ----
        with b.loop("i", 0, "N-1"):
            with b.loop("j", 0, "N-1"):
                b.stmt(
                    "UOLD[i][j] = U[i][j] + alpha*(UNEW[i][j] - 2*U[i][j] + UOLD[i][j])",
                    name="S_uold",
                    body_py=(
                        "UOLD[t+1, i, j] = U[t, i, j] + 0.001*(UNEW[t+1, i, j] "
                        "- 2.0*U[t, i, j] + UOLD[t, i, j])"
                    ),
                    writes=wr("UOLD", t + 1),
                    reads=rd("U", t) + rd("UNEW", t + 1) + rd("UOLD", t),
                )
                b.stmt(
                    "VOLD[i][j] = V[i][j] + alpha*(VNEW[i][j] - 2*V[i][j] + VOLD[i][j])",
                    name="S_vold",
                    body_py=(
                        "VOLD[t+1, i, j] = V[t, i, j] + 0.001*(VNEW[t+1, i, j] "
                        "- 2.0*V[t, i, j] + VOLD[t, i, j])"
                    ),
                    writes=wr("VOLD", t + 1),
                    reads=rd("V", t) + rd("VNEW", t + 1) + rd("VOLD", t),
                )
                b.stmt(
                    "POLD[i][j] = P[i][j] + alpha*(PNEW[i][j] - 2*P[i][j] + POLD[i][j])",
                    name="S_pold",
                    body_py=(
                        "POLD[t+1, i, j] = P[t, i, j] + 0.001*(PNEW[t+1, i, j] "
                        "- 2.0*P[t, i, j] + POLD[t, i, j])"
                    ),
                    writes=wr("POLD", t + 1),
                    reads=rd("P", t) + rd("PNEW", t + 1) + rd("POLD", t),
                )
                b.stmt(
                    "U[i][j] = UNEW[i][j]",
                    name="S_u",
                    body_py="U[t+1, i, j] = UNEW[t+1, i, j]",
                    writes=wr("U", t + 1),
                    reads=rd("UNEW", t + 1),
                )
                b.stmt(
                    "V[i][j] = VNEW[i][j]",
                    name="S_v",
                    body_py="V[t+1, i, j] = VNEW[t+1, i, j]",
                    writes=wr("V", t + 1),
                    reads=rd("VNEW", t + 1),
                )
                b.stmt(
                    "P[i][j] = PNEW[i][j]",
                    name="S_p",
                    body_py="P[t+1, i, j] = PNEW[t+1, i, j]",
                    writes=wr("P", t + 1),
                    reads=rd("PNEW", t + 1),
                )
    return b.build()


SWIM = register(
    Workload(
        name="swim",
        category="periodic",
        factory=swim_model,
        sizes={"N": 1335, "T": 800},                      # Table 2: 1335^2 x 800
        small_sizes={"N": 5, "T": 3},
        iss=True,
        diamond=True,
        notes="C translation with calc1/calc2/calc3 inlined (Section 4.2)",
    )
)
