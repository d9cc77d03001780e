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

from repro.frontend import ProgramBuilder
from repro.workloads.base import Workload, register

__all__ = ["swim_model", "SWIM"]


def swim_model():
    b = ProgramBuilder("swim", params=("T", "N"), param_min=4)
    ip = "(i+1) % N"
    jp = "(j+1) % N"
    im = "(i-1) % N"
    jm = "(j-1) % N"
    with b.loop("t", 0, "T-1"):
        # ---- calc1: fluxes, vorticity, height (its own grid sweep) ----
        with b.loop("i", 0, "N-1"):
            with b.loop("j", 0, "N-1"):
                b.stmt(
                    f"CU[t][i][j] = 0.5*(P[t][{ip}][j] + P[t][i][j]) * U[t][i][j]",
                    name="S_cu",
                )
                b.stmt(
                    f"CV[t][i][j] = 0.5*(P[t][i][{jp}] + P[t][i][j]) * V[t][i][j]",
                    name="S_cv",
                )
                b.stmt(
                    f"Z[t][i][j] = (0.0002*(V[t][{ip}][j] - V[t][i][j]) "
                    f"- 0.0002*(U[t][i][{jp}] - U[t][i][j])) "
                    f"/ (P[t][i][j] + P[t][{ip}][j] + P[t][i][{jp}] + P[t][{ip}][{jp}] + 1.0)",
                    name="S_z",
                )
                b.stmt(
                    f"H[t][i][j] = P[t][i][j] + 0.25*(U[t][{ip}][j]*U[t][{ip}][j] "
                    f"+ U[t][i][j]*U[t][i][j] + V[t][i][{jp}]*V[t][i][{jp}] "
                    f"+ V[t][i][j]*V[t][i][j])",
                    name="S_h",
                )

        # ---- calc2: new fields, after ALL of calc1 (separate sweep) ----
        with b.loop("i", 0, "N-1"):
            with b.loop("j", 0, "N-1"):
                b.stmt(
                    f"UNEW[t+1][i][j] = UOLD[t][i][j] "
                    f"+ 0.05*(Z[t][i][{jm}] + Z[t][i][j]) * (CV[t][i][j] + CV[t][{im}][j]) "
                    f"- 0.1*(H[t][i][j] - H[t][{im}][j])",
                    name="S_unew",
                )
                b.stmt(
                    f"VNEW[t+1][i][j] = VOLD[t][i][j] "
                    f"- 0.05*(Z[t][{im}][j] + Z[t][i][j]) * (CU[t][i][j] + CU[t][i][{jm}]) "
                    f"- 0.1*(H[t][i][j] - H[t][i][{jm}])",
                    name="S_vnew",
                )
                b.stmt(
                    f"PNEW[t+1][i][j] = POLD[t][i][j] "
                    f"- 0.1*(CU[t][i][j] - CU[t][{im}][j]) "
                    f"- 0.1*(CV[t][i][j] - CV[t][i][{jm}])",
                    name="S_pnew",
                )

        # ---- calc3: time smoothing and copy-back (separate sweep) ----
        with b.loop("i", 0, "N-1"):
            with b.loop("j", 0, "N-1"):
                b.stmt(
                    "UOLD[t+1][i][j] = U[t][i][j] + 0.001*(UNEW[t+1][i][j] "
                    "- 2.0*U[t][i][j] + UOLD[t][i][j])",
                    name="S_uold",
                )
                b.stmt(
                    "VOLD[t+1][i][j] = V[t][i][j] + 0.001*(VNEW[t+1][i][j] "
                    "- 2.0*V[t][i][j] + VOLD[t][i][j])",
                    name="S_vold",
                )
                b.stmt(
                    "POLD[t+1][i][j] = P[t][i][j] + 0.001*(PNEW[t+1][i][j] "
                    "- 2.0*P[t][i][j] + POLD[t][i][j])",
                    name="S_pold",
                )
                b.stmt("U[t+1][i][j] = UNEW[t+1][i][j]", name="S_u")
                b.stmt("V[t+1][i][j] = VNEW[t+1][i][j]", name="S_v")
                b.stmt("P[t+1][i][j] = PNEW[t+1][i][j]", name="S_p")
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
