"""Sections 2.1-2.3: transformations that need reversals and negative skews.

Three motivating patterns where Pluto+'s enlarged space finds strictly
better transformations than classic Pluto:

* Fig. 1 — a diagonal dependence: Pluto+ exposes a communication-free outer
  parallel loop with the negative skew ``(i - j, j)``;
* Fig. 2 — a reflected consumer: Pluto+ fuses producer and consumer by
  reversing one of them, making the fused loop parallel;
* Fig. 3 — symmetric dependences: after index-set splitting, the reversal
  of one half shortens every dependence.

Run:  python examples/symmetric_dependences.py
"""

from repro.pipeline import optimize
from repro.workloads import get_workload


def show(name: str) -> None:
    workload = get_workload(name)
    program = workload.program()
    print("=" * 72)
    print(f"{name}:")
    for stmt in program.statements:
        print(f"    {stmt.body}")
    for algorithm in ("pluto", "plutoplus"):
        result = optimize(program, workload.pipeline_options(algorithm, tile=False))
        sched = result.schedule
        outer = sched.rows[0]
        par = "parallel" if outer.parallel else "sequential"
        print(f"\n  {algorithm}: outer loop {par}"
              + (f", ISS applied" if result.used_iss else ""))
        for stmt in result.program.statements:
            print(f"    T_{stmt.name}{tuple(stmt.space.dims)} = {sched.map_for(stmt)}")
    print()


def main() -> None:
    for name in ("fig1-skew", "fig2-symmetric-consumer", "fig3-symmetric-deps"):
        show(name)
    print("Note how every pluto transformation above uses only non-negative")
    print("dimension coefficients, while pluto+ composes reversals (negative")
    print("coefficients) to expose outer parallelism or shorten dependences.")


if __name__ == "__main__":
    main()
