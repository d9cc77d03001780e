"""The paper's headline scenario (Section 2.4 / Fig. 4): a heat equation on
a periodic domain.

Classic Pluto cannot time-tile it — after index-set splitting, the half
domain needs a loop *reversal* (a negative transformation coefficient),
which its space excludes.  Pluto+ finds the Fig. 4g composition
(ISS -> reversal -> parametric shift -> diamond tiling), and the tiled
code computes what the original order computes.

Run:  python examples/periodic_stencil.py
"""

from repro.pipeline import optimize
from repro.runtime import validate_transformation
from repro.workloads import get_workload


def main() -> None:
    workload = get_workload("heat-1dp")
    program = workload.program()
    print("== periodic heat equation (compiler's view) ==")
    print(program, "\n")

    results = {}
    for algorithm in ("pluto", "plutoplus"):
        result = optimize(program, workload.pipeline_options(algorithm))
        results[algorithm] = result
        print(f"== {algorithm} ==")
        print(f"index-set splitting applied: {result.used_iss}")
        print(f"diamond (concurrent-start) band found: {result.used_diamond}")
        print(result.schedule.pretty())
        print()

    assert results["plutoplus"].used_diamond
    assert not results["pluto"].used_diamond

    plus = results["plutoplus"]
    print("== Fig. 4g transformation (Pluto+) ==")
    for stmt in plus.program.statements:
        print(f"  T_{stmt.name} = {plus.schedule.map_for(stmt)}")

    check = validate_transformation(plus.program, plus.tiled, {"N": 20, "T": 8})
    print(f"\nvalidation vs original execution order: ok={check.ok}")


if __name__ == "__main__":
    main()
