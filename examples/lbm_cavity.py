"""The compiler's view of a Lattice Boltzmann lid-driven cavity (Fig. 6d).

The polyhedral model ``lbm-ldc-d2q9`` presents the dependence pattern of a
D2Q9 site update — a periodic 9-point stencil in time — to the optimizer.
Both algorithms split the index set; only Pluto+ finds a band that starts
at the outermost (time) level, and tiles it with diamonds (concurrent
start), the transformation behind the paper's Fig. 6 speedups.  Both transformed programs
are checked against the original execution order on a small grid.

Run:  python examples/lbm_cavity.py
"""

from repro.pipeline import optimize
from repro.runtime import validate_transformation
from repro.workloads import get_workload


def main() -> None:
    workload = get_workload("lbm-ldc-d2q9")
    print(f"== {workload.name}: {workload.notes}, Table 2 size {workload.sizes} ==")
    for algorithm in ("pluto", "plutoplus"):
        result = optimize(workload.program(), workload.pipeline_options(algorithm))
        tiled_time = any(b.start == 0 and b.width >= 2 for b in result.schedule.bands)
        print(f"\n== {algorithm} ==")
        print(f"  ISS split into {len(result.program.statements)} statements; "
              f"time-tiled band: {tiled_time}; diamond band: {result.used_diamond}")
        check = validate_transformation(result.program, result.tiled, workload.small_sizes)
        print(f"  validation vs original order at {workload.small_sizes}: ok={check.ok}")


if __name__ == "__main__":
    main()
