"""Quickstart: optimize a loop nest with Pluto+ and run the generated code.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.codegen import generate_c_kernel
from repro.frontend import parse_program
from repro.pipeline import PipelineOptions, optimize
from repro.runtime import random_arrays, validate_transformation

# A simple kernel with a diagonal dependence (Fig. 1 of the paper): every
# point (i+1, j+1) depends on (i, j).
SOURCE = """
for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
        A[i+1][j+1] = 0.5 * A[i][j] + B[i][j];
"""


def main() -> None:
    program = parse_program(SOURCE, "quickstart", params=("N",))
    print("== input program ==")
    print(program, "\n")

    for algorithm in ("pluto", "plutoplus"):
        result = optimize(program, PipelineOptions(algorithm=algorithm, tile_size=16))
        print(f"== {algorithm} ==")
        print(result.schedule.pretty())
        print()

    # Pluto+ finds the communication-free mapping (Section 2.2): the outer
    # transformed loop is parallel.
    result = optimize(program, PipelineOptions(algorithm="plutoplus", tile_size=16))
    assert result.schedule.rows[0].parallel, "expected an outer parallel loop"

    print("== generated Python (Pluto+, tiled) ==")
    print(result.code.python_source)
    print("== generated C kernel (Pluto+, tiled; what --backend c compiles) ==")
    print(generate_c_kernel(result.tiled).source)

    # Execute the transformed code and check it against the original order.
    params = {"N": 64}
    check = validate_transformation(result.program, result.tiled, {"N": 16})
    print(f"validation vs original order: ok={check.ok}")

    arrays = random_arrays(program, params, seed=0)
    before = arrays["A"].copy()
    result.code.run(arrays, params)
    print(
        f"ran transformed kernel at N={params['N']}: "
        f"A changed at {np.count_nonzero(arrays['A'] != before)} points"
    )


if __name__ == "__main__":
    main()
