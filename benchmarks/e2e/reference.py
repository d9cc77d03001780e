"""Correctness references that do not come from the compiler under test.

* Periodic heat stencils: hand-written ``numpy`` (``np.roll``) sweeps that
  add the terms in the statement's own evaluation order, so a correct
  kernel agrees **bitwise** (the C backend compiles with
  ``-ffp-contract=off``).
* Polybench: ``repro.workloads.polybench.reference.REFERENCE_KERNELS``
  (direct ``numpy`` transcriptions, 25 of the 27 kernels) with the
  tolerance ``tests/workloads/test_polybench_reference.py`` uses; the
  remaining kernels are compared against the original-order interpreter
  and labelled ``original-order``.
"""

from __future__ import annotations

import numpy as np

from repro.codegen import generate_python, original_schedule
from repro.runtime import random_arrays
from repro.workloads.polybench.reference import REFERENCE_KERNELS

__all__ = ["HEAT_REFERENCES", "check_polybench"]


def heat_1dp(arrays: dict, params: dict) -> None:
    a = arrays["A"]
    for t in range(params["T"]):
        cur = a[t]
        a[t + 1] = 0.125 * np.roll(cur, -1) + 0.75 * cur + 0.125 * np.roll(cur, 1)


def heat_2dp(arrays: dict, params: dict) -> None:
    a = arrays["A"]
    for t in range(params["T"]):
        cur = a[t]
        a[t + 1] = 0.125 * (
            np.roll(cur, -1, 0) + np.roll(cur, 1, 0)
            + np.roll(cur, -1, 1) + np.roll(cur, 1, 1)
        ) + 0.5 * cur


HEAT_REFERENCES = {"heat-1dp": heat_1dp, "heat-2dp": heat_2dp}

RTOL, ATOL = 1e-9, 1e-11


def _diagonally_dominant(arrays: dict, params: dict) -> None:
    # cholesky / trisolv / lu need a well-conditioned A (real sqrt, no
    # division by a near-zero pivot): the test suite's input preparation
    arrays["A"] += params["N"] * np.eye(params["N"])


_INPUT_PREP = {
    "cholesky": _diagonally_dominant,
    "trisolv": _diagonally_dominant,
    "lu": _diagonally_dominant,
}


def check_polybench(workload, program, code, seed: int) -> tuple[bool, str]:
    """Run the transformed Python kernel ``code`` at ``workload.small_sizes``
    on seeded inputs; returns ``(agrees, reference label)``."""
    params = dict(workload.small_sizes)
    got = random_arrays(program, params, seed=seed)
    if workload.name in _INPUT_PREP:
        _INPUT_PREP[workload.name](got, params)
    want = {k: v.copy() for k, v in got.items()}
    code.run(got, params)
    if workload.name in REFERENCE_KERNELS:
        REFERENCE_KERNELS[workload.name](want, params)
        label = "numpy"
    else:
        generate_python(original_schedule(program)).run(want, params)
        label = "original-order"
    agrees = all(
        np.allclose(got[k], want[k], rtol=RTOL, atol=ATOL) for k in want
    )
    return agrees, label
