"""Reduction-bound kernels: workloads whose only parallelism is a reduction.

These kernels accumulate into a scalar (or a low-rank cell), so under the
exact dependence model every loop carries the accumulator self-dependence
and the scheduler finds *no* parallel hyperplane.  They exist to exercise
``parallel_reductions``: with relaxation enabled, the accumulation
dimension becomes parallel and the emitters discharge it with privatized
partial sums / ``reduction(..)`` clauses.  Tier-1 tests check the tag on
each of them and their results at 1/2/4 threads.
"""

from __future__ import annotations

from repro.frontend import parse_program
from repro.workloads.base import Workload, register

__all__ = ["dot", "l2norm", "tensor_contract", "REDUCTION_KERNELS"]


def dot():
    """Dot product: ``s += A[i] * B[i]`` — the canonical scalar reduction.

    The single statement's self-dependence on ``s`` is carried by ``i``;
    only relaxation can parallelize it.
    """
    src = """
    for (i = 0; i < N; i++)
        s = s + A[i] * B[i];
    """
    return parse_program(src, "dot", params=("N",))


def l2norm():
    """Sum of squares: same shape as dot, one input stream."""
    src = """
    for (i = 0; i < N; i++)
        s = s + A[i] * A[i];
    """
    return parse_program(src, "l2norm", params=("N",))


def tensor_contract():
    """Full contraction of a matrix against two vectors:
    ``s += u[i] * A[i][j] * v[j]`` — a two-dimensional reduction where both
    loops carry the accumulator, so relaxation unlocks the outer dimension.
    """
    src = """
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            s = s + u[i] * A[i][j] * v[j];
    """
    return parse_program(src, "tensor-contract", params=("N",))


REDUCTION_KERNELS = [
    register(
        Workload(
            name="dot",
            category="reduction",
            factory=dot,
            sizes={"N": 4000000},
            small_sizes={"N": 9},
        )
    ),
    register(
        Workload(
            name="l2norm",
            category="reduction",
            factory=l2norm,
            sizes={"N": 4000000},
            small_sizes={"N": 9},
        )
    ),
    register(
        Workload(
            name="tensor-contract",
            category="reduction",
            factory=tensor_contract,
            sizes={"N": 2000},
            small_sizes={"N": 7},
        )
    ),
]
