"""Tests for the IR JSON serializer (repro.frontend.serialize)."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from repro.frontend import (
    Statement,
    parse_program,
    program_from_dict,
    program_to_dict,
)
from repro.frontend.serialize import (
    IR_FORMAT_VERSION,
    basicset_from_dict,
    basicset_to_dict,
)
from repro.polyhedra import BasicSet, Space, ineq
from repro.workloads import get_workload

GUARDED = """
for (i = 0; i < N; i++)
    for (j = i; j < N; j++)
        A[i][j] = 1.5 * A[j][i];
"""


class TestProgramRoundTrip:
    def test_parsed_program(self):
        p = parse_program(GUARDED, "guarded", params=("N",), param_min=3)
        q = program_from_dict(program_to_dict(p))
        assert q == p
        assert q.param_min == p.param_min

    @pytest.mark.parametrize(
        "workload", ["fig2-symmetric-consumer", "heat-1dp", "lbm-poi-d2q9"]
    )
    def test_registry_workloads(self, workload):
        # heat-1dp and the LBM models carry guarded (periodic) accesses —
        # the hard case for access serialization
        p = get_workload(workload).program()
        assert program_from_dict(program_to_dict(p)) == p

    def test_payload_is_json_plain(self):
        p = get_workload("heat-1dp").program()
        d = program_to_dict(p)
        assert json.loads(json.dumps(d)) == d
        assert d["version"] == IR_FORMAT_VERSION == 2

    def test_version_gate(self):
        p = parse_program(GUARDED, "guarded", params=("N",))
        d = program_to_dict(p)
        assert program_from_dict(d) == p
        for version in (0, 1, 3):
            d["version"] = version
            with pytest.raises(
                ValueError, match=f"format v{version}, this build reads v2"
            ):
                program_from_dict(d)

    def test_a_statement_is_its_body(self):
        p = get_workload("heat-1dp").program()
        assert "text" not in {f.name for f in dataclasses.fields(Statement)}
        (sd,) = program_to_dict(p)["statements"]
        assert set(sd) == {"name", "domain", "reads", "writes", "body", "sched"}
        assert str(p.statements[0]).startswith(
            "S0: A[t+1, i] = 0.125 * A[t, (i+1) % N]"
        )


def _with_read_coefficient(value) -> dict:
    """jacobi-1d-imper's IR with the coefficient of ``i`` in its first read
    access replaced by ``value``."""
    d = program_to_dict(get_workload("jacobi-1d-imper").program())
    d["statements"][0]["reads"][0]["map"]["rows"][0][1] = value
    return d


class TestNonIntegralCoefficients:
    """Until 1.27.0 every coefficient went through ``int()``: a program
    with ``1.9`` in an access was read as the program with ``1``."""

    @pytest.mark.parametrize("value", [1.9, 0.5, Fraction(1, 2), "2", True])
    def test_rejected(self, value):
        with pytest.raises((TypeError, ValueError)):
            program_from_dict(_with_read_coefficient(value))

    @pytest.mark.parametrize("value", [2, np.int64(2), Fraction(4, 2)])
    def test_integral_values_read_as_ints(self, value):
        q = program_from_dict(_with_read_coefficient(value))
        assert q == program_from_dict(_with_read_coefficient(2))
        row = q.statements[0].reads[0].map.exprs[0].coeffs
        assert type(row[1]) is int and row[1] == 2


class TestBasicSetRoundTrip:
    def test_equalities_survive(self):
        sp = Space(("i", "j"), ("N",))
        bs = BasicSet(sp, [ineq(sp, {"i": 1}, 0), ineq(sp, {"N": 1, "j": -1}, -1)])
        assert basicset_from_dict(basicset_to_dict(bs)) == bs
