"""A program's IR does not follow the interpreter's string hashing: a
statement's scalar reads come in order of first appearance, so the
serialized program, and every key hashed from it (the daemon's
``cache_key``, the relations memo, the skeleton fingerprint), is the same
in every process."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_DIGESTS = """
import hashlib, json
from repro.frontend.serialize import program_to_dict
from repro.workloads import all_workloads
for w in all_workloads():
    text = json.dumps(program_to_dict(w.program()), sort_keys=True)
    print(w.name, hashlib.sha256(text.encode()).hexdigest())
"""


def _digests(seed: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
    return subprocess.run(
        [sys.executable, "-c", _DIGESTS], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout


def test_program_digests_do_not_depend_on_the_hash_seed():
    one, two = _digests("1"), _digests("2")
    assert len(one.splitlines()) > 40
    assert one == two


def test_scalar_reads_come_in_order_of_first_appearance():
    from repro.workloads import get_workload

    last = get_workload("gesummv").program().statements[-1]
    assert last.body == "y[i] = alpha * tmp[i] + beta * y[i]"
    assert [r.array for r in last.reads] == ["tmp", "y", "alpha", "beta"]
