"""One support window: a build reads what it writes and refuses the rest.

A program of IR v1, a result of format v2 and a suite manifest of version 1
(what 1.36.0 wrote) are refused with the version they carry named, instead
of failing later on a key this build does not know.  A daemon request whose
options name a key that is no ``PipelineOptions`` field — the retired
``ilp_backend``, or ``backend``, which :class:`~repro.exec.ExecutionOptions`
owns — gets a structured ``bad-request`` answer naming the key.  The stores
that are caches (schedule cache, skeleton store) count an older entry as a
miss instead: ``tests/golden/test_parent_stores.py``.
"""

import json
import multiprocessing
import threading
import time

import pytest

from repro.frontend.serialize import program_from_dict, program_to_dict
from repro.pipeline import OptimizationResult, optimize
from repro.server import Daemon, DaemonConfig, ServerClient
from repro.suite import SuiteManifest
from repro.workloads import get_workload


def _program_v1(tmp_path):
    data = program_to_dict(get_workload("fig1-skew").program())
    program_from_dict({**data, "version": 1})


def _result_v2(tmp_path):
    payload = json.loads(optimize("fig1-skew").to_json())
    OptimizationResult.from_json(json.dumps({**payload, "version": 2}))


def _manifest_v1(tmp_path):
    manifest = SuiteManifest.create(tmp_path, [], {})
    data = json.loads(manifest.path.read_text())
    manifest.path.write_text(json.dumps({**data, "version": 1}))
    SuiteManifest.load(manifest.suite_dir)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the daemon's worker pool forks")
    root = tmp_path_factory.mktemp("window")
    daemon = Daemon(DaemonConfig(
        socket_path=str(root / "d.sock"), jobs=1, cache_dir=None,
        drain_seconds=2.0,
    ))
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    deadline = time.time() + 10
    while daemon.bound_address is None:
        assert thread.is_alive() and time.time() < deadline
        time.sleep(0.01)
    yield daemon
    daemon.shutdown()
    thread.join(timeout=20)


@pytest.mark.parametrize("case, named", [
    (_program_v1, "program serialized with format v1"),
    (_result_v2, "result serialized with format v2"),
    (_manifest_v1, "manifest version 1 unsupported"),
    ({"ilp_backend": "highs"}, "ilp_backend"),
    ({"backend": "c"}, "backend"),
], ids=["program-v1", "result-v2", "manifest-v1", "request-ilp_backend",
        "request-backend"])
def test_older_formats_and_retired_keys_are_refused_by_name(
    case, named, tmp_path, request
):
    if callable(case):
        with pytest.raises(ValueError, match=named):
            case(tmp_path)
        return
    daemon = request.getfixturevalue("daemon")
    with ServerClient(socket_path=daemon.config.socket_path) as client:
        resp = client.optimize("fig1-skew", options=case)
    assert (resp["status"], resp["kind"]) == ("error", "bad-request")
    assert named in resp["message"]
