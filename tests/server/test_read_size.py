"""A cache hit costs the daemon no page faults, whatever glibc's mmap
threshold.

asyncio's selector transport reads with ``recv(256 KiB)``; below glibc's
dynamic mmap threshold (128 KiB until a large mapped chunk is freed) each
such read maps and unmaps a fresh buffer, two minor faults per hit.  Which
regime a process starts in depended on what its imports happened to free,
so the environment pins the low threshold here; the listener reads 64 KiB
at a time and stays below it.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.server import ServerClient

SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads minor faults from /proc"
)


def _minor_faults(pid: int) -> int:
    stat = Path(f"/proc/{pid}/stat").read_text()
    return int(stat.rsplit(")", 1)[1].split()[7])  # field 10, minflt


@pytest.fixture
def daemon(tmp_path):
    sock = str(tmp_path / "d.sock")
    env = {**os.environ, "PYTHONPATH": str(SRC), "MALLOC_MMAP_THRESHOLD_": "131072"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--jobs", "1", "--socket", sock,
         "--cache-dir", str(tmp_path / "cache")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    deadline = time.time() + 30
    while not os.path.exists(sock):
        assert proc.poll() is None and time.time() < deadline, "daemon never bound"
        time.sleep(0.05)
    try:
        with ServerClient(sock, timeout=120) as client:
            yield proc, client
            client.shutdown()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, 9)
            proc.wait()


def test_a_hit_takes_no_page_faults(daemon):
    proc, client = daemon
    assert client.optimize("fig1-skew")["status"] == "ok"  # the miss
    for _ in range(50):  # settle the heap
        client.optimize("fig1-skew")
    before = _minor_faults(proc.pid)
    hits = 500
    for _ in range(hits):
        assert client.optimize("fig1-skew")["cache"] == "hit-memory"
    per_hit = (_minor_faults(proc.pid) - before) / hits
    assert per_hit < 0.1, f"{per_hit:.2f} minor faults per hit"


def test_a_request_longer_than_one_read_round_trips(daemon):
    """A ``program`` request of several reads' length is answered as the
    same program by name is."""
    from repro.frontend.serialize import program_to_dict
    from repro.workloads import get_workload

    _, client = daemon
    program = program_to_dict(get_workload("fig1-skew").program())
    program["padding"] = "x" * (300 * 1024)
    response = client.optimize(program=program)
    assert response["status"] == "ok", response
    by_name = client.optimize("fig1-skew")
    assert response["result"]["schedule"] == by_name["result"]["schedule"]
