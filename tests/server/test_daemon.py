"""End-to-end daemon tests over real Unix sockets.

The daemon runs on a background thread inside the test process; worker
behavior is injected by swapping the pool's job body for a scripted one —
forked workers inherit the swap, and the script keys off
the serialized program's *name*, so hostile behavior (crash, hang, slow)
is selected per request.  Fork-gated like the suite-engine tests.
"""

import json
import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro import __version__
from repro.frontend import parse_program
from repro.frontend.serialize import program_to_dict
from repro.pipeline import RESULT_FORMAT_VERSION, PipelineOptions, optimize
from repro.server import Daemon, DaemonConfig, ServerClient
from repro.server.protocol import PROTOCOL_VERSION

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="behavior injection requires forked workers",
)

TINY = """
for (i = 1; i < N; i++)
    A[i] = 0.5 * A[i-1];
"""


def _program(name: str) -> dict:
    """Distinct names → distinct serialized IR → distinct cache keys."""
    return program_to_dict(parse_program(TINY, name, params=("N",)))


def _scripted(payload):
    """Injected job body: the program name selects the behavior."""
    name = payload["program"]["name"]
    if name.startswith("crash"):
        os._exit(9)
    if name.startswith("hang"):
        time.sleep(60)
    if name.startswith("slowerr"):
        time.sleep(0.6)
        raise RuntimeError(f"scripted failure for {name}")
    if name.startswith("slow"):
        time.sleep(0.6)
    if name.startswith("sched"):
        quick = "quick" in name
        return json.dumps({
            "version": RESULT_FORMAT_VERSION,
            "marker": name,
            "scheduler_stats": {
                "scheduler_path": "quick" if quick else "fallback",
                "fallback_reason": None if quick else "untilable-band",
            },
        })
    if name.startswith("redpar"):
        # the serialization rule: "reduction" appears on a tiled row only
        # when relaxation actually bought a parallel dimension
        return json.dumps({
            "version": RESULT_FORMAT_VERSION,
            "marker": name,
            "tiled": {"rows": [
                {"kind": "loop", "parallel": True, "reduction": [
                    {"stmt": "S0", "array": "s", "op": "+", "mode": "omp"}
                ]},
                {"kind": "loop"},
            ]},
        })
    return json.dumps({"version": RESULT_FORMAT_VERSION, "marker": name})


def _inject(daemon, fn) -> None:
    """Swap the pool's job body.

    Must happen before ``serve()``: warm workers capture ``fn`` at fork.
    """
    daemon.pool.fn = fn


# The single id keeps every test's name what it was while the suite was
# still parametrized over a second (since deleted) serving stack.
@pytest.fixture(params=["async-warm"])
def daemon_factory(tmp_path):
    """Start daemons on background threads; drain them all afterwards."""
    started = []

    def make(scripted=True, **cfg):
        cfg.setdefault("jobs", 2)
        cfg.setdefault("drain_seconds", 2.0)
        cfg.setdefault("cache_dir", str(tmp_path / "cache"))
        config = DaemonConfig(
            socket_path=str(tmp_path / f"d{len(started)}.sock"), **cfg
        )
        daemon = Daemon(config)
        if scripted:
            _inject(daemon, _scripted)
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        deadline = time.time() + 10
        # bound_address is set once the socket *listens*; the path alone
        # appears at bind(), a moment before connect() stops being refused
        while daemon.bound_address is None:
            assert thread.is_alive(), "daemon died during startup"
            assert time.time() < deadline, "daemon never bound its socket"
            time.sleep(0.01)
        started.append((daemon, thread))
        return daemon

    yield make
    for daemon, thread in started:
        daemon.shutdown()
        thread.join(timeout=20)
        assert not thread.is_alive()


def _client(daemon, **kwargs) -> ServerClient:
    return ServerClient(socket_path=daemon.config.socket_path, **kwargs)


def _await_load(daemon, **gauges) -> None:
    """Poll the daemon's own ``stats`` until its gauges read ``gauges``: a
    scripted slow job runs 0.6 s, so a fixed sleep before the next request
    either wastes most of that window or, on a loaded box, outlasts it."""
    deadline = time.time() + 10
    with _client(daemon) as client:
        while True:
            server = client.stats()["stats"]["server"]
            if all(server[name] == value for name, value in gauges.items()):
                return
            assert time.time() < deadline, f"never read {gauges}: {server}"
            time.sleep(0.005)


class TestBasics:
    def test_ping_carries_versions(self, daemon_factory):
        with _client(daemon_factory()) as client:
            resp = client.ping()
        assert resp["status"] == "ok"
        assert resp["protocol"] == PROTOCOL_VERSION
        assert resp["server_version"] == __version__

    def test_request_id_echoed(self, daemon_factory):
        with _client(daemon_factory()) as client:
            resp = client.request({"type": "ping", "id": "req-42"})
        assert resp["id"] == "req-42"

    def test_stats_request_shape(self, daemon_factory):
        daemon = daemon_factory()
        with _client(daemon) as client:
            client.optimize(program=_program("ok-stats"))
            resp = client.stats()
        server = resp["stats"]["server"]
        assert server["optimize_requests"] == 1
        assert server["misses"] == 1
        assert server["jobs"] == 2
        assert server["in_flight"] == 0
        assert resp["stats"]["cache"]["stores"] == 1

    def test_scheduler_paths_counted_once_per_computation(self, daemon_factory):
        daemon = daemon_factory()
        with _client(daemon) as client:
            client.optimize(program=_program("sched-quick"))
            client.optimize(program=_program("sched-fb"))
            client.optimize(program=_program("sched-quick"))  # cache hit
            server = client.stats()["stats"]["server"]
        assert server["scheduler_paths"] == {"quick": 1, "fallback": 1}
        assert server["fallback_reasons"] == {"untilable-band": 1}
        # pre-quick payloads (no scheduler_stats) are simply not counted
        with _client(daemon) as client:
            client.optimize(program=_program("ok-plain"))
            server = client.stats()["stats"]["server"]
        assert server["scheduler_paths"] == {"quick": 1, "fallback": 1}

    def test_reduction_parallel_counted_once_per_computation(
        self, daemon_factory
    ):
        daemon = daemon_factory()
        with _client(daemon) as client:
            client.optimize(program=_program("redpar-a"))
            client.optimize(program=_program("ok-noredpar"))
            client.optimize(program=_program("redpar-a"))  # cache hit
            server = client.stats()["stats"]["server"]
        assert server["reduction_parallel"] == 1


class TestBadRequests:
    def test_unknown_workload(self, daemon_factory):
        with _client(daemon_factory()) as client:
            resp = client.optimize("no-such-workload")
        assert resp["status"] == "error"
        assert resp["kind"] == "bad-request"
        assert "no-such-workload" in resp["message"]

    def test_unknown_option_field(self, daemon_factory):
        with _client(daemon_factory()) as client:
            resp = client.optimize(
                program=_program("p"), options={"frobnicate": 1}
            )
        assert resp["status"] == "error"
        assert "frobnicate" in resp["message"]

    def test_non_integral_coefficient(self, daemon_factory):
        """A program whose IR carries a coefficient that is not an integer
        is refused, not truncated into the program with ``1`` (which
        shared its cache key until 1.27.0)."""
        from repro.server.protocol import ProtocolError
        from repro.server.resolve import ResolveMemo
        from repro.workloads import get_workload

        program = program_to_dict(get_workload("jacobi-1d-imper").program())
        assert program["statements"][0]["reads"][0]["map"]["rows"][0][1] == 1
        program["statements"][0]["reads"][0]["map"]["rows"][0][1] = 1.9
        with pytest.raises(ProtocolError, match="not an integer"):
            ResolveMemo().resolve({"type": "optimize", "program": program})
        with _client(daemon_factory()) as client:
            resp = client.optimize(program=program)
        assert resp["status"] == "error"
        assert resp["kind"] == "bad-request"
        assert "not an integer" in resp["message"]

    def test_unknown_request_type(self, daemon_factory):
        with _client(daemon_factory()) as client:
            resp = client.request({"type": "frobnicate"})
        assert resp["kind"] == "bad-request"
        assert "unknown request type" in resp["message"]


class TestRetiredOptions:
    def test_serialized_options_contract(self, daemon_factory):
        """Options dicts hold every ``PipelineOptions`` field and nothing
        else: ``ilp_backend`` (gone as a field in 1.20.0) left their
        serialized form in 1.37.0, and with it every key moved once.  The
        cache key moved again in 1.38.0 (``PIPELINE_VERSION`` 5) and in
        1.39.0 (6); the structural fingerprint and solve key did not."""
        from repro.core.skeleton import scheduler_solve_key, structural_fingerprint
        from repro.core.transform import Schedule
        from repro.deps import compute_dependences
        from repro.server.cache import cache_key
        from repro.server.resolve import resolve_optimize
        from repro.workloads import get_workload

        program_dict, options_dict = resolve_optimize({"workload": "fig1-skew"})
        workload = get_workload("fig1-skew")
        options = workload.pipeline_options()
        assert options_dict == options.as_dict()
        assert list(options_dict) == list(PipelineOptions.__dataclass_fields__)
        assert cache_key(program_dict, options_dict) == (
            "7c755ff2a7fdb0ccf619c805e51f39722c77ad71902878b5fb695ea0552de81c"
        )
        assert structural_fingerprint(program_dict, options_dict) == (
            "eda9c87e6341a561df3a900f46f5199e97ea4f4dbfe1fd579fed0a888e42ff2b"
        )
        program = workload.program()
        assert scheduler_solve_key(
            program, options.scheduler_options(), Schedule(program),
            compute_dependences(program),
        ) == "b8e303db2be1cc8e0f588c80faace8f28f128881d458cc6c727cd3f186b6cdef"

        assert PipelineOptions.from_dict(options.as_dict()) == options
        for value in ("highs", "exact"):
            with pytest.raises(ValueError, match="ilp_backend"):
                PipelineOptions.from_dict({"ilp_backend": value})
        with _client(daemon_factory()) as client:
            resp = client.optimize("fig1-skew", options={"ilp_backend": "exact"})
        assert (resp["status"], resp["kind"]) == ("error", "bad-request")
        assert "ilp_backend" in resp["message"]


class TestCachePath:
    def test_miss_then_memory_hit_byte_identical(self, daemon_factory):
        daemon = daemon_factory()
        with _client(daemon) as client:
            cold = client.optimize(program=_program("ok-a"))
            warm = client.optimize(program=_program("ok-a"))
        assert cold["status"] == warm["status"] == "ok"
        assert cold["cache"] == "miss"
        assert warm["cache"] == "hit-memory"
        assert warm["key"] == cold["key"]
        assert warm["result"] == cold["result"]

    def test_disk_cache_survives_restart(self, daemon_factory, tmp_path):
        first = daemon_factory()
        with _client(first) as client:
            cold = client.optimize(program=_program("ok-persist"))
        first.shutdown()

        second = daemon_factory()  # same cache_dir, empty memory tier
        with _client(second) as client:
            warm = client.optimize(program=_program("ok-persist"))
        assert warm["cache"] == "hit-disk"
        assert warm["result"] == cold["result"]

    def test_distinct_options_are_distinct_keys(self, daemon_factory):
        daemon = daemon_factory()
        with _client(daemon) as client:
            a = client.optimize(program=_program("ok-opt"))
            b = client.optimize(
                program=_program("ok-opt"), options={"tile_size": 64}
            )
        assert a["key"] != b["key"]
        assert b["cache"] == "miss"

    def test_single_flight_coalesces_concurrent_identical(self, daemon_factory):
        daemon = daemon_factory()
        responses = []

        def ask():
            with _client(daemon) as client:
                responses.append(client.optimize(program=_program("slow-sf")))

        threads = [threading.Thread(target=ask) for _ in range(2)]
        threads[0].start()
        time.sleep(0.2)  # let the first request own the flight
        threads[1].start()
        for t in threads:
            t.join(timeout=30)
        assert {r["status"] for r in responses} == {"ok"}
        assert sorted(r["cache"] for r in responses) == ["coalesced", "miss"]
        assert responses[0]["result"] == responses[1]["result"]
        with _client(daemon) as client:
            server = client.stats()["stats"]["server"]
        assert server["coalesced"] == 1
        assert server["misses"] == 1

    def test_coalesced_waiters_receive_worker_error(self, daemon_factory):
        # every request joined to a failing flight gets the structured
        # error — not a hang, not a phantom ok
        daemon = daemon_factory()
        responses = []

        def ask():
            with _client(daemon) as client:
                responses.append(
                    client.optimize(program=_program("slowerr-shared"))
                )

        threads = [threading.Thread(target=ask) for _ in range(3)]
        threads[0].start()
        time.sleep(0.2)  # let the first request own the flight
        for t in threads[1:]:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(responses) == 3
        assert {r["status"] for r in responses} == {"error"}
        assert {r["kind"] for r in responses} == {"error"}
        assert all("scripted failure" in r["message"] for r in responses)
        # a failed flight leaves nothing cached: the next request recomputes
        with _client(daemon) as client:
            server = client.stats()["stats"]["server"]
        assert server["ok"] == 0
        assert server["errors"].get("error") == 1  # counted once per flight

    def test_disk_hit_with_memory_tier_disabled(self, daemon_factory):
        # memory_entries=0 forces every warm request through the disk tier
        daemon = daemon_factory(memory_entries=0)
        with _client(daemon) as client:
            cold = client.optimize(program=_program("ok-nomem"))
            warm = client.optimize(program=_program("ok-nomem"))
            again = client.optimize(program=_program("ok-nomem"))
            snap = client.stats()["stats"]
        assert cold["cache"] == "miss"
        assert warm["cache"] == "hit-disk"
        assert again["cache"] == "hit-disk"  # never promoted to memory
        assert warm["result"] == cold["result"]
        assert snap["server"]["hits_disk"] == 2
        assert snap["cache"]["memory_entries"] == 0
        assert snap["cache"]["hits_disk"] == 2


class TestFaultIsolation:
    def test_worker_crash_is_structured_error(self, daemon_factory):
        daemon = daemon_factory()
        with _client(daemon) as client:
            resp = client.optimize(program=_program("crash-x"))
            assert resp["status"] == "error"
            assert resp["kind"] == "crash"
            assert "exit code 9" in resp["message"]
            # the daemon survives its worker
            assert client.ping()["status"] == "ok"
            assert client.optimize(program=_program("ok-after"))["status"] == "ok"

    def test_hung_worker_killed_at_deadline(self, daemon_factory):
        daemon = daemon_factory(timeout=0.5)
        t0 = time.perf_counter()
        with _client(daemon) as client:
            resp = client.optimize(program=_program("hang-x"))
        assert time.perf_counter() - t0 < 30
        assert resp["status"] == "error"
        assert resp["kind"] == "timeout"
        assert "deadline" in resp["message"]

    def test_saturated_pool_answers_busy(self, daemon_factory):
        daemon = daemon_factory(jobs=1, backlog=0)
        slow_resp = []

        def ask_slow():
            with _client(daemon) as client:
                slow_resp.append(client.optimize(program=_program("slow-busy")))

        slow_thread = threading.Thread(target=ask_slow)
        slow_thread.start()
        _await_load(daemon, in_flight=1)  # the slow job occupies the only slot
        with _client(daemon) as client:
            busy = client.optimize(program=_program("ok-rejected"))
        slow_thread.join(timeout=30)
        assert busy["status"] == "busy"
        assert busy["in_flight"] == 1
        assert "retry" in busy["message"]
        assert slow_resp[0]["status"] == "ok"

    def test_busy_under_saturated_queue_reports_depth(self, daemon_factory):
        # one slot computing + one distinct key queued = at capacity; the
        # third distinct key is rejected with the live queue depth
        daemon = daemon_factory(jobs=1, backlog=1)
        background = []

        def ask(name):
            with _client(daemon) as client:
                background.append(client.optimize(program=_program(name)))

        threads = [
            threading.Thread(target=ask, args=(f"slow-q{i}",)) for i in range(2)
        ]
        threads[0].start()
        _await_load(daemon, in_flight=1)  # first job occupies the slot
        threads[1].start()
        _await_load(daemon, in_flight=1, queue_depth=1)  # second job sits in the queue
        with _client(daemon) as client:
            busy = client.optimize(program=_program("ok-overflow"))
            server = client.stats()["stats"]["server"]
        for t in threads:
            t.join(timeout=30)
        assert busy["status"] == "busy"
        assert busy["in_flight"] == 1
        assert busy["queued"] == 1
        assert server["busy"] == 1
        # the admitted requests both complete once the slot frees up
        assert {r["status"] for r in background} == {"ok"}


    def test_failing_disk_put_still_answers(self, daemon_factory, tmp_path):
        # The worker produced a valid result; a cache root that stopped
        # being writable after startup must cost the entry its disk tier,
        # not wedge the request until the worker deadline (+ grace).
        daemon = daemon_factory(timeout=2.0)
        root = tmp_path / "cache"
        root.rmdir()                     # empty: nothing was stored yet
        root.write_text("not a directory any more")
        t0 = time.perf_counter()
        with _client(daemon, timeout=60) as client:
            first = client.optimize(program=_program("ok-enospc"))
            elapsed = time.perf_counter() - t0
            second = client.optimize(program=_program("ok-enospc"))
            cache = client.stats()["stats"]["cache"]
        assert first["status"] == "ok" and first["cache"] == "miss"
        assert elapsed < 1.0, f"request took {elapsed:.1f}s"
        assert second["cache"] == "hit-memory"
        assert second["result"] == first["result"]
        assert cache["store_errors"] == 1
        assert cache["stores"] == 1


class TestShutdown:
    def test_shutdown_request_drains_and_exits(self, daemon_factory):
        daemon = daemon_factory()
        with _client(daemon) as client:
            resp = client.shutdown()
        assert resp["status"] == "ok" and resp["draining"] is True
        deadline = time.time() + 15
        while os.path.exists(daemon.config.socket_path):
            assert time.time() < deadline, "socket never removed on shutdown"
            time.sleep(0.05)

    def test_new_work_refused_while_draining(self, daemon_factory):
        # a connection opened before the drain can still submit, but a
        # cache miss during the drain is refused with shutting-down.  The
        # drain must outlast the scripted 0.6s job even on a loaded
        # 1-core runner, where fork+sleep can blow the default 2s budget
        # and the kill looks like a mid-request connection drop.
        daemon = daemon_factory(drain_seconds=15.0)
        slow_resp = []

        def ask_slow():
            with _client(daemon) as client:
                slow_resp.append(client.optimize(program=_program("slow-dr")))

        bystander = _client(daemon)  # opened before the drain begins
        try:
            slow_thread = threading.Thread(target=ask_slow)
            slow_thread.start()
            time.sleep(0.2)  # the slow job holds the pool open
            with _client(daemon) as client:
                assert client.shutdown()["draining"] is True
            late = bystander.optimize(program=_program("ok-too-late"))
            slow_thread.join(timeout=30)
        finally:
            bystander.close()
        assert late["status"] == "error"
        assert late["kind"] == "shutting-down"
        assert "draining" in late["message"]
        # the in-flight job still completed on its way out
        assert slow_resp[0]["status"] == "ok"


    def test_drain_under_load_answers_every_inflight_request(
        self, daemon_factory
    ):
        # K slow requests in flight on separate connections when the drain
        # starts: every one gets its ok response (a settled flight has
        # only *woken* its connection — the response must still make it
        # onto the wire before the sockets are cut), late work is refused,
        # and then the connections close.
        k = 6
        daemon = daemon_factory(jobs=2, backlog=k, drain_seconds=30.0)
        responses = [None] * k
        errors = []

        def ask(i):
            try:
                with _client(daemon, timeout=60) as client:
                    responses[i] = client.optimize(
                        program=_program(f"slow-drain{i}")
                    )
            except Exception as e:  # noqa: BLE001 - a drop fails the test
                errors.append(f"request {i}: {e!r}")

        # opened before the drain begins; raw, so the close is observable
        bystander = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        with bystander:
            bystander.connect(daemon.config.socket_path)
            bystander.settimeout(30)
            rfile = bystander.makefile("rb")
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(k)]
            for t in threads:
                t.start()
            deadline = time.time() + 10
            while sum(daemon.pool.load()) < k:  # all admitted
                assert time.time() < deadline, "requests never reached the pool"
                time.sleep(0.01)
            daemon.shutdown()
            bystander.sendall(json.dumps({
                "type": "optimize", "program": _program("ok-too-late"),
            }).encode() + b"\n")
            late = json.loads(rfile.readline())
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert not errors, errors
            assert [r["status"] for r in responses] == ["ok"] * k
            assert {r["cache"] for r in responses} == {"miss"}
            assert late["status"] == "error"
            assert late["kind"] == "shutting-down"
            # ... and only then are the sockets closed: EOF, not a hang
            assert rfile.readline() == b""
        deadline = time.time() + 15
        while os.path.exists(daemon.config.socket_path):
            assert time.time() < deadline, "socket never removed on shutdown"
            time.sleep(0.05)


class TestBindSafety:
    """The socket path is probed before binding: live daemons are never
    clobbered, stale sockets are reclaimed, foreign files are refused."""

    def test_second_daemon_refuses_live_socket(self, daemon_factory):
        from repro.server import SocketInUse

        daemon = daemon_factory()
        rival = Daemon(DaemonConfig(
            socket_path=daemon.config.socket_path,
            cache_dir=daemon.config.cache_dir,
        ))
        with pytest.raises(SocketInUse, match="already serving"):
            rival.serve()
        # the live daemon is untouched — its socket still answers
        with _client(daemon) as client:
            assert client.ping()["status"] == "ok"

    def test_stale_socket_reclaimed(self, tmp_path):
        from repro.server.daemon import claim_unix_path

        path = str(tmp_path / "stale.sock")
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(path)
        dead.close()  # nothing accepting: the file is a corpse
        assert os.path.exists(path)
        claim_unix_path(path)
        assert not os.path.exists(path)

    def test_non_socket_file_refused(self, tmp_path):
        from repro.server import SocketInUse
        from repro.server.daemon import claim_unix_path

        path = tmp_path / "precious.txt"
        path.write_text("not a socket")
        with pytest.raises(SocketInUse, match="not a socket"):
            claim_unix_path(str(path))
        assert path.read_text() == "not a socket"  # never unlinked

    def test_missing_path_is_fine(self, tmp_path):
        from repro.server.daemon import claim_unix_path

        claim_unix_path(str(tmp_path / "never-existed.sock"))


# -- the transport under the daemon (repro.server.listener.LineServer) ------


def test_line_protocol(tmp_path):
    """What ``LineServer`` answers before a request reaches ``handle`` —
    and around it: malformed line → ``bad-request`` with the connection
    still usable, blank line ignored, an unresolvable request →
    ``bad-request``, ``shutdown`` closes."""
    server = Daemon(DaemonConfig(
        socket_path=str(tmp_path / "d.sock"), jobs=1, drain_seconds=2.0,
        cache_dir=str(tmp_path / "cache"),
    ))
    _inject(server, _scripted)
    thread = threading.Thread(target=server.serve, daemon=True)
    thread.start()
    deadline = time.time() + 10
    while server.bound_address is None:
        assert thread.is_alive(), "daemon died during startup"
        assert time.time() < deadline, "daemon never bound its socket"
        time.sleep(0.01)
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(15)
            raw.connect(server.config.socket_path)
            rfile = raw.makefile("rb")

            def ask(line: bytes) -> dict:
                raw.sendall(line)
                return json.loads(rfile.readline())

            resp = ask(b"{this is not json\n")
            assert (resp["status"], resp["kind"]) == ("error", "bad-request")
            # the connection is still usable afterwards, and a blank line
            # draws no response: the next line read is the ping's answer
            raw.sendall(b"\n")
            resp = ask(b'{"type": "ping", "id": "after-blank"}\n')
            assert (resp["status"], resp["id"]) == ("ok", "after-blank")
            resp = ask(b'{"type": "frobnicate"}\n')
            assert resp["kind"] == "bad-request"
            assert "unknown request type" in resp["message"]
            resp = ask(
                b'{"type": "optimize", "workload": "no-such-workload-anywhere"}\n'
            )
            assert (resp["status"], resp["kind"]) == ("error", "bad-request")
            assert "no-such-workload-anywhere" in resp["message"]
            assert server.metrics.errors["bad-request"] == 3
            resp = ask(b'{"type": "shutdown"}\n')
            assert resp["status"] == "ok" and resp["draining"] is True
            assert rfile.readline() == b""  # closed after the shutdown answer
    finally:
        server.shutdown()
        thread.join(timeout=20)
    assert not thread.is_alive()


def test_socket_path_is_never_refused(tmp_path, monkeypatch):
    """The bind→listen window is closed: whoever sees the socket *path*
    can connect.  ``listen()`` is slowed so a plain ``bind(path)`` would
    leave the path visible but refusing for 0.1 s."""
    real_listen = socket.socket.listen

    def slow_listen(self, *args):
        time.sleep(0.1)
        return real_listen(self, *args)

    monkeypatch.setattr(socket.socket, "listen", slow_listen)
    path = str(tmp_path / "s.sock")
    # a staging file left by a process killed mid-start must not be in the way
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as dead:
        dead.bind(path + "~")
    server = Daemon(DaemonConfig(
        socket_path=path, jobs=1, cache_dir=str(tmp_path / "cache"),
    ))
    _inject(server, _scripted)
    outcome = []

    def connect_the_instant_the_path_appears():
        deadline = time.time() + 20
        while not os.path.exists(path):
            if time.time() > deadline:
                outcome.append("path never appeared")
                return
            time.sleep(0.0005)
        try:
            with ServerClient(socket_path=path) as client:
                outcome.append(client.ping()["status"])
        except OSError as e:
            outcome.append(repr(e))

    poller = threading.Thread(target=connect_the_instant_the_path_appears)
    thread = threading.Thread(target=server.serve, daemon=True)
    poller.start()
    thread.start()
    try:
        poller.join(timeout=30)
        assert not poller.is_alive()
        assert outcome == ["ok"]
        assert not os.path.exists(path + "~")
    finally:
        server.shutdown()
        thread.join(timeout=20)
    assert not thread.is_alive()
    assert not os.path.exists(path), "shutdown still unlinks the socket"


class TestRealPipeline:
    def test_program_request_matches_in_process_optimize(self, daemon_factory):
        daemon = daemon_factory(scripted=False)
        program = parse_program(TINY, "tiny", params=("N",))
        with _client(daemon) as client:
            resp = client.optimize(
                program=program_to_dict(program), options={"tile": False}
            )
        assert resp["status"] == "ok"
        local_payload = json.loads(
            optimize(program, PipelineOptions(tile=False)).to_json()
        )
        # timings and solver counters vary run to run; the transformation
        # itself must not
        for field in ("schedule", "tiled", "code", "program", "options",
                      "used_iss", "used_diamond", "version"):
            assert resp["result"][field] == local_payload[field]

    def test_workload_request_resolves_paper_flags(self, daemon_factory):
        daemon = daemon_factory(scripted=False)
        with _client(daemon) as client:
            resp = client.optimize("fig3-symmetric-deps", options={"tile": False})
        assert resp["status"] == "ok"
        # fig3 is registered with iss=True; the daemon fills that in
        assert resp["result"]["options"]["iss"] is True
        assert resp["result"]["used_iss"] is True

    def test_skeleton_store_survives_restart(
        self, daemon_factory, monkeypatch, tmp_path
    ):
        """A reboot keeps the structural skeletons: the first request to the
        reborn daemon that misses the exact cache must warm-start from the
        previous daemon's solves, visibly in the stats counters."""
        monkeypatch.setenv("REPRO_SKELETON_CACHE", "")  # restored on teardown
        skel = str(tmp_path / "skeletons")
        program = parse_program(TINY, "sweep", params=("N",))

        first = daemon_factory(scripted=False, skeleton_dir=skel)
        with _client(first) as client:
            seed = client.optimize(program=program_to_dict(program))
            stats1 = client.stats()["stats"]["server"]
        assert seed["result"]["scheduler_stats"]["structural_path"] == "miss"
        assert stats1["structural_misses"] == 1
        assert stats1["skeleton_dir"] == skel
        first.shutdown()

        second = daemon_factory(scripted=False, skeleton_dir=skel)
        with _client(second) as client:
            # different tile_size: exact-cache miss, structural duplicate
            warm = client.optimize(
                program=program_to_dict(program), options={"tile_size": 64}
            )
            stats2 = client.stats()["stats"]["server"]
        assert warm["cache"] == "miss"
        st = warm["result"]["scheduler_stats"]
        assert st["structural_path"] == "hit"
        assert st["structural_warm_start"] > 0
        assert stats2["structural_hits"] == 1

        # replayed solves must not change the answer: byte-parity with a
        # cold in-process run (the daemon exported the env var into this
        # process — clear it so the reference really is cold)
        monkeypatch.setenv("REPRO_SKELETON_CACHE", "")
        local = json.loads(
            optimize(program, PipelineOptions(tile_size=64)).to_json()
        )
        for field in ("schedule", "tiled", "code"):
            assert warm["result"][field] == local[field]

    def test_client_rebuilds_optimization_result(self, daemon_factory):
        daemon = daemon_factory(scripted=False)
        program = parse_program(TINY, "tiny", params=("N",))
        with _client(daemon) as client:
            result = client.optimize_result(
                program=program_to_dict(program), options={"tile": False}
            )
        local = optimize(program, PipelineOptions(tile=False))
        assert result.schedule.to_dict() == local.schedule.to_dict()
        assert result.code.python_source == local.code.python_source

    def test_diamond_response_rebuilds_the_same_kernel(self, daemon_factory):
        # tile space and point space differ (hyperplanes vs source order) and
        # the pieces' bookkeeping does not travel: the rebuilt tiled schedule
        # must still emit the C the worker's own would
        from repro.codegen import generate_c_kernel
        from repro.workloads import get_workload

        daemon = daemon_factory(scripted=False)
        with _client(daemon) as client:
            result = client.optimize_result("heat-1dp")
        workload = get_workload("heat-1dp")
        local = optimize(workload.program(), workload.pipeline_options())
        assert [r.kind for r in result.tiled.rows] == [
            "wavefront", "tile", "tile", "loop", "loop",
        ]
        assert result.tiled.to_dict() == local.tiled.to_dict()
        assert result.code.python_source == local.code.python_source
        assert (
            generate_c_kernel(result.tiled).source
            == generate_c_kernel(local.tiled).source
        )
