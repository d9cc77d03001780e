"""Tests for cache sharding: the consistent-hash ring and the router.

Ring tests are pure placement math.  Router tests run a real fleet — two
scripted daemons plus the router, all on background threads over Unix
sockets — and pin the routing invariants: every key lands on exactly one
shard, responses relay byte-identically, and fleet-wide stats/shutdown
fan out.  Fork-gated like the daemon tests.
"""

import json
import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.frontend import parse_program
from repro.frontend.serialize import program_to_dict
from repro.pipeline import RESULT_FORMAT_VERSION
from repro.server import Daemon, DaemonConfig, Router, RouterConfig, ServerClient
from repro.server.shard import ShardRing, parse_endpoint

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="behavior injection requires forked workers",
)

TINY = """
for (i = 1; i < N; i++)
    A[i] = 0.5 * A[i-1];
"""


def _program(name: str) -> dict:
    return program_to_dict(parse_program(TINY, name, params=("N",)))


def _scripted(payload):
    name = payload["program"]["name"]
    return json.dumps({"version": RESULT_FORMAT_VERSION, "marker": name,
                       "pid": os.getpid()})


class TestParseEndpoint:
    def test_host_port(self):
        assert parse_endpoint("127.0.0.1:9000") == ("tcp", "127.0.0.1", 9000)
        assert parse_endpoint("example.com:80") == ("tcp", "example.com", 80)

    def test_bare_port_defaults_host(self):
        assert parse_endpoint(":9000") == ("tcp", "127.0.0.1", 9000)

    def test_unix_paths(self):
        assert parse_endpoint("/tmp/repro.sock") == ("unix", "/tmp/repro.sock")
        # a path with a colon in the basename is still a path
        assert parse_endpoint("/tmp/a:b") == ("unix", "/tmp/a:b")
        assert parse_endpoint("relative.sock") == ("unix", "relative.sock")


class TestShardRing:
    ENDPOINTS = ["/tmp/s0.sock", "/tmp/s1.sock", "/tmp/s2.sock"]
    KEYS = [f"{i:064x}" for i in range(512)]

    def test_deterministic_across_instances(self):
        a = ShardRing(self.ENDPOINTS)
        b = ShardRing(list(self.ENDPOINTS))
        assert [a.owner(k) for k in self.KEYS] == [b.owner(k) for k in self.KEYS]

    def test_order_of_endpoints_is_irrelevant(self):
        a = ShardRing(self.ENDPOINTS)
        b = ShardRing(list(reversed(self.ENDPOINTS)))
        assert all(a.owner(k) == b.owner(k) for k in self.KEYS)

    def test_every_key_has_exactly_one_owner(self):
        ring = ShardRing(self.ENDPOINTS)
        for k in self.KEYS:
            assert ring.owner(k) in self.ENDPOINTS

    def test_load_spreads_across_shards(self):
        ring = ShardRing(self.ENDPOINTS)
        spread = ring.spread(self.KEYS)
        assert set(spread) == set(self.ENDPOINTS)
        # 512 keys over 3 shards with 64 vnodes: nobody starves, nobody hogs
        assert all(count > len(self.KEYS) * 0.1 for count in spread.values())

    def test_growing_the_fleet_remaps_a_minority(self):
        small = ShardRing(self.ENDPOINTS)
        grown = ShardRing(self.ENDPOINTS + ["/tmp/s3.sock"])
        moved = sum(
            1 for k in self.KEYS if small.owner(k) != grown.owner(k)
        )
        # consistent hashing: ~1/4 of keys move to the new shard; an
        # unstructured rehash would move ~3/4
        assert moved < len(self.KEYS) * 0.5
        assert all(
            grown.owner(k) == "/tmp/s3.sock"
            for k in self.KEYS
            if small.owner(k) != grown.owner(k)
        )

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardRing([])
        with pytest.raises(ValueError, match="duplicate"):
            ShardRing(["/tmp/a.sock", "/tmp/a.sock"])


@pytest.fixture
def fleet(tmp_path):
    """Two scripted shard daemons + a router, all on background threads."""
    stack = {"daemons": [], "threads": [], "router": None}

    shard_paths = []
    for i in range(2):
        config = DaemonConfig(
            socket_path=str(tmp_path / f"shard{i}.sock"),
            jobs=2, drain_seconds=2.0,
            cache_dir=str(tmp_path / f"cache{i}"),
        )
        daemon = Daemon(config)
        daemon.pool.fn = _scripted
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        stack["daemons"].append(daemon)
        stack["threads"].append(thread)
        shard_paths.append(config.socket_path)

    router = Router(RouterConfig(
        shards=shard_paths, socket_path=str(tmp_path / "router.sock"),
    ))
    stack["router"] = router
    router_thread = threading.Thread(target=router.serve, daemon=True)
    router_thread.start()
    stack["threads"].append(router_thread)

    # bound_address is set once a socket *listens*; its path alone appears
    # at bind(), a moment before connect() stops being refused
    deadline = time.time() + 10
    for server in stack["daemons"] + [router]:
        while server.bound_address is None:
            assert time.time() < deadline, f"{server.config.socket_path} never bound"
            time.sleep(0.01)

    yield router, stack["daemons"]

    router.shutdown()
    for daemon in stack["daemons"]:
        daemon.shutdown()
    for thread in stack["threads"]:
        thread.join(timeout=20)
        assert not thread.is_alive()


def _router_client(router) -> ServerClient:
    return ServerClient(socket_path=router.config.socket_path)


class TestRouter:
    def test_ping_answered_locally(self, fleet):
        router, _ = fleet
        with _router_client(router) as client:
            assert client.ping()["status"] == "ok"
        assert router.metrics.requests == 1

    def test_requests_partition_across_shards(self, fleet):
        router, daemons = fleet
        # key placement depends on the endpoint strings, i.e. on tmp_path:
        # with 8 keys ~0.7% of pytest-N directories put them all on one
        # shard; 32 keys make that a non-event
        n = 32
        with _router_client(router) as client:
            responses = {
                name: client.optimize(program=_program(name))
                for name in (f"part-{i}" for i in range(n))
            }
        assert {r["status"] for r in responses.values()} == {"ok"}
        # every request was routed, and both shards saw work
        routed = router.metrics.shard_routes
        assert sum(routed.values()) == n
        assert len(routed) == 2
        shard_served = [
            d.metrics.optimize_requests for d in daemons
        ]
        assert sum(shard_served) == n
        assert all(n > 0 for n in shard_served)

    def test_same_key_always_lands_on_one_shard(self, fleet):
        router, daemons = fleet
        with _router_client(router) as client:
            cold = client.optimize(program=_program("sticky"))
            warm = client.optimize(program=_program("sticky"))
        assert cold["cache"] == "miss"
        assert warm["cache"] == "hit-memory"  # same shard, warm tier
        assert warm["result"] == cold["result"]
        # exactly one shard computed and cached it
        stores = [d.cache.stats.stores for d in daemons]
        assert sorted(stores) == [0, 1]

    def test_routed_response_byte_identical_to_direct(self, fleet, tmp_path):
        router, daemons = fleet
        request = json.dumps(
            {"type": "optimize", "program": _program("bytes-eq")}
        ).encode() + b"\n"

        def raw_roundtrip(path: str) -> bytes:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.connect(path)
                s.sendall(request)
                buf = b""
                while not buf.endswith(b"\n"):
                    chunk = s.recv(1 << 20)
                    if not chunk:
                        break
                    buf += chunk
                return buf

        via_router = raw_roundtrip(router.config.socket_path)
        owner = router.ring.owner(
            json.loads(via_router)["key"]
        )
        direct = raw_roundtrip(owner)
        # the second request hits the shard's cache; apart from the cache
        # tag and elapsed time the lines must match byte-for-byte — and
        # the result payload exactly
        via = json.loads(via_router)
        dir_ = json.loads(direct)
        assert via["result"] == dir_["result"]
        assert via["key"] == dir_["key"]
        assert (via["cache"], dir_["cache"]) == ("miss", "hit-memory")

    def test_stats_aggregates_fleet(self, fleet):
        router, daemons = fleet
        with _router_client(router) as client:
            client.optimize(program=_program("agg"))
            stats = client.stats()["stats"]
        assert set(stats) == {"router", "shards"}
        assert stats["router"]["shards"] == [
            d.config.socket_path for d in daemons
        ]
        assert sum(
            s["server"]["optimize_requests"] for s in stats["shards"].values()
        ) == 1

    def test_unreachable_shard_is_structured_error(self, tmp_path):
        router = Router(RouterConfig(
            shards=[str(tmp_path / "nobody-home.sock")],
            socket_path=str(tmp_path / "router.sock"),
        ))
        thread = threading.Thread(target=router.serve, daemon=True)
        thread.start()
        deadline = time.time() + 10
        while router.bound_address is None:  # listening, not merely bound
            assert time.time() < deadline
            time.sleep(0.01)
        try:
            with _router_client(router) as client:
                resp = client.optimize(program=_program("orphan"))
            assert resp["status"] == "error"
            assert "unreachable" in resp["message"]
        finally:
            router.shutdown()
            thread.join(timeout=10)

    def test_shutdown_fans_out_to_every_shard(self, fleet):
        router, daemons = fleet
        with _router_client(router) as client:
            resp = client.shutdown()
        assert resp["status"] == "ok"
        assert set(resp["shards"]) == {d.config.socket_path for d in daemons}
        assert set(resp["shards"].values()) == {"ok"}
        deadline = time.time() + 15
        paths = [d.config.socket_path for d in daemons]
        paths.append(router.config.socket_path)
        for path in paths:
            while os.path.exists(path):
                assert time.time() < deadline, f"{path} never shut down"
                time.sleep(0.05)


# -- the one line server, under both of its users ---------------------------


@pytest.mark.parametrize("kind", ["daemon", "router"])
def test_line_protocol(kind, fleet):
    """What ``LineServer`` answers before a request reaches ``handle`` —
    and around it — is the same whoever handles: malformed line →
    ``bad-request`` with the connection still usable, blank line ignored,
    an unresolvable request → ``bad-request``, ``shutdown`` closes."""
    router, daemons = fleet
    server = router if kind == "router" else daemons[0]
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
        raw.settimeout(15)
        raw.connect(server.config.socket_path)
        rfile = raw.makefile("rb")

        def ask(line: bytes) -> dict:
            raw.sendall(line)
            return json.loads(rfile.readline())

        resp = ask(b"{this is not json\n")
        assert (resp["status"], resp["kind"]) == ("error", "bad-request")
        # the connection is still usable afterwards, and a blank line draws
        # no response: the next line read is the ping's answer
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
        if kind == "router":
            # never forwarded: the shards saw nothing
            assert all(d.metrics.requests == 0 for d in daemons)
        assert server.metrics.errors["bad-request"] == 3
        resp = ask(b'{"type": "shutdown"}\n')
        assert resp["status"] == "ok" and resp["draining"] is True
        assert rfile.readline() == b""  # closed after the shutdown answer


@pytest.mark.parametrize("kind", ["daemon", "router"])
def test_socket_path_is_never_refused(kind, tmp_path, monkeypatch):
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
    if kind == "daemon":
        server = Daemon(DaemonConfig(
            socket_path=path, jobs=1, cache_dir=str(tmp_path / "cache"),
        ))
        server.pool.fn = _scripted
    else:
        server = Router(RouterConfig(
            shards=[str(tmp_path / "nobody-home.sock")], socket_path=path,
        ))
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
