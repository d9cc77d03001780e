"""Tests for the command-line driver."""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.server import ServerClient
from repro.workloads import all_workloads

FIG1 = """
for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
        A[i+1][j+1] = 2.0 * A[i][j];
"""


@pytest.fixture
def kernel_file(tmp_path):
    f = tmp_path / "kernel.c"
    f.write_text(FIG1)
    return str(f)


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["opt", "x.c", "--params", "N", "--emit", "py"])
        assert args.command == "opt" and args.emit == "py"

    def test_opt_emits_c(self, kernel_file, capsys):
        assert main(["opt", kernel_file, "--params", "N"]) == 0
        out = capsys.readouterr().out
        assert "for (int z0" in out

    def test_opt_emits_schedule(self, kernel_file, capsys):
        assert main(["opt", kernel_file, "--params", "N", "--emit", "schedule"]) == 0
        out = capsys.readouterr().out
        assert "T_S0" in out

    def test_opt_emits_python_to_file(self, kernel_file, tmp_path, capsys):
        out_file = tmp_path / "out.py"
        rc = main(
            ["opt", kernel_file, "--params", "N", "--emit", "py", "-o", str(out_file)]
        )
        assert rc == 0
        assert "def kernel" in out_file.read_text()

    def test_opt_pluto_algorithm(self, kernel_file, capsys):
        assert main(
            ["opt", kernel_file, "--params", "N", "--algorithm", "pluto",
             "--emit", "schedule"]
        ) == 0

    def test_opt_workload(self, capsys):
        assert main(
            ["opt", "--workload", "fig2-symmetric-consumer", "--emit", "schedule"]
        ) == 0
        assert "T_S0" in capsys.readouterr().out

    def test_deps_command(self, kernel_file, capsys):
        assert main(["deps", kernel_file, "--params", "N"]) == 0
        out = capsys.readouterr().out
        assert "RAW" in out and "distance (1, 1)" in out

    def test_verify_command(self, kernel_file, capsys):
        assert main(["verify", kernel_file, "--params", "N"]) == 0
        assert "legal" in capsys.readouterr().out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gemm" in out and "heat-1dp" in out

    def test_missing_input_rejected(self):
        with pytest.raises(SystemExit):
            main(["opt", "--params", "N"])

    def test_tile_zero_disables_tiling(self, kernel_file, capsys):
        assert main(
            ["opt", kernel_file, "--params", "N", "--tile", "0", "--emit", "py"]
        ) == 0
        out = capsys.readouterr().out
        assert "16*z0" not in out and "32*z0" not in out


class TestCLIWorkloadResolution:
    def test_unknown_positional_suggests_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["opt", "nope-kernel", "--emit", "schedule"])
        msg = str(exc.value)
        assert "nope-kernel" in msg
        assert "repro list" in msg
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_workload_flag_suggests_list(self):
        with pytest.raises(SystemExit) as exc:
            main(["opt", "--workload", "nope-kernel", "--emit", "schedule"])
        msg = str(exc.value)
        assert "nope-kernel" in msg and "repro list" in msg

    def test_positional_workload_name_resolves(self, capsys):
        assert main(["opt", "fig1-skew", "--emit", "schedule"]) == 0
        assert "T_S0" in capsys.readouterr().out

    def test_deps_unknown_workload(self):
        with pytest.raises(SystemExit) as exc:
            main(["deps", "nope-kernel"])
        assert "repro list" in str(exc.value)


class TestCLIVerifyExitCodes:
    def test_verify_legal_exits_zero(self, kernel_file, capsys):
        assert main(["verify", kernel_file, "--params", "N"]) == 0
        assert "legal" in capsys.readouterr().out

    def test_verify_illegal_schedule_exits_nonzero(
        self, kernel_file, tmp_path, capsys
    ):
        # export the real schedule, then corrupt it into an illegal one by
        # reversing every loop hyperplane (ordering all dependences backwards)
        import json

        sched_file = tmp_path / "sched.json"
        assert main(
            ["opt", kernel_file, "--params", "N", "--emit", "schedule-json",
             "-o", str(sched_file)]
        ) == 0
        data = json.loads(sched_file.read_text())
        for row in data["rows"]:
            if row["kind"] == "loop":
                row["exprs"] = {
                    name: [-c for c in coeffs]
                    for name, coeffs in row["exprs"].items()
                }
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps(data))

        rc = main(
            ["verify", kernel_file, "--params", "N", "--schedule", str(bad_file)]
        )
        assert rc == 1
        assert "ILLEGAL" in capsys.readouterr().out

    def test_verify_exported_schedule_exits_zero(
        self, kernel_file, tmp_path, capsys
    ):
        sched_file = tmp_path / "sched.json"
        assert main(
            ["opt", kernel_file, "--params", "N", "--emit", "schedule-json",
             "-o", str(sched_file)]
        ) == 0
        assert main(
            ["verify", kernel_file, "--params", "N",
             "--schedule", str(sched_file)]
        ) == 0

    def test_verify_unreadable_schedule_exits_two(self, kernel_file, tmp_path,
                                                   capsys):
        bad = tmp_path / "nope.json"
        assert main(
            ["verify", kernel_file, "--params", "N", "--schedule", str(bad)]
        ) == 2
        assert "cannot load schedule" in capsys.readouterr().err


class TestCLISuite:
    def test_suite_runs_and_reports(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(
            ["suite", "--category", "motivation", "--filter", "fig1-*",
             "--jobs", "1", "--timeout", "120", "--quiet"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "per-stage time" in captured.out
        assert "fig1-skew--plutoplus" in captured.out
        assert "0 failed" in captured.out
        manifests = list((tmp_path / "runs").glob("suite-*/manifest.json"))
        assert len(manifests) == 1

    def test_suite_empty_matrix_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--filter", "no-such-workload-*", "--quiet"])
        assert "matrix is empty" in str(exc.value)

    def test_suite_resume_skips(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["suite", "--category", "motivation", "--filter", "fig1-*",
             "--jobs", "1", "--timeout", "120", "--quiet"]
        ) == 0
        capsys.readouterr()
        (suite_dir,) = (tmp_path / "runs").glob("suite-*")
        rc = main(["suite", "--resume", str(suite_dir), "--jobs", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "skipping 1 completed run(s)" in captured.err


class TestCLIDepsCache:
    def test_no_deps_cache_flag(self, kernel_file, capsys):
        assert main(
            ["opt", kernel_file, "--params", "N", "--no-deps-cache",
             "--emit", "schedule"]
        ) == 0
        assert "T_S0" in capsys.readouterr().out

    def test_deps_command_no_cache_matches(self, kernel_file, capsys):
        assert main(["deps", kernel_file, "--params", "N"]) == 0
        cached = capsys.readouterr().out
        assert main(
            ["deps", kernel_file, "--params", "N", "--no-deps-cache"]
        ) == 0
        assert capsys.readouterr().out == cached

    def test_scheduler_quick_flag(self, capsys):
        assert main(
            ["opt", "--workload", "gemm", "--scheduler", "quick",
             "--emit", "schedule"]
        ) == 0
        err = capsys.readouterr().err
        assert "# scheduler: quick -> quick" in err

    def test_scheduler_auto_reports_fallback(self, capsys):
        assert main(
            ["opt", "--workload", "seidel-2d", "--scheduler", "auto",
             "--emit", "schedule"]
        ) == 0
        err = capsys.readouterr().err
        assert "# scheduler: auto -> fallback (untilable-band)" in err

    def test_scheduler_default_is_exact(self, capsys):
        assert main(
            ["opt", "--workload", "gemm", "--emit", "schedule"]
        ) == 0
        assert "# scheduler: exact -> exact" in capsys.readouterr().err

    def test_scheduler_rejects_unknown_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["opt", "--workload", "gemm", "--scheduler", "fast"])
        assert exc.value.code == 2  # argparse choices

    def test_verify_accepts_scheduler_flag(self, capsys):
        assert main(
            ["verify", "--workload", "gemm", "--scheduler", "quick"]
        ) == 0
        assert "legal" in capsys.readouterr().out.lower()

    def test_stats_prints_dependence_block(self, kernel_file, capsys):
        assert main(
            ["opt", kernel_file, "--params", "N", "--stats",
             "--emit", "schedule"]
        ) == 0
        err = capsys.readouterr().err
        assert "# dependence stats:" in err
        assert "pairs_tested" in err
        assert "fast_rejects" in err
        (line,) = [l for l in err.splitlines() if "min_by_rule" in l]
        assert int(line.split()[-1]) >= 0 and err.index(line) < err.index("# pruning")
        # the pruning block CI's smoke job greps (prune_lp_solves ceiling)
        assert "# pruning stats:" in err
        for field in ("prune_lookups", "prune_hits", "prune_rule_rows"):
            assert f"#   {field}" in err
        (line,) = [l for l in err.splitlines() if "prune_lp_solves" in l]
        assert int(line.split()[-1]) >= 0


class TestCLIPipelineFlagTable:
    """`opt`, `verify` and `client opt` share one flag table and one
    namespace -> PipelineOptions mapping (repro.cli._PIPELINE_FLAGS)."""

    #: (argv, the PipelineOptions fields it must set)
    CASES = [
        (["--algorithm", "pluto"], {"algorithm": "pluto"}),
        (["--tile", "16"], {"tile": True, "tile_size": 16}),
        (["--tile", "0"], {"tile": False}),
        (["--iss"], {"iss": True}),
        (["--diamond"], {"diamond": True}),
        (["--bound", "7"], {"coeff_bound": 7}),
        (["--fuse", "max"], {"fuse": "max"}),
        (["--ilp-backend", "exact"], {"ilp_backend": "exact"}),
        (["--scheduler", "auto"], {"scheduler": "auto"}),
        (["--backend", "c"], {"backend": "c"}),
        (["--rar"], {"rar": True}),
        (["--parallel-reductions", "omp"], {"parallel_reductions": "omp"}),
    ]

    @pytest.mark.parametrize(
        "argv,fields", CASES, ids=[" ".join(argv) for argv, _ in CASES]
    )
    def test_flag_means_the_same_locally_and_through_the_client(
        self, argv, fields
    ):
        from repro.cli import _pipeline_fields, _pipeline_options
        from repro.pipeline import PipelineOptions

        local = _pipeline_options(
            build_parser().parse_args(["opt", "--workload", "gemm", *argv])
        )
        assert local == PipelineOptions(**fields)
        overrides = _pipeline_fields(build_parser().parse_args(
            ["client", "opt", "--workload", "gemm", "--socket", "/x", *argv]
        ))
        # the client sends exactly what was typed, nothing defaulted
        assert overrides == fields

    def test_unset_client_flags_send_no_overrides(self):
        from repro.cli import _pipeline_fields

        args = build_parser().parse_args(
            ["client", "opt", "--workload", "gemm", "--socket", "/x"]
        )
        assert _pipeline_fields(args) == {}

    def test_local_defaults_are_the_pipeline_defaults(self):
        from repro.cli import _pipeline_options
        from repro.pipeline import PipelineOptions

        for command in ("opt", "verify"):
            args = build_parser().parse_args([command, "--workload", "gemm"])
            assert _pipeline_options(args) == PipelineOptions()

    def test_verify_takes_only_schedule_shaping_flags(self):
        # verify's own --backend is an execution check, not a pipeline field
        from repro.cli import _pipeline_options
        from repro.pipeline import PipelineOptions

        args = build_parser().parse_args(
            ["verify", "--workload", "gemm", "--scheduler", "quick",
             "--rar", "--backend", "c"]
        )
        assert _pipeline_options(args) == PipelineOptions(
            scheduler="quick", rar=True
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--workload", "gemm",
                                       "--tile", "8"])


class TestCLIVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_dunder_version_is_a_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) >= 2
        assert all(p.isdigit() for p in parts[:2])


class TestCLIServeParsing:
    def test_serve_parser(self):
        args = build_parser().parse_args(
            ["serve", "--socket", "/tmp/x.sock", "--jobs", "4",
             "--cache-dir", "cache", "--report"]
        )
        assert args.command == "serve"
        assert args.jobs == 4 and args.report and args.cache_dir == "cache"

    def test_serve_needs_endpoint(self):
        with pytest.raises(SystemExit, match="serve needs"):
            main(["serve"])

    def test_client_needs_endpoint(self):
        with pytest.raises(SystemExit, match="client needs"):
            main(["client", "ping"])

    def test_client_opt_parser(self):
        args = build_parser().parse_args(
            ["client", "opt", "--workload", "heat-2dp", "--socket", "/tmp/x",
             "--tile", "0", "--emit", "summary"]
        )
        assert args.client_command == "opt"
        assert args.tile == 0 and args.emit == "summary"

    def test_client_opt_needs_source(self, tmp_path):
        with pytest.raises(SystemExit, match="source file or --workload"):
            main(["client", "opt", "--socket", str(tmp_path / "x.sock")])

    def test_serve_recycle_flag(self):
        args = build_parser().parse_args(["serve", "--socket", "/tmp/x.sock"])
        assert args.recycle is None
        args = build_parser().parse_args(
            ["serve", "--socket", "/tmp/x.sock", "--recycle", "8"]
        )
        assert args.recycle == 8

    @pytest.mark.parametrize("flag", [("--loop", "threads"), ("--pool", "spawn")])
    def test_serve_stack_selectors_are_gone(self, flag, capsys):
        # one loop, one pool: the selectors were removed with the stacks
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--socket", "/tmp/x", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_route_parser(self):
        args = build_parser().parse_args(
            ["route", "--socket", "/tmp/r.sock",
             "--shard", "/tmp/s0.sock", "--shard", "/tmp/s1.sock"]
        )
        assert args.command == "route"
        assert args.shard == ["/tmp/s0.sock", "/tmp/s1.sock"]

    def test_route_requires_shards(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "--socket", "/tmp/r.sock"])

    def test_route_needs_endpoint(self):
        with pytest.raises(SystemExit, match="route needs"):
            main(["route", "--shard", "/tmp/s0.sock"])

    def test_warm_parser(self):
        args = build_parser().parse_args(
            ["warm", "--socket", "/tmp/x.sock", "--category", "motivation",
             "--variants", "plutoplus,quick", "--jobs", "8",
             "--filter", "fig1*"]
        )
        assert args.command == "warm"
        assert args.category == "motivation"
        assert args.variants == "plutoplus,quick"
        assert args.jobs == 8 and args.filter == ["fig1*"]

    def test_warm_needs_endpoint(self):
        with pytest.raises(SystemExit, match="warm needs"):
            main(["warm"])

    def test_serve_refuses_occupied_socket(self, tmp_path):
        # the path exists and is not a socket: serve must not unlink it
        precious = tmp_path / "not-a-socket"
        precious.write_text("data")
        with pytest.raises(SystemExit, match="not a socket"):
            main(["serve", "--socket", str(precious), "--jobs", "1",
                  "--cache-dir", ""])
        assert precious.read_text() == "data"


def _repro_env():
    return dict(
        os.environ,
        PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
    )


def _spawn(sock, *args):
    """A ``repro`` subprocess listening on ``sock`` (not yet bound), in a
    session of its own so :func:`_kill` reaches the workers it forks."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args, "--socket", sock],
        env=_repro_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )


def _kill(proc):
    """Kill whatever is left of ``proc``'s session; a worker outliving its
    daemon would hold the pipes open and hang ``communicate``."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def _await_socket(proc, sock):
    deadline = time.time() + 30
    while not os.path.exists(sock):
        assert proc.poll() is None, proc.stderr.read()
        assert time.time() < deadline, f"{sock} was never bound"
        time.sleep(0.05)


class TestCLIServeEndToEnd:
    """Real daemon, router and warm subprocesses driven through the CLI."""

    def test_serve_ping_opt_shutdown(self, tmp_path, capsys):
        sock = str(tmp_path / "repro.sock")
        daemon = _spawn(sock, "serve", "--jobs", "1",
                        "--cache-dir", str(tmp_path / "cache"), "--report")
        try:
            _await_socket(daemon, sock)
            assert main(["client", "ping", "--socket", sock]) == 0
            assert "ok: server" in capsys.readouterr().out

            rc = main(["client", "opt", "--workload", "fig1-skew",
                       "--socket", sock, "--emit", "summary"])
            captured = capsys.readouterr()
            assert rc == 0
            assert "cache miss" in captured.out

            rc = main(["client", "opt", "--workload", "fig1-skew",
                       "--socket", sock, "--emit", "summary"])
            captured = capsys.readouterr()
            assert rc == 0
            assert "cache hit-memory" in captured.out

            assert main(["client", "stats", "--socket", sock]) == 0
            assert '"hits_memory": 1' in capsys.readouterr().out

            assert main(["client", "shutdown", "--socket", sock]) == 0
            assert "draining: True" in capsys.readouterr().out
            _, err = daemon.communicate(timeout=30)
            assert daemon.returncode == 0, err
            assert "# served 2 optimize request(s)" in err
            assert not os.path.exists(sock)
        finally:
            _kill(daemon)

    def test_serve_drains_on_sigterm(self, tmp_path):
        """SIGTERM drains like ``client shutdown``: exit 0, report printed,
        socket gone.  Catches a daemon that no longer handles SIGTERM
        (killed by the default action, socket left behind)."""
        sock = str(tmp_path / "repro.sock")
        daemon = _spawn(sock, "serve", "--jobs", "1",
                        "--cache-dir", str(tmp_path / "cache"), "--report")
        try:
            _await_socket(daemon, sock)
            with ServerClient(socket_path=sock) as client:
                assert client.optimize("fig1-skew")["cache"] == "miss"
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=30) == 0
            _, err = daemon.communicate(timeout=30)
            assert "# served 1 optimize request(s)" in err
            assert not os.path.exists(sock)
        finally:
            _kill(daemon)

    def test_fleet_answers_like_one_daemon(self, tmp_path):
        """Two shards behind ``repro route``, warmed by ``repro warm``: each
        motivation workload is a cache hit through the router and carries
        the schedule, tiled schedule and code one ``repro serve`` computes
        cold.  Catches ``repro warm`` filling entries that plain lookups
        never hit (e.g. a default variant other than ``client opt``'s)."""
        socks = {n: str(tmp_path / f"{n}.sock")
                 for n in ("one", "s0", "s1", "router")}
        procs = [
            _spawn(socks[n], "serve", "--jobs", "1",
                   "--cache-dir", str(tmp_path / n))
            for n in ("one", "s0", "s1")
        ]
        procs.append(_spawn(socks["router"], "route",
                            "--shard", socks["s0"], "--shard", socks["s1"]))
        try:
            for proc, sock in zip(procs, socks.values()):
                _await_socket(proc, sock)
            warm = subprocess.run(
                [sys.executable, "-m", "repro", "warm",
                 "--socket", socks["router"], "--category", "motivation",
                 "--jobs", "2", "--quiet"],
                env=_repro_env(), capture_output=True, text=True, timeout=300,
            )
            assert warm.returncode == 0, warm.stdout + warm.stderr
            with ServerClient(socket_path=socks["router"]) as fleet, \
                    ServerClient(socket_path=socks["one"]) as one:
                for w in all_workloads("motivation"):
                    routed = fleet.optimize(w.name)
                    direct = one.optimize(w.name)
                    assert routed["cache"].startswith("hit"), (w.name, routed["cache"])
                    assert direct["cache"] == "miss"
                    for field in ("schedule", "tiled", "code"):
                        assert routed["result"][field] == direct["result"][field], \
                            (w.name, field)
            # the router's shutdown fans out to both shards
            for sock in (socks["router"], socks["one"]):
                with ServerClient(socket_path=sock) as client:
                    client.shutdown()
            for proc in procs:
                _, err = proc.communicate(timeout=60)
                assert proc.returncode == 0, err
        finally:
            for proc in procs:
                _kill(proc)
