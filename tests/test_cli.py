"""Tests for the command-line driver."""

import contextlib
import dataclasses
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.pipeline import PipelineOptions
from repro.server import ServerClient

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
        assert "for (int64_t z0" in out

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


class TestOptEmitsTheKernel:
    """``opt --emit c`` prints the translation unit the native backend
    compiles, not a listing of the statements' display text."""

    @staticmethod
    def _kernel(name):
        from repro.codegen import generate_c_kernel
        from repro.pipeline import optimize
        from repro.workloads import get_workload

        w = get_workload(name)
        return generate_c_kernel(
            optimize(w.program(), w.pipeline_options()).tiled
        ).source

    def test_file_is_the_kernel(self, tmp_path, capsys):
        out = tmp_path / "f.c"
        assert main(["opt", "--workload", "heat-1dp", "--emit", "c",
                     "-o", str(out)]) == 0
        text = out.read_text()
        assert text == self._kernel("heat-1dp")
        # the periodic read wraps, as the kernel computes it
        assert "A[t][((i + 1) >= N ? (i + 1) - N : (i + 1))]" in text

    @pytest.mark.parametrize("emit", ["c", "schedule"])
    def test_stdout_is_the_file(self, emit, tmp_path, capsys):
        out = tmp_path / "f"
        argv = ["opt", "--workload", "heat-1dp", "--emit", emit]
        assert main([*argv, "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("argv", [
        ["heat-1dp"], ["heat-2dp"], ["gemm"],
        ["dot", "--parallel-reductions", "omp"],
    ], ids=lambda a: a[0])
    def test_output_compiles(self, argv, compiler, tmp_path, capsys):
        out = tmp_path / "f.c"
        assert main(["opt", "--workload", *argv, "-o", str(out)]) == 0
        cc = subprocess.run(
            [compiler.path, "-fsyntax-only", "-fopenmp", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert cc.returncode == 0, cc.stderr

    def test_reduction_clause_is_printed(self, capsys):
        assert main(["opt", "--workload", "dot", "--parallel-reductions",
                     "omp", "--emit", "c"]) == 0
        assert "reduction(+:__red0)" in capsys.readouterr().out

    def test_unrenderable_body_exits_2(self, tmp_path, capsys):
        src = tmp_path / "k.c"
        src.write_text("for (i = 0; i < N; i++)\n    A[i] = foo(A[i]);\n")
        assert main(["opt", str(src), "--params", "N", "--emit", "c"]) == 2
        err = capsys.readouterr().err
        assert "error: k cannot be rendered as C: unknown function 'foo'" in err
        assert "Traceback" not in err

    def test_display_renderer_is_gone(self):
        import repro.codegen
        import repro.codegen.c_emit

        assert not hasattr(repro.codegen, "generate_c")
        assert "generate_c" not in repro.codegen.__all__
        assert not hasattr(repro.codegen.c_emit, "generate_c")


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

    @pytest.mark.parametrize("workload", ["heat-1dp", "heat-2dp"])
    def test_verify_exported_split_schedule_exits_zero(
        self, workload, tmp_path, capsys
    ):
        # the export names the index-set-split statements (S0_m, ...);
        # verify splits the source program the same way before loading it
        sched_file = tmp_path / "sched.json"
        assert main(
            ["opt", "--workload", workload, "--emit", "schedule-json",
             "-o", str(sched_file)]
        ) == 0
        assert "_m" in sched_file.read_text()
        assert main(
            ["verify", "--workload", workload, "--schedule", str(sched_file)]
        ) == 0
        assert "schedule is legal" in capsys.readouterr().out

    def test_verify_export_of_another_program_exits_two(
        self, tmp_path, capsys
    ):
        sched_file = tmp_path / "sched.json"
        assert main(
            ["opt", "--workload", "heat-1dp", "--emit", "schedule-json",
             "-o", str(sched_file)]
        ) == 0
        assert main(
            ["verify", "--workload", "heat-2dp", "--schedule", str(sched_file)]
        ) == 2
        assert "cannot load schedule" in capsys.readouterr().err

    def test_verify_unreadable_schedule_exits_two(self, kernel_file, tmp_path,
                                                   capsys):
        bad = tmp_path / "nope.json"
        assert main(
            ["verify", kernel_file, "--params", "N", "--schedule", str(bad)]
        ) == 2
        assert "cannot load schedule" in capsys.readouterr().err


class TestCLIVerifyIsTheApiCheck:
    """`repro verify` decides legality through `repro.api.verify`: a result
    under its own `parallel_reductions`, an export under the flag's."""

    @pytest.mark.parametrize("export", [False, True], ids=["result", "export"])
    def test_relaxed_reductions_go_through_the_api(
        self, export, tmp_path, monkeypatch, capsys
    ):
        from repro import api

        flags = ["--workload", "dot", "--parallel-reductions", "omp"]
        if export:
            sched_file = tmp_path / "sched.json"
            assert main(["opt", *flags, "--emit", "schedule-json",
                         "-o", str(sched_file)]) == 0
            flags += ["--schedule", str(sched_file)]
        calls = []
        check = api.verify

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return check(*args, **kwargs)

        monkeypatch.setattr(api, "verify", spy)
        capsys.readouterr()
        assert main(["verify", *flags]) == 0
        assert calls == [{"parallel_reductions": "omp"}]
        captured = capsys.readouterr()
        assert "schedule is legal" in captured.out
        assert "# relaxed 3 reduction self-dependences" in captured.err


class TestCLIExecFlags:
    """`--backend` says where the kernel runs: one ExecutionOptions for
    `opt`, `verify` and `suite`, and no flag for `client opt`, since the
    daemon runs no kernel.  `--threads` stays `opt`'s own."""

    @pytest.mark.parametrize("command", ["opt", "verify", "suite"])
    def test_flags_fill_one_execution_options(self, command):
        from repro.cli import _exec_options
        from repro.exec import ExecutionOptions

        parser = build_parser()
        assert _exec_options(parser.parse_args([command])) == ExecutionOptions()
        args = parser.parse_args([command, "--backend", "c"])
        assert _exec_options(args) == ExecutionOptions(backend="c")

    def test_opt_threads(self):
        from repro.cli import _exec_options
        from repro.exec import ExecutionOptions

        args = build_parser().parse_args(["opt", "--backend", "c", "--threads", "2"])
        assert _exec_options(args) == ExecutionOptions(backend="c", threads=2)

    @pytest.mark.parametrize("command", ["verify", "suite"])
    def test_only_opt_takes_threads(self, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--threads", "2"])
        assert exc.value.code == 2

    def test_threads_below_one_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["opt", "--workload", "gemm",
                                       "--threads", "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_pipeline_options_do_not_see_them(self):
        from repro.cli import _pipeline_options

        args = build_parser().parse_args(
            ["opt", "--workload", "gemm", "--backend", "c", "--threads", "2"]
        )
        assert _pipeline_options(args) == PipelineOptions()

    @pytest.mark.parametrize("flag", [["--backend", "c"], ["--threads", "2"]])
    def test_client_opt_has_no_exec_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["client", "opt", "--workload", "gemm", "--socket", "/x", *flag]
            )
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["client", "opt", "--help"])
        assert flag[0] not in capsys.readouterr().out

    def test_suite_records_them_once_in_the_manifest(
        self, tmp_path, capsys, monkeypatch, compiler
    ):
        import json

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", str(tmp_path / "kernels"))
        assert main(
            ["suite", "--category", "motivation", "--filter", "fig1-*",
             "--jobs", "1", "--timeout", "120", "--quiet", "--backend", "c"]
        ) == 0
        (suite_dir,) = (tmp_path / "runs").glob("suite-*")
        manifest = json.loads((suite_dir / "manifest.json").read_text())
        assert manifest["config"]["exec"]["backend"] == "c"
        assert all("backend" not in s["options"] for s in manifest["specs"])
        record = json.loads((suite_dir / "fig1-skew--plutoplus.json").read_text())
        assert record["exec_stats"]["backend"] == "c", record["exec_stats"]


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
    """`opt`, `verify` and `client opt` take the flags the PipelineOptions
    fields declare, through one namespace -> PipelineOptions mapping."""

    #: (argv, the PipelineOptions fields it must set)
    CASES = [
        (["--algorithm", "pluto"], {"algorithm": "pluto"}),
        (["--tile", "16"], {"tile": True, "tile_size": 16}),
        (["--tile", "0"], {"tile": False}),
        (["--iss"], {"iss": True}),
        (["--diamond"], {"diamond": True}),
        (["--bound", "7"], {"coeff_bound": 7}),
        (["--fuse", "max"], {"fuse": "max"}),
        (["--scheduler", "auto"], {"scheduler": "auto"}),
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

    FLAGGED = [
        f for f in dataclasses.fields(PipelineOptions) if f.metadata.get("flag")
    ]
    COMMANDS = (["opt"], ["verify"], ["client", "opt", "--socket", "/x"])

    @staticmethod
    def _non_default(field):
        """argv after ``field``'s flag, and the value it must set."""
        if isinstance(field.default, bool):
            return [], True
        values = field.metadata["values"]
        value = (next(v for v in values if v != field.default) if values
                 else field.default + 1)
        return [str(value)], value

    @pytest.mark.parametrize("field", FLAGGED, ids=lambda f: f.name)
    def test_every_flag_sets_its_field_under_every_command(self, field):
        from repro.cli import _pipeline_fields

        argv, value = self._non_default(field)
        expected = PipelineOptions(**{field.name: value})
        for command in self.COMMANDS:
            args = build_parser().parse_args(
                [*command, "--workload", "gemm", field.metadata["flag"], *argv]
            )
            assert PipelineOptions(**_pipeline_fields(args)) == expected

    @pytest.mark.parametrize(
        "field", [f for f in FLAGGED if f.metadata["values"]],
        ids=lambda f: f.name,
    )
    def test_out_of_set_value_names_the_field(self, field):
        with pytest.raises(ValueError, match=f"unknown {field.name} 'bogus'"):
            PipelineOptions(**{field.name: "bogus"})
        for command in self.COMMANDS:
            with pytest.raises(SystemExit):  # argparse choices
                build_parser().parse_args(
                    [*command, "--workload", "gemm",
                     field.metadata["flag"], "bogus"]
                )


class TestVerifyChecksWhatOptEmits:
    """`verify` takes every pipeline flag `opt` does, so it checks the tiled
    schedule of each configuration `opt` can emit."""

    @pytest.mark.parametrize("workload", ["gemm", "seidel-2d", "fdtd-2d",
                                          "heat-1dp"])
    @pytest.mark.parametrize(
        "flags",
        [["--l2tile"], ["--intra-tile"], ["--fuse", "no"], ["--fuse", "max"],
         ["--bound", "2"], ["--tile", "16"]],
        ids="=".join,
    )
    def test_legal(self, workload, flags, capsys):
        assert main(["verify", "--workload", workload, *flags]) == 0
        assert "legal" in capsys.readouterr().out


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

    @pytest.mark.parametrize("command", ["route", "warm"])
    def test_fleet_commands_are_gone(self, command, capsys):
        # one daemon serves; the shard router and the cache warmer went in
        # 1.30.0 (two shards behind the router served half of what one
        # daemon serves)
        with pytest.raises(SystemExit) as exc:
            main([command, "--socket", "/tmp/x.sock"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_fleet_layer_is_gone_from_the_api(self):
        import repro.server
        from repro.server import ServerMetrics

        gone = {"Router", "RouterConfig", "ShardRing", "WarmReport",
                "warm_cache"}
        assert not gone & set(dir(repro.server))
        assert not gone & set(repro.server.__all__)
        assert "shard_routes" not in ServerMetrics().as_dict()

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
    """Real daemon subprocesses driven through the CLI."""

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

    def test_a_retiled_request_reuses_the_workers_analysis(self, tmp_path, capsys):
        """Another tile size is a schedule-cache miss but the same program:
        the worker answers it from its relations memo (nothing tested) and
        schedules exactly as it did the first time."""
        import json

        sock = str(tmp_path / "repro.sock")
        daemon = _spawn(sock, "serve", "--jobs", "1",
                        "--cache-dir", str(tmp_path / "cache"))
        results = []
        try:
            _await_socket(daemon, sock)
            for extra in ([], ["--tile", "64"]):
                out = tmp_path / f"heat{len(results)}.json"
                assert main(["client", "opt", "--workload", "heat-1dp",
                             "--socket", sock, "--emit", "json",
                             "-o", str(out), *extra]) == 0
                assert "# cache: miss" in capsys.readouterr().err
                results.append(json.loads(out.read_text()))
            assert main(["client", "shutdown", "--socket", sock]) == 0
            assert daemon.wait(timeout=30) == 0
        finally:
            _kill(daemon)
        first, retiled = results
        assert first["dep_stats"]["pairs_tested"] > 0
        assert retiled["dep_stats"]["pairs_tested"] == 0
        assert retiled["dep_stats"]["deps_found"] == first["dep_stats"]["deps_found"]
        assert retiled["schedule"] == first["schedule"]
        assert retiled["tiled"] != first["tiled"]

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
