"""Command-line driver, in the spirit of Pluto's ``polycc``.

Usage::

    python -m repro opt kernel.c --params N M --algorithm plutoplus \
        --tile 32 --iss --diamond [--emit c|py|schedule] [-o out.c]
    python -m repro opt --workload heat-1dp --algorithm pluto
    python -m repro verify --workload heat-1dp --algorithm plutoplus
    python -m repro deps kernel.c --params N
    python -m repro list
    python -m repro suite --jobs 4 --filter 'heat-*'
    python -m repro serve --socket /tmp/repro.sock --jobs 4 --cache-dir cache
    python -m repro client opt --workload heat-2dp --socket /tmp/repro.sock

``opt`` parses an affine C-like loop nest (or loads a registered workload),
runs the full pipeline, and emits the transformed code; ``verify`` runs the
independent legality checker on the computed schedule (nonzero exit on an
illegal schedule); ``deps`` prints the dependence analysis; ``list``
enumerates registered workloads; ``suite`` fans the workload matrix out
over worker processes and writes a ``runs/<suite-id>/`` manifest; ``serve``
runs the pipeline as a persistent daemon with a content-addressed schedule
cache; and ``client`` talks to it.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

from repro.codegen import CEmitError, generate_c_kernel
from repro.exec.options import BACKENDS, ExecutionOptions
from repro.frontend import parse_program
from repro.frontend.ir import Program
from repro.pipeline import PipelineOptions, optimize
from repro.polyhedra.cache import cache_disabled, global_cache

__all__ = ["main", "build_parser"]


def _pipeline_flags():
    """``(flag, argparse dest, field)`` for every :class:`PipelineOptions`
    field that declares a flag — the flags ``opt``, ``verify`` and
    ``client opt`` share."""
    for f in dataclasses.fields(PipelineOptions):
        flag = f.metadata.get("flag")
        if flag:
            yield flag, flag.lstrip("-").replace("-", "_"), f


def _add_pipeline_flags(p, client: bool = False) -> None:
    """Register the pipeline flags, each from its field's declaration.
    ``client opt`` registers them with ``default=None`` — "unset", so the
    daemon's own resolution (workload paper flags, then its defaults) shows
    through."""
    for flag, _dest, f in _pipeline_flags():
        kwargs = {"help": f.metadata["help"]}
        if isinstance(f.default, bool):
            kwargs["action"] = "store_true"
        else:
            kwargs["default"] = f.default
            if f.metadata["values"]:
                kwargs["choices"] = f.metadata["values"]
            else:
                kwargs["type"] = type(f.default)
            if client:
                kwargs["help"] += f" (daemon default: {f.default})"
        if client:
            kwargs["default"] = None
        p.add_argument(flag, **kwargs)


def _pipeline_fields(args) -> dict:
    """``PipelineOptions`` fields for every pipeline flag ``args`` carries.

    ``None`` means unset and is left out, so for ``client opt`` this is
    exactly the overrides the user typed — the daemon fills in the
    workload's paper flags underneath, like local ``repro opt`` does.
    """
    fields: dict = {}
    for _flag, dest, f in _pipeline_flags():
        value = getattr(args, dest)
        if value is None:
            continue
        if f.name == "tile_size":  # --tile 0 disables tiling, N sizes it
            fields["tile"] = value != 0
            if value:
                fields["tile_size"] = value
        else:
            fields[f.name] = value
    return fields


def _add_exec_flags(p) -> None:
    """Where ``opt``, ``verify`` and ``suite`` run the kernel."""
    p.add_argument("--backend", choices=BACKENDS, default="python",
                   help="execution backend: python or c (compile the emitted "
                        "C natively); c falls back to python when no "
                        "compiler is present")


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def _exec_options(args) -> ExecutionOptions:
    return ExecutionOptions(backend=args.backend, threads=getattr(args, "threads", None))


def _add_matrix_args(p) -> None:
    from repro.suite.matrix import VARIANTS

    p.add_argument("--filter", action="append", default=[], metavar="GLOB",
                   help="keep only workloads/run-ids matching this glob "
                        "(repeatable)")
    p.add_argument("--category",
                   choices=("periodic", "polybench", "motivation",
                            "reduction", "all"),
                   default="periodic",
                   help="workload category to run (default: periodic, "
                        "the paper's Table 2 suite)")
    p.add_argument("--variants", default="plutoplus",
                   help=f"comma-separated option variants "
                        f"({', '.join(VARIANTS)})")


def _matrix_specs(args) -> list:
    from repro.suite import build_matrix

    specs = build_matrix(
        category=args.category,
        variants=[v.strip() for v in args.variants.split(",") if v.strip()],
        filters=args.filter,
    )
    if not specs:
        raise SystemExit(
            "error: the matrix is empty (filters matched nothing); "
            "run `python -m repro list` to see registered workloads"
        )
    return specs


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pluto+ reproduction: polyhedral source-to-source optimizer",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_args(p, local: bool = True):
        p.add_argument("source", nargs="?",
                       help="C-like loop nest file or registered workload name")
        p.add_argument("--workload", help="registered workload name instead of a file")
        p.add_argument("--params", nargs="*", default=[], help="program parameters")
        p.add_argument(
            "--param-min", type=int, default=2,
            help="context lower bound on every parameter (default 2)",
        )
        if local:
            p.add_argument(
                "--no-deps-cache", action="store_true",
                help="disable the dependence-analysis fast path (memoized "
                     "polyhedral primitives and fast-reject)",
            )

    opt = sub.add_parser("opt", help="optimize a loop nest")
    add_input_args(opt)
    _add_pipeline_flags(opt)
    _add_exec_flags(opt)
    opt.add_argument("--threads", type=_positive_int, default=None, metavar="N",
                     help="OpenMP threads for native execution "
                          "(default: the OpenMP runtime's choice)")
    opt.add_argument("--stats", action="store_true",
                     help="print solver, dependence and pruning counters "
                          "to stderr; with a native --backend also the "
                          "execution stats")
    opt.add_argument("--skeleton-dir", default=None, metavar="DIR",
                     help="structural skeleton store for cross-request "
                          "warm-started scheduling (sets "
                          "REPRO_SKELETON_CACHE for this run; default: "
                          "disabled)")
    opt.add_argument("--emit", choices=("c", "py", "schedule", "schedule-json"),
                     default="c",
                     help="c: the C kernel `--backend c` compiles (default); "
                          "py: the Python kernel")
    opt.add_argument("-o", "--output", help="write emitted code to a file")

    ver = sub.add_parser(
        "verify", help="verify schedule legality independently",
        description="Check the tiled schedule `opt` would emit under the "
                    "same flags. With a native --backend, also execute it "
                    "on that backend and require bit-compatible agreement "
                    "with the Python kernel, or agreement under tolerance "
                    "when the schedule parallelizes a reduction (skipped "
                    "with a note when no compiler is available).",
    )
    add_input_args(ver)
    _add_pipeline_flags(ver)
    _add_exec_flags(ver)
    ver.add_argument("--schedule", metavar="FILE",
                     help="verify this exported schedule (JSON from "
                          "`opt --emit schedule-json`) instead of running "
                          "the scheduler")

    deps = sub.add_parser("deps", help="print dependence analysis")
    add_input_args(deps)

    sub.add_parser("list", help="list registered workloads")

    suite = sub.add_parser(
        "suite",
        help="run the workload matrix in parallel worker processes",
    )
    suite.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="parallel worker processes (default: cpu count)")
    suite.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-run deadline in seconds (default 900)")
    suite.add_argument("--retries", type=int, default=None, metavar="N",
                       help="re-attempts after a crash/timeout (default 1)")
    _add_matrix_args(suite)
    _add_exec_flags(suite)
    suite.add_argument("--out", default="runs", metavar="DIR",
                       help="manifest root directory (default: runs/)")
    suite.add_argument("--resume", metavar="DIR",
                       help="resume a partial suite from its manifest "
                            "directory, skipping completed runs")
    suite.add_argument("--quiet", action="store_true",
                       help="suppress per-run progress lines")

    def add_endpoint_args(p):
        p.add_argument("--socket", metavar="PATH",
                       help="Unix socket path (preferred)")
        p.add_argument("--host", default="127.0.0.1",
                       help="TCP bind/connect host (default 127.0.0.1)")
        p.add_argument("--port", type=int, help="TCP port instead of --socket")

    serve = sub.add_parser(
        "serve",
        help="run optimize() as a persistent daemon with a schedule cache",
    )
    add_endpoint_args(serve)
    serve.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="concurrent worker processes (default: cpu count)")
    serve.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-request worker deadline in seconds "
                            "(default 900)")
    serve.add_argument("--backlog", type=int, default=None, metavar="N",
                       help="queued misses beyond --jobs before requests "
                            "get a busy response (default 2x jobs)")
    serve.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                       help="on-disk schedule cache root (default "
                            ".repro-cache; '' disables the disk tier)")
    serve.add_argument("--mem-entries", type=int, default=None, metavar="N",
                       help="in-memory cache entries (default 128)")
    serve.add_argument("--skeleton-dir", default=None, metavar="DIR",
                       help="structural skeleton store consulted on "
                            "exact-cache misses (default: "
                            "<cache-dir>/skeletons when the disk cache is "
                            "enabled; '' disables)")
    serve.add_argument("--recycle", type=int, default=None, metavar="N",
                       help="retire each pool worker after N requests "
                            "(default 64)")
    serve.add_argument("--report", action="store_true",
                       help="print a metrics summary line on exit")

    client = sub.add_parser("client", help="talk to a running repro daemon")
    csub = client.add_subparsers(dest="client_command", required=True)

    copt = csub.add_parser("opt", help="request one optimization")
    add_endpoint_args(copt)
    add_input_args(copt, local=False)
    _add_pipeline_flags(copt, client=True)
    copt.add_argument("--emit", choices=("schedule-json", "json", "summary"),
                      default="schedule-json",
                      help="what to print: the schedule export (default), "
                           "the full result payload, or a one-line summary")
    copt.add_argument("-o", "--output", help="write the emitted JSON to a file")

    for name, text in (
        ("stats", "print the daemon's metrics snapshot as JSON"),
        ("ping", "check the daemon is alive (prints version skew)"),
        ("shutdown", "ask the daemon to drain and exit"),
    ):
        p = csub.add_parser(name, help=text)
        add_endpoint_args(p)
    return parser


def _load_program(args) -> tuple[Program, Optional[object]]:
    """The program to work on, and the registered workload it came from
    (``None`` for a source file) for :func:`_pipeline_options`."""
    if args.workload:
        from repro.workloads import get_workload

        try:
            w = get_workload(args.workload)
        except KeyError:
            raise SystemExit(
                f"error: unknown workload {args.workload!r}; "
                f"run `python -m repro list` to see registered workloads"
            ) from None
        return w.program(), w
    if not args.source:
        raise SystemExit("either a source file or --workload is required")
    path = Path(args.source)
    if not path.is_file():
        from repro.workloads import WORKLOADS  # import populates the registry

        if args.source in WORKLOADS:
            w = WORKLOADS[args.source]
            return w.program(), w
        raise SystemExit(
            f"error: {args.source!r} is neither a readable file nor a "
            f"registered workload; run `python -m repro list` to see "
            f"registered workloads"
        )
    text = path.read_text()
    name = path.stem
    program = parse_program(
        text, name, params=tuple(args.params), param_min=args.param_min
    )
    return program, None


def _pipeline_options(args, workload=None) -> PipelineOptions:
    fields = dict(_pipeline_fields(args), deps_cache=not args.no_deps_cache)
    if workload is None:
        return PipelineOptions(**fields)
    # --iss/--diamond can only switch on: unset, they are not overrides and
    # the workload's paper flags show through
    for flag in ("iss", "diamond"):
        if not fields.get(flag):
            fields.pop(flag, None)
    return workload.pipeline_options(**fields)


def _cmd_opt(args) -> int:
    import os

    if getattr(args, "skeleton_dir", None):
        os.environ["REPRO_SKELETON_CACHE"] = args.skeleton_dir
    program, workload = _load_program(args)
    poly_before = global_cache().stats.snapshot()
    result = optimize(program, _pipeline_options(args, workload))
    poly = global_cache().stats.delta_since(poly_before).as_dict()
    print(f"# {program.name}: {args.algorithm}", file=sys.stderr)
    print(f"# ISS: {result.used_iss}, diamond: {result.used_diamond}", file=sys.stderr)
    if result.scheduler_stats is not None:
        st = result.scheduler_stats
        line = f"# scheduler: {st.scheduler_mode} -> {st.scheduler_path}"
        if st.fallback_reason:
            line += f" ({st.fallback_reason})"
        print(line, file=sys.stderr)
        if st.structural_path is not None:
            print(f"# structural: {st.structural_path} "
                  f"({st.structural_warm_start} replayed solves)",
                  file=sys.stderr)
    print(f"# timing: {result.timing.as_dict()}", file=sys.stderr)
    if getattr(args, "stats", False) and result.scheduler_stats is not None:
        from repro.reporting import format_stats

        st = result.scheduler_stats
        print("# solver stats:", file=sys.stderr)
        print(format_stats(st.solve.as_dict(), indent="#   "), file=sys.stderr)
        if result.dep_stats is not None:
            print("# dependence stats:", file=sys.stderr)
            # this process's counts, like the pruning block's; a cone miss
            # is one Farkas multiplier elimination, a relations miss one
            # whole dependence analysis
            dep = {**result.dep_stats.as_dict(), **{
                k: poly[k] for k in (
                    "min_by_rule", "cone_lookups", "cone_hits",
                    "relations_lookups", "relations_hits",
                )}}
            print(format_stats(dep, indent="#   "), file=sys.stderr)
        # this process's pruning work: all zero when the schedule cache answered
        print("# pruning stats:", file=sys.stderr)
        pruning = {k: v for k, v in poly.items() if k.startswith("prune_")}
        print(format_stats(pruning, indent="#   "), file=sys.stderr)
    if args.backend != "python":
        from repro.exec import ExecStats, compile_kernel

        cstats = ExecStats()
        compile_kernel(result.tiled, _exec_options(args), cstats,
                       code=result.code)
        if cstats.fallback_reason:
            print(f"# exec backend: python "
                  f"(fallback: {cstats.fallback_reason})", file=sys.stderr)
        else:
            key = cstats.artifact_key or ""
            print(f"# exec backend: c ({cstats.artifact_cache}, "
                  f"compile {cstats.compile_seconds:.2f}s, "
                  f"artifact {key[:16]}…)", file=sys.stderr)
        if args.stats:
            print("# exec stats:", file=sys.stderr)
            for k, v in cstats.as_dict().items():
                print(f"#   {k}: {v}", file=sys.stderr)
    if args.emit == "schedule":
        out = result.schedule.pretty() + "\n"
    elif args.emit == "schedule-json":
        import json

        out = json.dumps(result.schedule.to_dict(), indent=1) + "\n"
    elif args.emit == "py":
        out = result.code.python_source
    else:
        try:
            out = generate_c_kernel(result.tiled).source
        except CEmitError as e:
            print(f"error: {program.name} cannot be rendered as C: {e}",
                  file=sys.stderr)
            return 2
    if args.output:
        Path(args.output).write_text(out)
        print(f"# wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(out)
    return 0


def _cmd_verify(args) -> int:
    """Exit 0 iff the schedule is provably legal.

    Anything else — violations, an unreadable/mismatched schedule export,
    a crash inside the checker — exits nonzero, so CI can gate on it.
    Legality is :func:`repro.api.verify`'s.
    """
    from repro import api
    from repro.core.transform import Schedule

    program, workload = _load_program(args)
    result = None
    if args.schedule:
        import json

        if _pipeline_options(args, workload).iss:
            # an export names the statements of the program the pipeline
            # scheduled: split it the way ``optimize`` does
            from repro.core.iss import index_set_split
            from repro.deps import compute_dependences

            with _deps_cache_guard(args):
                program, _ = index_set_split(
                    program, compute_dependences(program)
                )
        try:
            data = json.loads(Path(args.schedule).read_text())
            target = Schedule.from_dict(program, data)
        except (OSError, ValueError, KeyError) as e:
            print(f"error: cannot load schedule {args.schedule!r}: {e}",
                  file=sys.stderr)
            return 2
    else:
        # the result's post-ISS program and the tiled rows its code executes
        target = result = optimize(program, _pipeline_options(args, workload))
    # the execution leg below covers what the relaxed legality set leaves;
    # --no-deps-cache re-analyses from scratch here too, instead of reusing
    # the relations the pipeline just found
    with _deps_cache_guard(args):
        report = api.verify(target, program,
                            parallel_reductions=args.parallel_reductions)
    if report.relaxed:
        print(f"# relaxed {len(report.relaxed)} reduction self-dependences "
              f"before legality checking", file=sys.stderr)
    print(report)
    rc = 0 if report.legal else 1
    if args.backend != "python" and report.legal:
        rc = max(rc, _verify_backend(args, result))
    return rc


def _verify_backend(args, result) -> int:
    """Execution leg of ``repro verify --backend c``: the native kernel
    against the Python one, under the contract the schedule picks."""
    from repro.runtime.validate import backend_compat_check

    if result is None:
        print("# backend check skipped: --schedule input carries no tiled "
              "schedule to execute", file=sys.stderr)
        return 0
    params = _exec_params(args, result.program)
    check = backend_compat_check(result.tiled, params, _exec_options(args))
    if not check.checked:
        print(f"backend {args.backend}: skipped "
              f"({check.fallback_reason})")
        return 0
    if check.ok:
        if check.mode == "tolerance":
            print(f"backend {check.backend}: agrees with python at {params} "
                  f"under tolerance (parallel reductions; "
                  f"abs diff {check.max_abs_diff:.3e})")
        else:
            print(f"backend {check.backend}: bit-compatible with python at "
                  f"{params}")
        return 0
    print(f"backend {check.backend}: MISMATCH [{check.mode}] on "
          f"{check.mismatched_arrays} at {params} "
          f"(abs diff {check.max_abs_diff:.3e})")
    return 1


def _exec_params(args, program) -> dict:
    """Concrete parameter values for execution checks: the workload's
    small validation sizes when available, else a small default honoring
    ``--param-min``."""
    name = getattr(args, "workload", None) or getattr(args, "source", None)
    if name:
        from repro.workloads import WORKLOADS

        w = WORKLOADS.get(name)
        if w is not None and w.small_sizes:
            return dict(w.small_sizes)
    floor = getattr(args, "param_min", 2)
    return {p: max(floor, 8) for p in program.params}


def _deps_cache_guard(args):
    """``cache_disabled()`` under ``--no-deps-cache``, else a no-op."""
    return cache_disabled() if args.no_deps_cache else nullcontext()


def _cmd_deps(args) -> int:
    from repro.deps import compute_dependences

    program, _ = _load_program(args)
    with _deps_cache_guard(args):
        deps = compute_dependences(program)
    print(f"{len(deps)} dependences:")
    for d in deps:
        vec = d.distance_vector()
        extra = f" distance {vec}" if vec else " (non-uniform)"
        print(f"  {d}{extra}")
    return 0


def _cmd_suite(args) -> int:
    """Run the workload matrix in parallel; exit nonzero on any RunFailure."""
    import os

    from repro.reporting import format_suite_report
    from repro.suite import SuiteManifest, run_suite
    from repro.suite.runner import DEFAULT_RETRIES
    from repro.workers import DEFAULT_TIMEOUT

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    timeout = args.timeout if args.timeout is not None else DEFAULT_TIMEOUT
    retries = args.retries if args.retries is not None else DEFAULT_RETRIES
    progress = None if args.quiet else (
        lambda msg: print(f"# {msg}", file=sys.stderr, flush=True)
    )

    if args.resume:
        manifest = SuiteManifest.load(Path(args.resume))
    else:
        manifest = SuiteManifest.create(
            Path(args.out), _matrix_specs(args),
            {"jobs": jobs, "timeout": timeout, "retries": retries,
             "exec": _exec_options(args).as_dict()},
        )
    print(f"# manifest: {manifest.path}", file=sys.stderr)

    result = run_suite(
        manifest,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        resume=bool(args.resume),
        progress=progress,
    )
    print(format_suite_report(result.records, result.wall_seconds))
    return 0 if result.ok else 1


def _cmd_serve(args) -> int:
    """Run the scheduling daemon until SIGTERM/SIGINT, then drain."""
    import os

    from repro import __version__
    from repro.server import Daemon, DaemonConfig, SocketInUse
    from repro.workers import DEFAULT_RECYCLE, DEFAULT_TIMEOUT

    if args.socket is None and args.port is None:
        raise SystemExit("error: serve needs --socket PATH or --port N")
    cache_dir = args.cache_dir or None
    skeleton_dir = args.skeleton_dir
    if skeleton_dir is None and cache_dir is not None:
        # default: ride along with the disk cache; --skeleton-dir '' opts out
        skeleton_dir = os.path.join(cache_dir, "skeletons")
    try:
        config = DaemonConfig(
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            jobs=args.jobs if args.jobs is not None else (os.cpu_count() or 1),
            timeout=args.timeout if args.timeout is not None else DEFAULT_TIMEOUT,
            backlog=args.backlog,
            cache_dir=cache_dir,
            skeleton_dir=skeleton_dir or None,
            pool_recycle=(args.recycle if args.recycle is not None
                          else DEFAULT_RECYCLE),
            **({} if args.mem_entries is None
               else {"memory_entries": args.mem_entries}),
        )
    except ValueError as e:
        raise SystemExit(f"error: {e}")
    daemon = Daemon(config)
    daemon.install_signal_handlers()
    print(f"# repro {__version__} serving on "
          f"{args.socket or f'{args.host}:{args.port}'} "
          f"(jobs {config.jobs}, "
          f"cache {config.cache_dir or 'memory-only'}, "
          f"skeletons {config.skeleton_dir or 'off'})",
          file=sys.stderr, flush=True)
    try:
        daemon.serve()
    except SocketInUse as e:
        raise SystemExit(f"error: {e}")
    if args.report:
        print(f"# {daemon.metrics.summary_line()}", file=sys.stderr)
    return 0


def _client_connect(args):
    from repro.server import ServerClient

    if args.socket is None and args.port is None:
        raise SystemExit("error: client needs --socket PATH or --port N")
    try:
        return ServerClient(
            socket_path=args.socket, host=args.host, port=args.port
        )
    except OSError as e:
        raise SystemExit(
            f"error: cannot reach daemon at "
            f"{args.socket or f'{args.host}:{args.port}'}: {e}"
        )


def _cmd_client(args) -> int:
    import json

    if args.client_command == "opt":
        request: dict = {}
        name = args.workload or args.source
        if name and not args.workload and Path(name).is_file():
            from repro.frontend.serialize import program_to_dict

            program = parse_program(
                Path(name).read_text(), Path(name).stem,
                params=tuple(args.params), param_min=args.param_min,
            )
            request["program"] = program_to_dict(program)
        elif name:
            request["workload"] = name
        else:
            raise SystemExit("either a source file or --workload is required")

        with _client_connect(args) as client:
            response = client.optimize(
                request.get("workload"),
                program=request.get("program"),
                options=_pipeline_fields(args),
            )
        status = response.get("status")
        if status == "busy":
            print(f"busy: {response.get('message')}", file=sys.stderr)
            return 3
        if status != "ok":
            print(f"error ({response.get('kind')}): "
                  f"{response.get('message', '').strip()}", file=sys.stderr)
            return 1
        print(f"# cache: {response['cache']}  key: {response['key'][:16]}…  "
              f"elapsed: {response['elapsed']:.3f}s  "
              f"server: {response['server_version']}", file=sys.stderr)
        if args.emit == "summary":
            props = response["result"]["schedule"]
            print(f"{name}: depth {len(props.get('rows', []))}, "
                  f"cache {response['cache']}, {response['elapsed']:.3f}s")
            return 0
        payload = (response["result"] if args.emit == "json"
                   else response["result"]["schedule"])
        out = json.dumps(payload, indent=1) + "\n"
        if args.output:
            Path(args.output).write_text(out)
            print(f"# wrote {args.output}", file=sys.stderr)
        else:
            sys.stdout.write(out)
        return 0

    with _client_connect(args) as client:
        if args.client_command == "stats":
            response = client.stats()
            print(json.dumps(response.get("stats", {}), indent=1))
        elif args.client_command == "ping":
            from repro import __version__

            response = client.ping()
            print(f"ok: server {response['server_version']}, "
                  f"client {__version__}, protocol {response['protocol']}")
        else:  # shutdown
            response = client.shutdown()
            print(f"draining: {response.get('draining', False)}")
    return 0 if response.get("status") == "ok" else 1


def _cmd_list(_args) -> int:
    from repro.workloads import all_workloads

    for w in all_workloads():
        flags = []
        if w.iss:
            flags.append("iss")
        if w.diamond:
            flags.append("diamond")
        tail = f" [{', '.join(flags)}]" if flags else ""
        print(f"{w.name:26s} {w.category:10s}{tail}")
    return 0


_COMMANDS = {
    "opt": _cmd_opt,
    "verify": _cmd_verify,
    "deps": _cmd_deps,
    "list": _cmd_list,
    "suite": _cmd_suite,
    "serve": _cmd_serve,
    "client": _cmd_client,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
