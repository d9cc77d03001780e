"""The docs/USAGE.md recipes, as regression tests (docs must stay runnable)."""

import dataclasses
import re
from pathlib import Path

from repro import PipelineOptions, ProgramBuilder, optimize, parse_program
from repro.runtime import validate_transformation

USAGE = Path(__file__).parents[1] / "docs" / "USAGE.md"

WAVE = """
for (t = 1; t < T; t++)
    for (i = 1; i < N - 1; i++)
        A[t+1][i] = 2.0*A[t][i] - A[t-1][i] + 0.25*(A[t][i-1] - 2.0*A[t][i] + A[t][i+1]);
"""


def test_wave_recipe():
    p = parse_program(WAVE, "wave", params=("T", "N"), param_min=4)
    r = optimize(p, PipelineOptions(algorithm="plutoplus", tile_size=4))
    assert r.schedule.bands and r.schedule.bands[0].width == 2  # time-tilable
    assert validate_transformation(p, r.tiled, {"T": 6, "N": 12}).ok


def test_ring_builder_recipe():
    b = ProgramBuilder("ring", params=("T", "N"), param_min=4)
    with b.loop("t", 0, "T-1"):
        with b.loop("i", 0, "N-1"):
            b.stmt("A[t+1][i] = 0.5*(A[t][(i+1) % N] + A[t][(i-1) % N])")
    program = b.build()
    assert [r.guard is None for r in program.statements[0].reads] == [False] * 4
    res = optimize(program, PipelineOptions(iss=True, diamond=True))
    assert res.used_iss and res.used_diamond
    assert validate_transformation(res.program, res.tiled, {"T": 5, "N": 11}).ok


def test_ring_c_recipe(tmp_path, capsys):
    """The USAGE.md "Periodic stencils" ring.c, through the CLI."""
    from repro.cli import main

    section = USAGE.read_text().split("## Periodic stencils", 1)[1]
    source = section.split("```c\n", 1)[1].split("```", 1)[0]
    (tmp_path / "ring.c").write_text(source)
    assert main([
        "opt", str(tmp_path / "ring.c"), "--params", "T", "N", "--iss", "--diamond",
    ]) == 0
    out, err = capsys.readouterr()
    assert "repro_kernel" in out and "# ISS: True, diamond: True" in err


def test_quick_scheduler_recipe():
    """The USAGE.md "Scheduling faster" Python snippet."""
    result = optimize("gemm", PipelineOptions(scheduler="auto"))
    assert result.scheduler_stats.scheduler_path == "quick"
    assert result.scheduler_stats.fallback_reason is None
    assert result.scheduler_stats.fusion_groups


def test_serving_recipe(tmp_path):
    """The USAGE.md "Scheduling as a service" Python snippet."""
    import threading

    from repro.server import Daemon, DaemonConfig, ServerClient

    config = DaemonConfig(
        socket_path=str(tmp_path / "repro.sock"),
        cache_dir=str(tmp_path / "cache"),
        jobs=1,
        drain_seconds=5.0,
    )
    daemon = Daemon(config)
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    try:
        import os
        import time

        deadline = time.time() + 10
        while not os.path.exists(config.socket_path):
            assert time.time() < deadline
            time.sleep(0.01)
        with ServerClient(socket_path=config.socket_path) as client:
            response = client.optimize("fig1-skew")
            assert response["status"] == "ok" and response["cache"] == "miss"
            result = client.optimize_result("fig1-skew")
            assert result.schedule.depth >= 1
    finally:
        daemon.shutdown()
        thread.join(timeout=15)


def test_quickstart_readme_snippet():
    program = parse_program(
        """
        for (i = 0; i < N; i++)
            for (j = 0; j < N; j++)
                A[i+1][j+1] = 0.5 * A[i][j] + B[i][j];
        """,
        "demo",
        params=("N",),
    )
    result = optimize(program, PipelineOptions(algorithm="plutoplus"))
    assert result.schedule.rows[0].parallel  # outer parallel via negative skew
    assert "def kernel" in result.code.python_source


def test_native_backend_recipe(tmp_path):
    """The USAGE.md "Running at native speed" Python snippet (small sizes)."""
    from repro import ExecutionOptions
    from repro.exec import find_compiler
    from repro.runtime import random_arrays

    result = optimize("jacobi-2d-imper")
    params = {"TSTEPS": 4, "N": 16}
    arrays = random_arrays(result.program, params)
    stats = result.run(
        arrays, params,
        exec_options=ExecutionOptions(backend="c", cache_dir=str(tmp_path)),
    )
    if find_compiler() is None:
        assert stats.backend == "python"
        assert "no C compiler" in stats.fallback_reason
    else:
        assert stats.backend == "c"
        assert stats.artifact_cache in ("compiled", "disk", "memory")


def test_parallel_reductions_recipe():
    # docs/USAGE.md "Parallelizing reductions, and RAR locality"
    from repro.workloads import get_workload

    w = get_workload("dot")
    res = optimize(
        w.program(), w.pipeline_options("plutoplus", parallel_reductions="omp")
    )
    assert res.tiled.reduction_levels() == [0]
    assert "# parallel reduction" in res.code.python_source

    rar = optimize(
        get_workload("gemm").program(),
        PipelineOptions(algorithm="plutoplus", rar=True),
    )
    assert rar.dep_stats.rar_deps > 0


def test_knobs_table_names_each_declared_flag():
    """The USAGE.md "Knobs" table shows the flag each field declares."""
    text = USAGE.read_text()
    table = text.split("## Knobs", 1)[1].split("\n\n", 2)[1]
    flags = {}
    for row in table.splitlines()[2:]:
        option, _meaning, flag, _paper = row.strip("| ").split(" | ")
        flags.update(dict.fromkeys(re.findall(r"`(\w+)", option), flag))
    for f in dataclasses.fields(PipelineOptions):
        assert f.name in flags, f.name
        if f.metadata.get("flag"):
            assert flags[f.name].startswith(f"`{f.metadata['flag']}`"), f.name
