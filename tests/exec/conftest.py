"""Shared fixtures for the native-execution tests.

Everything that compiles goes through a per-test artifact cache under
``tmp_path`` so tests never touch (or depend on) the user's real kernel
cache; tests that need a toolchain skip with a reason instead of failing
on compiler-less machines (the ``compiler`` fixture, ``tests/conftest.py``).
"""

import pytest


@pytest.fixture
def exec_opts(tmp_path, compiler):
    """C-backend options with an isolated artifact cache."""
    from repro.exec import ExecutionOptions

    return ExecutionOptions(backend="c", cache_dir=str(tmp_path / "kernels"))
