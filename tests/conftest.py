"""Fixtures shared by every test directory."""

import pytest

from repro.exec import find_compiler


@pytest.fixture
def compiler():
    """The system C compiler, or a skip with the reason recorded."""
    comp = find_compiler()
    if comp is None:
        pytest.skip("no C compiler found (tried $REPRO_CC, cc, gcc, clang)")
    return comp
