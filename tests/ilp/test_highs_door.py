"""What ``repro.ilp.highs_backend.highs`` adds to an entry, and what escapes.

A MIP entry carries ``MIP_OPTIONS`` (feasibility jump off) if the bundled
HiGHS knows them, an LP entry nothing; scipy's "passed verbatim" warning
stays inside the module, and the capability question is asked once.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import optimize

from repro.ilp import highs_backend
from repro.ilp.highs_backend import MIP_OPTIONS, highs

SRC = Path(__file__).resolve().parents[2] / "src"

# min x + 2y  s.t.  2x + 2y >= 3,  0 <= x, y <= 5: LP optimum 1.5, MIP optimum 2
_C, _A = np.array([1.0, 2.0]), np.array([[2.0, 2.0]])


def _both():
    mip = highs(_C, _A, 3, np.inf, 0, 5, np.array([True, True]), mip_rel_gap=0)
    lp = highs(_C, _A, 3, np.inf, 0, 5)
    return (mip.status, round(mip.fun, 9), lp.status, round(lp.fun, 9))


def _spy(monkeypatch):
    sent = []
    real = optimize.milp

    def milp(*args, **kwargs):
        sent.append((bool(np.any(kwargs["integrality"])), dict(kwargs["options"])))
        return real(*args, **kwargs)

    monkeypatch.setattr(optimize, "milp", milp)
    return sent


def test_mip_entries_carry_the_options_and_lp_entries_nothing(monkeypatch):
    sent = _spy(monkeypatch)
    assert _both() == (0, 2.0, 0, 1.5)
    (_, mip_options), (_, lp_options) = sent[-2:]
    assert mip_options == {"mip_rel_gap": 0, **MIP_OPTIONS}
    assert lp_options == {}
    assert highs_backend._mip_options.cache_info().misses <= 1


def test_an_unknown_option_is_not_passed_and_the_answers_are_the_same(monkeypatch):
    want = _both()
    monkeypatch.setattr(highs_backend, "_mip_options", dict)  # probe said "unknown"
    sent = _spy(monkeypatch)
    assert _both() == want
    assert [options for _, options in sent] == [{"mip_rel_gap": 0}, {}]


def test_the_probe_recognises_an_option_highs_does_not_know(monkeypatch):
    """An older HiGHS answers for feasibility jump as this one does for a
    made-up name: an ``OptimizeWarning`` the probe reads and nobody sees."""
    monkeypatch.setattr(highs_backend, "MIP_OPTIONS", {"mip_heuristic_run_no_such": False})
    highs_backend._mip_options.cache_clear()
    try:
        assert highs_backend._mip_options() == {}
    finally:
        highs_backend._mip_options.cache_clear()
    monkeypatch.undo()
    assert highs_backend._mip_options() == MIP_OPTIONS


_STRICT_CALLER = """
import warnings
warnings.simplefilter("error")            # before repro is imported, as -W error is
import numpy as np
from repro.ilp import highs_backend
from repro.ilp.highs_backend import highs

c, a = np.array([1.0, 2.0]), np.array([[2.0, 2.0]])
for _ in range(3):
    mip = highs(c, a, 3, np.inf, 0, 5, np.array([True, True]), mip_rel_gap=0)
    lp = highs(c, a, 3, np.inf, 0, 5)
    assert (mip.status, round(mip.fun, 9), lp.status, round(lp.fun, 9)) == (0, 2.0, 0, 1.5)
info = highs_backend._mip_options.cache_info()
assert (info.misses, info.hits) == (1, 2), info
assert highs_backend._mip_options() == highs_backend.MIP_OPTIONS
print("quiet")
"""


def test_no_warning_of_any_category_reaches_a_strict_caller():
    """One small MIP and one LP, three times, in a process that turns every
    warning into an error: scipy's ``RuntimeWarning`` per MIP entry is
    filtered at import, and the probe ran once.  (A subprocess, because
    pytest rebuilds the filter list around each test.)"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _STRICT_CALLER],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "quiet" and not done.stderr
