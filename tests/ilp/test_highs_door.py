"""What ``repro.ilp.highs_backend.highs`` adds to an entry, and what escapes.

A MIP entry switches feasibility jump off (``MIP_OPTIONS``), an LP entry
sets nothing beyond the door's own ``log_to_console``; an option HiGHS does
not know is skipped, and nothing is printed or warned on the way.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy.optimize._highspy._core import HighsStatus

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
    """Every ``setOptionValue`` of every entry: ``[{name: (value, status)}]``."""
    entries = []

    class Spy(highs_backend._Highs):
        def __init__(self):
            super().__init__()
            self.sent = {}
            entries.append(self.sent)

        def setOptionValue(self, name, value):
            status = super().setOptionValue(name, value)
            self.sent[name] = (value, status)
            return status

    monkeypatch.setattr(highs_backend, "_Highs", Spy)
    return entries


def test_mip_entries_carry_the_options_and_lp_entries_nothing(monkeypatch):
    entries = _spy(monkeypatch)
    assert _both() == (0, 2.0, 0, 1.5)
    mip, lp = entries
    ok = HighsStatus.kOk
    assert mip == {
        "log_to_console": (False, ok), "mip_rel_gap": (0, ok),
        **{name: (value, ok) for name, value in MIP_OPTIONS.items()},
    }
    assert lp == {"log_to_console": (False, ok)}


def test_an_unknown_option_is_not_passed_and_the_answers_are_the_same(monkeypatch, capfd):
    """A HiGHS that predates an option answers for it as this one does for a
    made-up name: ``kError`` from ``setOptionValue``, nothing printed."""
    want = _both()
    monkeypatch.setattr(
        highs_backend, "MIP_OPTIONS", {"mip_heuristic_run_no_such": False, **MIP_OPTIONS}
    )
    entries = _spy(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _both() == want
    assert entries[0]["mip_heuristic_run_no_such"] == (False, HighsStatus.kError)
    assert entries[0]["mip_heuristic_run_feasibility_jump"] == (False, HighsStatus.kOk)
    assert capfd.readouterr() == ("", "")


_STRICT_CALLER = """
import warnings
warnings.simplefilter("error")            # before repro is imported, as -W error is
import numpy as np
from repro.ilp.highs_backend import highs

c, a = np.array([1.0, 2.0]), np.array([[2.0, 2.0]])
for _ in range(3):
    mip = highs(c, a, 3, np.inf, 0, 5, np.array([True, True]), mip_rel_gap=0)
    lp = highs(c, a, 3, np.inf, 0, 5)
    assert (mip.status, round(mip.fun, 9), lp.status, round(lp.fun, 9)) == (0, 2.0, 0, 1.5)
assert not [f for f in warnings.filters
            if "highs" in str(f[3]) or "Unrecognized" in str(f[1])], warnings.filters
print("quiet")
"""


def test_no_warning_of_any_category_reaches_a_strict_caller():
    """One small MIP and one LP, three times, under ``-W error`` and a
    process that turns every warning into an error, with no filter of the
    door's own: nothing is warned and HiGHS prints nothing.  (A subprocess,
    because pytest rebuilds the filter list around each test.)"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _STRICT_CALLER],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "quiet\n" and not done.stderr
