"""What ``repro.ilp.highs_backend.highs`` adds to an entry, and what escapes.

A MIP entry switches feasibility jump off (``MIP_OPTIONS``), an LP entry
sets nothing beyond the door's own ``log_to_console``; an option HiGHS does
not know is skipped, and nothing is printed or warned on the way.  Each
thread keeps one HiGHS across entries: an entry sees neither the model nor
the options of the one before, and answers bit for bit as a new HiGHS would.
"""

import copy
import os
import random
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
from scipy.optimize._highspy._core import HighsStatus, _Highs

from repro.api import optimize
from repro.ilp import highs_backend
from repro.ilp.highs_backend import MIP_OPTIONS, highs
from repro.polyhedra.cache import global_cache
from repro.workloads import get_workload

SRC = Path(__file__).resolve().parents[2] / "src"

# min x + 2y  s.t.  2x + 2y >= 3,  0 <= x, y <= 5: LP optimum 1.5, MIP optimum 2
_C, _A = np.array([1.0, 2.0]), np.array([[2.0, 2.0]])


def _both():
    mip = highs(_C, _A, 3, np.inf, 0, 5, np.array([True, True]), mip_rel_gap=0)
    lp = highs(_C, _A, 3, np.inf, 0, 5)
    return (mip.status, round(mip.fun, 9), lp.status, round(lp.fun, 9))


def _spy(monkeypatch):
    """Every ``setOptionValue`` of every entry: ``[{name: (value, status)}]``.

    The door makes this thread's HiGHS anew (a fresh ``_local``) as a
    ``Spy``; each entry starts by clearing its model, which opens a record."""
    entries = []

    class Spy(highs_backend._Highs):
        def clearModel(self):
            entries.append({})
            return super().clearModel()

        def setOptionValue(self, name, value):
            status = super().setOptionValue(name, value)
            entries[-1][name] = (value, status)
            return status

    monkeypatch.setattr(highs_backend, "_Highs", Spy)
    monkeypatch.setattr(highs_backend, "_local", threading.local())
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


def test_one_solver_per_thread(monkeypatch):
    """A thread makes its HiGHS on its first entry and reuses it; another
    thread makes its own and answers the same."""
    made = []

    class Counted(highs_backend._Highs):
        def __init__(self):
            super().__init__()
            made.append(threading.get_ident())

    monkeypatch.setattr(highs_backend, "_Highs", Counted)
    monkeypatch.setattr(highs_backend, "_local", threading.local())
    want = _both()
    assert _both() == want
    answers = []
    other = threading.Thread(target=lambda: answers.append(_both()))
    other.start()
    other.join(timeout=60)
    assert not other.is_alive() and answers == [want]
    assert made == [threading.get_ident(), other.ident]


_LEAKY = ("mip_max_nodes", "mip_rel_gap", "mip_heuristic_run_feasibility_jump")


def test_an_entry_sees_no_option_of_the_entry_before(monkeypatch):
    """A MIP capped at one node, then an LP, then a MIP without the cap:
    after each, the reused HiGHS holds that entry's options and HiGHS's
    defaults for everything else, and the last MIP answers as a new HiGHS."""
    monkeypatch.setattr(highs_backend, "_local", threading.local())
    default = {name: _Highs().getOptionValue(name)[1] for name in _LEAKY}

    def held():
        return {name: highs_backend._solver().getOptionValue(name)[1] for name in _LEAKY}

    integral = np.array([True, True])
    highs(_C, _A, 3, np.inf, 0, 5, integral, mip_max_nodes=1, mip_rel_gap=0)
    assert held() == {**default, "mip_max_nodes": 1, "mip_rel_gap": 0, **MIP_OPTIONS}
    assert highs(_C, _A, 3, np.inf, 0, 5).fun == 1.5
    assert held() == default
    last = highs(_C, _A, 3, np.inf, 0, 5, integral)
    assert held() == {**default, **MIP_OPTIONS}
    monkeypatch.setattr(highs_backend, "_solver", _Highs)
    assert _bits(highs(_C, _A, 3, np.inf, 0, 5, integral)) == _bits(last)


def _bits(res):
    """An answer as bytes: equal only when every float is bitwise equal."""
    return res.status, res.mip_node_count, np.float64(res.fun).tobytes(), (
        None if res.x is None else res.x.tobytes()
    )


def _recorded_entries():
    """Every door entry of a cold gemm and heat-2dp compile, arguments
    copied as they were handed over (a session's bounds move after)."""
    entries, real = [], highs_backend.highs

    def record(*args, **options):
        entries.append(copy.deepcopy((args, options)))
        return real(*args, **options)

    highs_backend.highs = record
    try:
        for name in ("gemm", "heat-2dp"):
            workload = get_workload(name)
            global_cache().clear()
            optimize(workload.program(), workload.pipeline_options("plutoplus"))
    finally:
        highs_backend.highs = real
    return entries


def test_a_reused_solver_answers_bit_for_bit_as_a_new_one(monkeypatch):
    """The recorded entries, shuffled, through the one reused HiGHS and
    through a new HiGHS per entry: ``status``, ``x`` and ``fun`` bitwise
    equal.  The recorded entries all set the same options, so each is also
    replayed with presolve off, an option that moves answers: an entry that
    inherited it from the one before would answer differently."""
    entries = _recorded_entries()
    assert len(entries) > 150
    entries += [(args, {**options, "presolve": "off"}) for args, options in entries]
    random.Random(0).shuffle(entries)

    def replay():
        return [highs(*args, **options) for args, options in entries]

    monkeypatch.setattr(highs_backend, "_local", threading.local())
    reused = replay()
    monkeypatch.setattr(highs_backend, "_solver", _Highs)
    fresh = replay()
    differ = [i for i, (r, f) in enumerate(zip(reused, fresh)) if _bits(r) != _bits(f)]
    assert not differ, f"{len(differ)} of {len(entries)} entries differ, first {differ[:5]}"


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
