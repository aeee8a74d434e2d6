"""``verify homomesy`` and ``orbits`` judge each orbit's average.

Every orbit average a command reports is an orbit's window total over its
size (``homomesy.orbit_average`` through the statistic's ``total``).  Two
faults are planted in those totals.  One moves windows between two orbits
of different sizes, swapping their sums: the carrier's total, and so the
global average, stay as they are, but neither orbit averages one and the
orbits are not homomesic.  The other doubles every orbit's sum: the orbits
stay homomesic, at average two.  Each command must exit 1 on both, so a
verdict read off the global average alone, or off ``homomesic`` alone, fails
here.  ``tests/test_edge_masks.py`` plants the per-orbit fault in
``verify poset-edges``.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from braidhooks import homomesy
from braidhooks.cli import EXIT_FAIL, EXIT_PASS, main

# Five extensions in two dihedral orbits, of sizes 3 and 2.
SPLIT = "bot < 2\nbot < 3\n2 < 0\n2 < 1\n3 < 1\n0 < top\n1 < top\n"

COMMANDS = {
    "verify homomesy --shape": ["verify", "homomesy", "--shape", "right:4,3,2,1"],
    "orbits --shape": ["orbits", "--shape", "right:4,3,2,1"],
    "orbits --class-of-word": ["orbits", "--class-of-word", "1,2,1,3,2,1,4,3,2,1",
                               "--rank", "5"],
    "orbits --poset": ["orbits", "--poset", "{split}", "--ideal", "bot,2"],
}


@pytest.fixture(params=COMMANDS, ids=str)
def argv(request, tmp_path):
    split = tmp_path / "split.txt"
    split.write_text(SPLIT)
    return [arg.format(split=split) for arg in COMMANDS[request.param]]


def plant(monkeypatch, planted_total):
    """Every window statistic sums an orbit's ``states`` as
    ``planted_total(total, states)``, ``total`` its own sum."""
    make = homomesy._window_statistic

    def planted(windows):
        statistic = make(windows)
        total = statistic.total
        statistic.total = lambda states: planted_total(total, states)
        return statistic

    monkeypatch.setattr(homomesy, "_window_statistic", planted)


def run(argv) -> tuple[int, dict]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


def orbit_sums(argv, monkeypatch) -> dict:
    """Each orbit's size and window sum, by its first member's key."""
    sums = {}

    def recorded(total, states):
        n = total(states)
        sums[states[0].key()] = len(states), n
        return n

    with monkeypatch.context() as patch:
        plant(patch, recorded)
        assert run(argv)[0] == EXIT_PASS
    return sums


def averages(payload) -> list[str]:
    if "averages" in payload:  # verify homomesy: the distinct averages
        return payload["averages"]
    return sorted({o["average"] for o in payload["orbits"]})


def test_windows_moved_between_orbits_fail(argv, monkeypatch):
    sums = orbit_sums(argv, monkeypatch)
    assert all(total == size for size, total in sums.values())  # every average is one
    small = min(sums, key=lambda key: sums[key][0])
    large = max(sums, key=lambda key: sums[key][0])
    assert sums[small][0] < sums[large][0]
    moved = sums[large][1] - sums[small][1]
    delta = {small: moved, large: -moved}  # the two sums swapped; the total stays
    plant(monkeypatch, lambda total, states: total(states) + delta.get(states[0].key(), 0))
    code, payload = run(argv)
    assert code == EXIT_FAIL
    assert len(averages(payload)) > 1
    assert not payload.get("homomesic")  # verify homomesy reports no such field


def test_doubled_windows_fail_although_homomesic(argv, monkeypatch):
    plant(monkeypatch, lambda total, states: 2 * total(states))
    code, payload = run(argv)
    assert code == EXIT_FAIL
    assert averages(payload) == ["2"]
    assert payload.get("homomesic", True) is True
