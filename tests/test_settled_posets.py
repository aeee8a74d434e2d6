"""The seeded ``verify poset-edges`` settles each distinct structure once.

``random_bounded_poset`` draws from few structures: the 2,145 draws of the
seed-0 benchmark run hold 95 distinct labelled posets.  ``posets._Settled``
keeps, for one run, each structure's first down-set table and orbit windows
(``_windows``), and a later draw of the same elements and cover masks takes
both before its first check.  Each draw stays its own ``Poset`` and every
pair still asks ``linear_extensions``, so the benchmark's traced counts hold;
the output must equal a loop that checks every draw afresh, whatever the
store's bound ``posets._SETTLED``, and the store never holds more than it.
"""

import gc
import io
import json
import random
import tracemalloc
from contextlib import redirect_stdout

import pytest

from braidhooks import posets
from braidhooks.cli import EXIT_PASS, main
from braidhooks.posets import Poset, order_ideals, random_bounded_poset, verify_edges


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def seeded(count, max_size, seed) -> list[str]:
    return ["verify", "poset-edges", "--count", str(count), "--max-size", str(max_size),
            "--seed", str(seed)]


def reference(count, max_size, seed) -> str:
    """The seeded JSON from ``verify_edges`` on a fresh twin of every draw, in
    ``order_ideals`` order, with nothing shared between draws."""
    rng, checked = random.Random(seed), 0
    for _ in range(count):
        poset = random_bounded_poset(rng, rng.randint(3, max_size))
        twin = Poset(poset.elements, poset.covers)
        for ideal in order_ideals(twin):
            if ideal and len(ideal) < twin.size:
                checked += 1
                if not verify_edges(twin, ideal)["ok"]:
                    return json.dumps({"theorem": "poset-edges", "checked": checked,
                                       "pass": False}, indent=2) + "\n"
    return json.dumps({"theorem": "poset-edges", "posets": count, "checked": checked,
                       "pass": True}, indent=2) + "\n"


def structure(poset):
    return poset.elements, tuple(poset._below)


def test_the_benchmark_goldens_hold(monkeypatch):
    # perfbench's traced seed-0 figures: a reuse that skips a pair's call fails here
    calls, objects = [], set()
    extensions = posets.linear_extensions

    def counted(poset, cap=None):
        result = extensions(poset, cap)
        calls.append(len(result))
        objects.add(poset)
        return result

    monkeypatch.setattr(posets, "linear_extensions", counted)
    code, out = run(seeded(2145, 6, 0))
    assert (code, json.loads(out)["checked"]) == (EXIT_PASS, 12_112)
    assert (len(calls), sum(calls), len(objects)) == (12_112, 100_020, 2_145)
    assert len({structure(poset) for poset in objects}) == 95


@pytest.mark.parametrize("max_size", range(3, 9))
@pytest.mark.parametrize("seed", range(5))
def test_reuse_changes_nothing(seed, max_size, monkeypatch):
    expected = reference(50, max_size, seed)
    assert run(seeded(50, max_size, seed)) == (EXIT_PASS, expected)
    for bound in (0, 40):  # nothing kept, and a few structures kept
        monkeypatch.setattr(posets, "_SETTLED", bound)
        assert run(seeded(50, max_size, seed)) == (EXIT_PASS, expected)


def held(settled) -> int:
    """The table states and window counts ``settled`` keeps, counted afresh."""
    return sum(len(table[0]) + sum(map(len, windows[1]))
               for table, windows in settled.known.values())


def test_the_store_never_holds_more_than_its_bound(monkeypatch):
    argv = seeded(300, 8, 1)
    _, unbounded = run(argv)
    sizes, structures = [], set()
    check = posets._Settled.check

    def watched(settled, poset, cap):
        result = check(settled, poset, cap)
        structures.add(structure(poset))
        sizes.append((settled.held, held(settled), len(settled.known)))
        return result

    monkeypatch.setattr(posets._Settled, "check", watched)
    monkeypatch.setattr(posets, "_SETTLED", 200)
    assert run(argv) == (EXIT_PASS, unbounded)
    assert all(kept == recount <= 200 for kept, recount, _ in sizes)
    assert 0 < sizes[-1][2] < len(structures)  # it kept some, then turned others away


def traced_peak(argv) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_small_bound_allocates_nothing_large(monkeypatch):
    argv = seeded(300, 8, 1)
    monkeypatch.setattr(posets, "_SETTLED", 0)
    run(argv)  # warm: imports and first-use caches
    nothing = traced_peak(argv)
    monkeypatch.setattr(posets, "_SETTLED", 200)
    small = traced_peak(argv)
    assert small < nothing + 64 * 1024
