"""A command runs with the cycle collector paused, and its results hold no cycles.

``cli.main`` disables the collector around the chosen command and restores
its state on every exit.  That is safe only while the package builds no
reference cycles: reference counting then frees every result, and a cycle
would instead stay in memory until the process ends.  So these tests check
the restore on each exit path, that library results leave nothing for the
collector, and that no command leaves more cyclic garbage on a larger input.
"""

import gc
import random
from contextlib import contextmanager

import pytest

from braidhooks import cli, homomesy, posets, tableaux, words
from braidhooks.cli import EXIT_CAP, EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main, parse_shape

DIAMOND = "bot < a\nbot < b\na < top\nb < top\n"
NINE = "bot < a\nbot < b\nbot < e\na < c\nb < c\nb < d\ne < d\nc < top\nd < top\n"


@contextmanager
def collector(enabled):
    """Run the block with the collector on or off, then put it back."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


def cyclic_garbage(build):
    """How many objects the collector finds unreachable once ``build()`` has
    run and its result is dropped; nothing else is collected meanwhile."""
    with collector(False):
        gc.collect()
        build()
        return gc.collect()


EXITS = {
    "pass": (["verify", "reiner", "--n", "3"], EXIT_PASS),
    "fail": (["orbits", "--shape", "right:3,2,1", "--sample", "5"], EXIT_FAIL),
    "usage": (["enumerate", "--shape", "4,3,2,1"], EXIT_USAGE),
    "cap": (["--cap", "5", "verify", "reiner", "--n", "6"], EXIT_CAP),
}


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("argv, code", EXITS.values(), ids=EXITS.keys())
    def test_restored_on_every_exit_code(self, argv, code, enabled, capsys):
        with collector(enabled):
            assert main(argv) == code
            assert gc.isenabled() is enabled
        capsys.readouterr()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_restored_when_the_command_raises(self, enabled, monkeypatch):
        seen = []

        def boom(args):
            seen.append(gc.isenabled())
            raise KeyError("boom")

        monkeypatch.setattr(cli, "cmd_window", boom)
        with collector(enabled):
            with pytest.raises(KeyError, match="boom"):
                main(["window", "--word", "1,2,1", "--rank", "3"])
            assert gc.isenabled() is enabled
        assert seen == [False]  # paused while the command ran

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_out_of_memory_exits_3_with_a_message(self, enabled, monkeypatch, capsys):
        def starved(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_window", starved)
        with collector(enabled):
            assert main(["window", "--word", "1,2,1", "--rank", "3"]) == EXIT_CAP
            assert gc.isenabled() is enabled
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory in window;")
        assert "Traceback" not in captured.err

    def test_library_calls_leave_it_alone(self):
        with collector(True):
            words.all_reduced_words(words.Permutation.longest(4))
            assert gc.isenabled()


def seeded_posets():
    rng = random.Random(11)
    return [posets.random_bounded_poset(rng, rng.randint(3, 6)) for _ in range(5)]


def check_poset_edges():
    for poset in seeded_posets():
        posets.linear_extensions(poset)
        for ideal in posets.order_ideals(poset):
            if ideal and len(ideal) < poset.size:
                posets.verify_edges(poset, ideal)


STAIRCASE = parse_shape("right:5,4,3,2,1")

BUILDS = {
    "all_reduced_words": lambda: words.all_reduced_words(words.Permutation.longest(6)),
    "commutation_class": lambda: words.commutation_class(words.staircase_word(6)),
    "standard_tableaux": lambda: tableaux.standard_tableaux(STAIRCASE),
    "verify_edges": check_poset_edges,
    **{
        f"dihedral_orbits {mode}": (
            lambda mode=mode: homomesy.dihedral_orbits(tableaux.standard_tableaux(STAIRCASE), mode)
        )
        for mode in homomesy.MODES
    },
    "homomesy_report": lambda: homomesy.homomesy_report(
        tableaux.standard_tableaux(STAIRCASE), homomesy.tableau_statistic("braid-hooks")
    ),
}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_library_results_hold_no_cycles(build):
    assert cyclic_garbage(build) == 0


# Each command on a small and on a larger input.  The parser's own cycles are
# garbage once ``main`` returns, the same number for both.
PAIRS = {
    "verify reiner": (["verify", "reiner", "--n", "4"], ["verify", "reiner", "--n", "6"]),
    "verify commutation-class": (
        ["verify", "commutation-class", "--n", "4"],
        ["verify", "commutation-class", "--n", "6"],
    ),
    "orbits --shape": (
        ["orbits", "--shape", "right:3,2,1"],
        ["orbits", "--shape", "right:5,4,3,2,1"],
    ),
    "verify poset-edges": (
        ["verify", "poset-edges", "--count", "10"],
        ["verify", "poset-edges", "--count", "200"],
    ),
    "orbits --sample": (
        ["orbits", "--shape", "right:5,4,3,2,1", "--sample", "20"],
        ["orbits", "--shape", "right:5,4,3,2,1", "--sample", "200"],
    ),
    "orbits --poset": (
        ["orbits", "--poset", "{diamond}", "--ideal", "bot"],
        ["orbits", "--poset", "{nine}", "--ideal", "bot,a"],
    ),
    "enumerate --shape": (
        ["enumerate", "--shape", "right:3,2,1"],
        ["enumerate", "--shape", "right:5,4,3,2,1"],
    ),
    "enumerate --class-of-word": (
        ["enumerate", "--class-of-word", "1,2,1", "--rank", "3"],
        ["enumerate", "--class-of-word", "1,2,3,4,1,2,3,1,2,1", "--rank", "5"],
    ),
    "window": (
        ["window", "--word", "1,2,1", "--rank", "3"],
        ["window", "--word", "1,2,3,4,1,2,3,1,2,1", "--rank", "5"],
    ),
}


@pytest.mark.parametrize("small, large", PAIRS.values(), ids=PAIRS.keys())
def test_no_command_leaves_more_garbage_on_a_larger_input(small, large, tmp_path, capsys):
    files = {"{diamond}": DIAMOND, "{nine}": NINE}
    for name, text in files.items():
        (tmp_path / name.strip("{}")).write_text(text)

    def run(argv):
        main([str(tmp_path / arg.strip("{}")) if arg in files else arg for arg in argv])

    run(small)  # first-call caches (imports, compiled patterns) are not garbage
    counts = [cyclic_garbage(lambda: run(small)), cyclic_garbage(lambda: run(large))]
    capsys.readouterr()
    assert counts[0] == counts[1]
