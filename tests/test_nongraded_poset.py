"""The edge theorem and the descent averages on a poset that is not graded.

Every poset ``random_bounded_poset`` draws is graded.  This one, with
``bot < 0 < 1 < 4 < top``, ``bot < 2 < 3 < top`` and ``2 < 4``, is not: the
maximal chain through 0 has five elements and the one through 3 has four.
``verify_edges`` passes on each of its 11 proper nonempty ideals.  In every
group, the orbits and averages that ``orbits --poset`` prints, the descents
counted as cover windows, are those of a report that counts ``descents``
one extension at a time.  The order-two groups are not homomesic on 16
(group, ideal) pairs, so the averages are compared with that report, not
with 1.
"""

import json

import pytest

from braidhooks.cli import EXIT_FAIL, EXIT_PASS, main
from braidhooks.homomesy import MODES, homomesy_report
from braidhooks.posets import (descents, linear_extensions, order_ideals, poset_from_lines,
                               verify_edges)

TEXT = "bot < 0\n0 < 1\n1 < 4\n4 < top\nbot < 2\n2 < 3\n3 < top\n2 < 4\n"
# the (group, ideal) pairs of the per-extension report with an average other than 1
NOT_ALL_ONE = {"dihedral": 0, "gyration": 0, "order-two-odd": 7, "order-two-even": 9}


def proper_ideals(poset) -> list[frozenset]:
    return [ideal for ideal in order_ideals(poset) if ideal and len(ideal) < poset.size]


def chain_lengths(poset, element="bot") -> set[int]:
    """The element counts of the maximal chains from ``element`` up."""
    above = poset.covers_of(element)
    return {1 + n for e in above for n in chain_lengths(poset, e)} if above else {1}


def test_the_poset_is_bounded_and_not_graded():
    poset = poset_from_lines(TEXT)
    assert (poset.minimum(), poset.maximum()) == ("bot", "top")
    assert chain_lengths(poset) == {4, 5}


def test_verify_edges_passes_on_every_proper_ideal():
    poset = poset_from_lines(TEXT)
    ideals = proper_ideals(poset)
    assert len(ideals) == 11
    for ideal in ideals:
        report = verify_edges(poset, ideal)
        assert report["ok"] and report["lhs"] == report["rhs"], sorted(ideal)


@pytest.mark.parametrize("group", MODES)
def test_orbit_averages_equal_the_per_extension_report(group, tmp_path, capsys):
    path = tmp_path / "poset.txt"
    path.write_text(TEXT)
    poset = poset_from_lines(TEXT)
    not_all_one = 0
    for ideal in proper_ideals(poset):
        code = main(["orbits", "--poset", str(path), "--ideal", ",".join(ideal),
                     "--group", group])
        printed = json.loads(capsys.readouterr().out)
        report = homomesy_report(linear_extensions(poset),
                                 lambda extension: len(descents(extension, ideal)), group)
        assert printed["orbits"] == [
            {"size": o["size"], "average": str(o["average"]),
             "representative": " ".join(o["representative"].seq)}
            for o in report["orbits"]
        ], sorted(ideal)
        assert printed["homomesic"] == report["homomesic"]
        all_one = all(o["average"] == 1 for o in report["orbits"])
        assert code == (EXIT_PASS if all_one else EXIT_FAIL)
        not_all_one += not all_one
    assert not_all_one == NOT_ALL_ONE[group]
