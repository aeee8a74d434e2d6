"""``verify_edges`` counts each orbit's cover windows once per poset.

An ideal's descents are the windows p, q of an extension with q covering p,
p in the ideal and q outside it, so an orbit's descent sum is the sum, over
the covers the ideal cuts, of how many members place q right after p.  The
reports must equal the per-extension ``descents`` sums on every proper
ideal, and the ``verify poset-edges`` output must stay byte for byte as
recorded in ``golden_poset_edges.json`` before the counts were kept.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from braidhooks.cli import main
from braidhooks.homomesy import dihedral_orbits
from braidhooks.posets import (
    Poset,
    descents,
    diamond_poset,
    linear_extensions,
    order_ideals,
    random_bounded_poset,
    verify_edges,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_poset_edges.json").read_text())


def reference(poset: Poset, ideal: frozenset) -> dict:
    """The report from the descents of every extension, orbit by orbit."""
    extensions = linear_extensions(Poset(poset.elements, poset.covers))
    orbits = dihedral_orbits(extensions, "dihedral")
    sums = [sum(len(descents(ext, ideal)) for ext in orbit.members) for orbit in orbits]
    return {
        "lhs": len(extensions),
        "rhs": sum(sums),
        "ok": sum(sums) == len(extensions) and all(s == o.size for o, s in zip(orbits, sums)),
        "per_orbit": [{"size": o.size, "average": Fraction(s, o.size)}
                      for o, s in zip(orbits, sums)],
    }


def seeded_posets():
    rng = random.Random(1313)
    return [random_bounded_poset(rng, size) for size in range(3, 9) for _ in range(6)]


@pytest.mark.parametrize("poset", [diamond_poset(), *seeded_posets()],
                         ids=lambda p: f"{p.size}-{len(p.covers)}")
def test_reports_equal_descent_sums(poset):
    ideals = [i for i in order_ideals(poset) if i and len(i) < poset.size]
    assert ideals
    for ideal in ideals:
        assert verify_edges(poset, ideal) == reference(poset, ideal), sorted(map(str, ideal))


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"][2:]))
def test_verify_poset_edges_output_is_unchanged(case, tmp_path, capsys):
    poset = tmp_path / "poset.txt"
    poset.write_text(GOLDEN["poset"])
    argv = [str(poset) if arg == "{poset}" else arg for arg in case["argv"]]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])
