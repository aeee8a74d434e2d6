"""The down-set walk keeps its own stack: long chains neither recurse nor fail.

The walk used to recurse once per element, so a chain longer than the
interpreter's recursion limit ended in ``RecursionError``, in the library
and through every command that enumerates.
"""

import json

import pytest

from braidhooks.cli import EXIT_PASS, main
from braidhooks.errors import ExplosionGuardError
from braidhooks.posets import LinearExtension, Poset, chain_poset, linear_extensions
from braidhooks.tableaux import Shape, standard_tableaux


def test_long_chain_has_one_extension():
    (only,) = linear_extensions(chain_poset(3000))
    assert only.seq == tuple(range(3000))


def test_long_row_has_one_filling():
    shape = Shape.right((1500,))
    (only,) = standard_tableaux(shape)
    assert only.pos == shape.cells


def test_empty_order_has_one_extension():
    poset = Poset([], [])
    assert linear_extensions(poset) == [LinearExtension(poset, ())]
    assert len(linear_extensions(poset, cap=1)) == 1
    with pytest.raises(ExplosionGuardError):
        linear_extensions(poset, cap=0)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("".join(f"{i} < {i + 1}\n" for i in range(1499)))
    return str(path)


def test_enumerate_long_row(capsys):
    assert main(["enumerate", "--shape", "right:1500"]) == EXIT_PASS
    assert capsys.readouterr().out.strip().endswith("count: 1")


def test_verify_poset_edges_on_long_chain(chain_file, capsys):
    code = main(["verify", "poset-edges", "--poset", chain_file, "--ideal", "0",
                 "--format", "json"])
    assert code == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert (report["lhs"], report["rhs"], report["pass"]) == (1, 1, True)


def test_orbits_on_long_chain(chain_file, capsys):
    code = main(["orbits", "--poset", chain_file, "--ideal", "0", "--format", "json"])
    assert code == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["homomesic"] is True


def test_chain_walk_makes_linearly_many_placeability_tests(monkeypatch):
    # each new down-set's addable list comes from its parent's, so a step
    # tests only the upper covers of the element it placed
    from braidhooks import posets

    tests = []
    placeable = posets._placeable

    def counted(below, mask, i):
        tests.append(i)
        return placeable(below, mask, i)

    monkeypatch.setattr(posets, "_placeable", counted)
    (only,) = linear_extensions(chain_poset(3000))
    assert only.seq == tuple(range(3000))
    assert len(tests) <= 2 * 3000
