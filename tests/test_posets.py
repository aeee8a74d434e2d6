"""Posets, extensions, ideals, descents, and the edge-counting theorem."""

import random
import re

import pytest

from braidhooks.errors import (
    NotADescentError,
    PosetBoundsError,
    TrivialIdealError,
)
from braidhooks.heaps import shape_poset
from braidhooks.homomesy import dihedral_orbits
from braidhooks.posets import (
    LinearExtension,
    Poset,
    antichain_poset,
    chain_poset,
    descents,
    diamond_poset,
    linear_extensions,
    order_ideals,
    parse_ideal,
    poset_from_lines,
    poset_phi,
    poset_phi_inverse,
    random_bounded_poset,
    tau_on_extension,
    verify_edges,
)
from braidhooks.tableaux import Shape


class TestPosetBasics:
    def test_transitive_reduction(self):
        poset = Poset([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
        assert poset.covers == frozenset({(0, 1), (1, 2)})

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Poset([0, 1], [(0, 1), (1, 0)])

    @pytest.mark.parametrize("covers", [[("a", "c")], [("c", "a")], [("a", "b"), ("b", "c")]])
    def test_cover_outside_the_elements_is_named(self, covers):
        with pytest.raises(ValueError, match="cover element 'c' is not in elements"):
            Poset("ab", covers)

    def test_bounds(self):
        assert diamond_poset().minimum() == "bot"
        assert diamond_poset().maximum() == "top"
        assert antichain_poset(2).minimum() is None


class TestExtensionsAndIdeals:
    def test_chain_has_one_extension(self):
        assert len(linear_extensions(chain_poset(5))) == 1

    def test_diamond_has_two(self):
        assert len(linear_extensions(diamond_poset())) == 2

    def test_staircase_cells_have_twelve(self):
        poset = shape_poset(Shape.right((4, 3, 2, 1)))
        assert len(linear_extensions(poset)) == 12

    def test_chain_ideals(self):
        assert len(order_ideals(chain_poset(4))) == 5

    def test_antichain_ideals(self):
        assert len(order_ideals(antichain_poset(4))) == 16

    def test_diamond_ideals(self):
        found = order_ideals(diamond_poset())
        assert len(found) == 6
        assert frozenset() in found and frozenset(diamond_poset().elements) in found

    def test_caps_guard_enumeration(self):
        from braidhooks.errors import ExplosionGuardError

        with pytest.raises(ExplosionGuardError):
            linear_extensions(antichain_poset(6), cap=10)
        with pytest.raises(ExplosionGuardError):
            order_ideals(antichain_poset(8), cap=10)

    def test_zero_cap_is_honoured(self):
        from braidhooks.errors import ExplosionGuardError

        with pytest.raises(ExplosionGuardError):
            linear_extensions(chain_poset(2), cap=0)
        with pytest.raises(ExplosionGuardError):
            order_ideals(chain_poset(2), cap=0)
        with pytest.raises(ExplosionGuardError) as raised:
            order_ideals(Poset([], []), cap=0)
        assert (raised.value.cap, raised.value.what) == (0, "order ideals")


class TestDescents:
    def test_trivial_ideals_give_no_descents(self):
        poset = diamond_poset()
        for ext in linear_extensions(poset):
            assert descents(ext, frozenset()) == set()
            assert descents(ext, frozenset(poset.elements)) == set()

    def test_diamond_bottom_ideal(self):
        poset = diamond_poset()
        ext = LinearExtension(poset, ("bot", "left", "right", "top"))
        assert descents(ext, frozenset({"bot"})) == {"bot"}

    def test_descents_are_in_the_ideal_and_covered(self):
        rng = random.Random(5)
        for _ in range(20):
            poset = random_bounded_poset(rng, rng.randint(3, 7))
            for ideal in order_ideals(poset):
                for ext in linear_extensions(poset):
                    for p in descents(ext, ideal):
                        assert p in ideal
                        q = ext.element(ext.label(p) + 1)
                        assert q in poset.covers_of(p)

    def test_corollary_on_the_diamond(self):
        poset = diamond_poset()
        exts = linear_extensions(poset)
        for ideal in order_ideals(poset):
            if not ideal or len(ideal) == poset.size:
                continue
            assert sum(len(descents(ext, ideal)) for ext in exts) == len(exts)


class TestTau:
    def test_chain_is_rigid(self):
        ext = linear_extensions(chain_poset(4))[0]
        for i in range(1, 4):
            assert tau_on_extension(ext, i) == ext

    def test_diamond_middle_swap(self):
        a, b = linear_extensions(diamond_poset())
        assert tau_on_extension(a, 2) == b
        assert tau_on_extension(b, 2) == a

    def test_involution(self):
        poset = random_bounded_poset(random.Random(11), 7)
        for ext in linear_extensions(poset):
            for i in range(1, poset.size):
                assert tau_on_extension(tau_on_extension(ext, i), i) == ext


class TestPhi:
    def test_diamond_counts(self):
        poset = diamond_poset()
        exts = linear_extensions(poset)
        ideal = frozenset({"bot"})
        pairs = [(p, ext) for ext in exts for p in descents(ext, ideal)]
        images = [poset_phi(p, ext, ideal) for p, ext in pairs]
        assert len(set(images)) == len(pairs) == len(exts)

    def test_round_trip_random_family(self):
        rng = random.Random(23)
        for _ in range(30):
            poset = random_bounded_poset(rng, rng.randint(3, 7))
            exts = linear_extensions(poset)
            for ideal in order_ideals(poset):
                if not ideal or len(ideal) == poset.size:
                    continue
                pairs = [(p, ext) for ext in exts for p in descents(ext, ideal)]
                images = []
                for p, ext in pairs:
                    image = poset_phi(p, ext, ideal)
                    assert poset_phi_inverse(image, ideal) == (p, ext)
                    images.append(image)
                assert len(set(images)) == len(pairs) == len(exts)

    def test_orbit_preserving(self):
        poset = diamond_poset()
        exts = linear_extensions(poset)
        ideal = frozenset({"bot"})
        orbits = dihedral_orbits(exts)
        orbit_of = {e: i for i, orbit in enumerate(orbits) for e in orbit.members}
        for ext in exts:
            for p in descents(ext, ideal):
                assert orbit_of[poset_phi(p, ext, ideal)] == orbit_of[ext]

    def test_requires_bounds(self):
        poset = antichain_poset(3)
        ext = linear_extensions(poset)[0]
        with pytest.raises(PosetBoundsError):
            poset_phi(0, ext, frozenset({0}))

    def test_requires_descent(self):
        poset = diamond_poset()
        ext = linear_extensions(poset)[0]
        with pytest.raises(NotADescentError):
            poset_phi("top", ext, frozenset({"bot"}))


class TestVerifyEdges:
    def test_diamond(self):
        report = verify_edges(diamond_poset(), frozenset({"bot"}))
        assert report["lhs"] == report["rhs"] == 2
        assert report["ok"]
        assert [o["average"] for o in report["per_orbit"]] == [1]

    def test_staircase_cells(self):
        poset = shape_poset(Shape.right((4, 3, 2, 1)))
        bottom = poset.minimum()
        report = verify_edges(poset, frozenset({bottom}))
        assert report["lhs"] == report["rhs"] == 12
        assert report["ok"]

    def test_extension_counts_agree_with_tableau_enumeration(self):
        # two independent enumerators: the poset extension backtracker and
        # the standard-filling backtracker, over every shape poset
        from braidhooks.tableaux import standard_tableaux
        from helpers import partitions, strict_partitions

        shapes = [Shape.right(o) for n in range(1, 10) for o in partitions(n)]
        shapes += [
            Shape.half_right(o)
            for n in range(2, 10)
            for o in strict_partitions(n)
            if len(o) >= 2
        ]
        for shape in shapes:
            poset = shape_poset(shape)
            assert len(linear_extensions(poset)) == len(standard_tableaux(shape))

    def test_rejects_trivial_ideal(self):
        with pytest.raises(TrivialIdealError):
            verify_edges(diamond_poset(), frozenset())

    def test_random_sweep(self):
        rng = random.Random(97)
        for _ in range(60):
            poset = random_bounded_poset(rng, rng.randint(3, 7))
            for ideal in order_ideals(poset):
                if not ideal or len(ideal) == poset.size:
                    continue
                assert verify_edges(poset, ideal)["ok"]


class TestParsing:
    def test_poset_from_lines(self):
        poset = poset_from_lines("a < b\nb < c\n# comment\na < c\n")
        assert poset.covers == frozenset({("a", "b"), ("b", "c")})
        # each name once, in the order of its first appearance
        poset = poset_from_lines("c < a\nd < a\nc < b\nd < b\nb < e\na < e\nc < a\n")
        assert poset.elements == ("c", "a", "d", "b", "e")
        assert poset.covers == frozenset(
            {("c", "a"), ("d", "a"), ("c", "b"), ("d", "b"), ("b", "e"), ("a", "e")}
        )

    def test_parse_ideal_checks_closure(self):
        poset = poset_from_lines("a < b\n")
        assert parse_ideal(poset, "a") == frozenset({"a"})
        with pytest.raises(ValueError):
            parse_ideal(poset, "b")


@pytest.mark.parametrize("line", ["a <", "< b", " <  ", "bot < a < top", "a < b < "])
def test_malformed_cover_line_is_named(line, tmp_path, capsys):
    from braidhooks.cli import EXIT_USAGE, main

    with pytest.raises(ValueError, match=re.escape(repr(line.strip()))):
        poset_from_lines(f"a < b\n{line}\n")
    path = tmp_path / "poset.txt"
    path.write_text(f"{line}\n")
    assert main(["verify", "poset-edges", "--poset", str(path), "--ideal", "a"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: expected 'a < b', got {line.strip()!r}\n"
