"""Even/odd actions, orbit averages, the window table, and big Phi."""

from fractions import Fraction

import pytest

from braidhooks.errors import NoPreimageError, NotABraidError
from braidhooks.heaps import nu
from braidhooks.homomesy import (
    big_phi,
    big_phi_inverse,
    dihedral_orbits,
    find_gyration_anomaly,
    gyration,
    homomesy_report,
    orbit_average,
    rw_class,
    tableau_statistic,
    tau_even,
    tau_odd,
    tau_parity,
    window_table,
    word_condition_check,
    word_statistic,
)
from braidhooks.posets import _o
from braidhooks.tableaux import Shape, standard_tableaux
from braidhooks.words import (
    braid_sites,
    commutation_class,
    staircase_word,
    word_from_string,
    word_to_string,
)

from helpers import partitions, pointed, pointed_partitions


class TestParityOperators:
    def test_involutions_on_tableaux(self):
        for outer in [(4, 3, 2, 1), (5, 2, 1), (3, 3, 1)]:
            for t in standard_tableaux(Shape.right(outer)):
                assert tau_odd(tau_odd(t)) == t
                assert tau_even(tau_even(t)) == t

    def test_involutions_on_words(self):
        for w in commutation_class(staircase_word(5)):
            assert tau_odd(tau_odd(w)) == w
            assert tau_even(tau_even(w)) == w

    def test_single_cell_fixed(self):
        t = standard_tableaux(Shape.right((1,)))[0]
        assert tau_odd(t) == t and tau_even(t) == t

    def test_word_action_matches_window_row(self):
        w = word_from_string("1231423121", 5)
        assert word_to_string(tau_odd(w)) == "1213241321"

    def test_bad_parity(self):
        with pytest.raises(ValueError):
            tau_parity(staircase_word(4), "both")


class TestOrbits:
    def test_partition_property(self):
        tableaux = standard_tableaux(Shape.right((4, 3, 2, 1)))
        for mode in ("dihedral", "gyration", "order-two-odd", "order-two-even"):
            orbits = dihedral_orbits(tableaux, mode)
            assert sum(o.size for o in orbits) == len(tableaux)
            seen = [t for o in orbits for t in o.members]
            assert len(seen) == len(set(seen))

    def test_singleton_average(self):
        t = standard_tableaux(Shape.right((2, 1)))[0]
        orbit = dihedral_orbits([t])[0]
        assert orbit_average(orbit, tableau_statistic("braid-hooks")) == 1

    def test_empty_carrier_is_refused(self):
        with pytest.raises(ValueError, match="homomesy_report needs a nonempty carrier"):
            homomesy_report([], tableau_statistic("braid-hooks"))

    def test_global_average_is_weighted_mean(self):
        tableaux = standard_tableaux(Shape.right((3, 3, 1)))
        report = homomesy_report(tableaux, tableau_statistic("braid-hooks"))
        weighted = sum(o["average"] * o["size"] for o in report["orbits"])
        assert weighted == report["global_average"] * len(tableaux)


class TestHomomesyTheorem:
    def test_qualifying_shapes_average_one(self):
        for outer in pointed_partitions(10):
            report = homomesy_report(
                standard_tableaux(Shape.right(outer)),
                tableau_statistic("braid-hooks"),
            )
            assert report["homomesic"], outer
            assert all(o["average"] == 1 for o in report["orbits"]), outer

    def test_word_level_average_one(self):
        for outer in [(2, 1), (4, 3, 2, 1), (5, 2, 1), (4, 2, 1)]:
            report = homomesy_report(
                rw_class(Shape.right(outer)), word_statistic("braid-moves")
            )
            assert all(o["average"] == 1 for o in report["orbits"])

    def test_violating_first_rows_equal(self):
        # (2,2): single dihedral orbit with average 0
        report = homomesy_report(
            standard_tableaux(Shape.right((2, 2))),
            tableau_statistic("braid-hooks"),
        )
        assert [o["average"] for o in report["orbits"]] == [Fraction(0)]

    def test_violating_last_row_big(self):
        # (3,2): single orbit, average 1/2
        report = homomesy_report(
            standard_tableaux(Shape.right((3, 2))),
            tableau_statistic("braid-hooks"),
        )
        assert [o["average"] for o in report["orbits"]] == [Fraction(1, 2)]

    def test_expected_braid_moves_at_most_one(self):
        for n in range(2, 11):
            for outer in partitions(n):
                if len(outer) < 2:
                    continue
                cls = rw_class(Shape.right(outer))
                total = sum(sum(braid_sites(w)) for w in cls)
                assert Fraction(total, len(cls)) <= 1, outer

    def test_violating_shapes_never_all_one(self):
        for n in range(2, 9):
            for outer in partitions(n):
                if pointed(outer) or len(outer) < 2:
                    continue
                report = homomesy_report(
                    standard_tableaux(Shape.right(outer)),
                    tableau_statistic("braid-hooks"),
                )
                assert not (
                    report["homomesic"]
                    and report["orbits"][0]["average"] == 1
                ), outer


class TestEquivariance:
    def test_nu_transports_the_action(self):
        for n in range(2, 6):
            shape = Shape.right(tuple(range(n - 1, 0, -1)))
            for w in commutation_class(staircase_word(n)):
                assert nu(tau_odd(w), shape) == tau_odd(nu(w, shape))
                assert nu(tau_even(w), shape) == tau_even(nu(w, shape))

    def test_parity_flips_when_the_length_is_odd(self):
        # position i of the word is entry N-i+1 of the tableau, so for odd N
        # the odd product on words transports to the even product on tableaux
        shape = Shape.right((4, 2, 1))
        for w in rw_class(shape):
            t = nu(w, shape)
            assert nu(tau_odd(w), shape) == tau_even(t)
            assert nu(tau_even(w), shape) == tau_odd(t)


class TestWindowTable:
    def test_paper_golden_rows(self):
        table = window_table(word_from_string("1231423121", 5))
        got = [(i, word_to_string(w), a, c) for i, w, a, c in table.rows]
        assert got == [
            (2, "1231423121", 1, 3),
            (3, "1213241321", 2, 3),
            (4, "1213214321", 1, 2),
            (5, "1231214321", 1, 1),
            (6, "1231241321", 2, 1),
            (7, "1213423121", 2, 1),
            (8, "1213423121", 3, 2),
            (9, "1231241321", 3, 1),
        ]

    def test_sign_pattern_single_zero_crossing(self):
        # diffs pass from positive through at most one zero to negative
        for outer in pointed_partitions(10):
            for w in rw_class(Shape.right(outer)):
                diffs = [c - a for _, _, a, c in window_table(w).rows]
                zeros = diffs.count(0)
                assert zeros <= 1
                if zeros:
                    z = diffs.index(0)
                    assert all(d > 0 for d in diffs[:z])
                    assert all(d < 0 for d in diffs[z + 1 :])

    def test_text_layout(self):
        text = window_table(word_from_string("1231423121", 5)).to_text()
        assert text.splitlines()[1].split() == ["2", "1231423121", "1", "3", "2"]


class TestBigPhi:
    def test_paper_round_trip(self):
        w = word_from_string("1231423121", 5)
        k, pre = big_phi_inverse(w)
        assert (k, word_to_string(pre)) == (5, "1231214321")
        assert big_phi(k, pre) == w

    def test_rejects_non_braid(self):
        with pytest.raises(NotABraidError):
            big_phi(3, word_from_string("1231423121", 5))

    def test_bijective_on_pointed_shapes(self):
        for outer in pointed_partitions(10):
            words = rw_class(Shape.right(outer))
            if len(words[0]) < 3:
                continue
            pairs = [
                (k, w)
                for w in words
                for k in range(2, len(w))
                if w.letters[k - 2] == w.letters[k]
            ]
            images = [big_phi(k, w) for k, w in pairs]
            assert len(set(images)) == len(pairs) == len(words)
            for (k, w), image in zip(pairs, images):
                assert big_phi_inverse(image) == (k, w)

    def test_no_preimage_when_first_rows_tie(self):
        words = rw_class(Shape.right((2, 2)))
        misses = [w for w in words if _has_no_preimage(w)]
        assert misses  # Phi is not surjective on this class

    def test_injective_always_bijective_iff_pointed(self):
        for n in range(3, 10):
            for outer in partitions(n):
                if len(outer) < 2:
                    continue
                words = rw_class(Shape.right(outer))
                length = len(words[0])
                if length < 3:
                    continue
                pairs = [
                    (k, w)
                    for w in words
                    for k in range(2, length)
                    if w.letters[k - 2] == w.letters[k]
                ]
                images = [big_phi(k, w) for k, w in pairs]
                assert len(set(images)) == len(pairs), outer
                assert (len(pairs) == len(words)) == pointed(outer), outer

    def test_orbit_preserving(self):
        words = rw_class(Shape.right((4, 3, 2, 1)))
        orbits = dihedral_orbits(words)
        orbit_of = {w: idx for idx, o in enumerate(orbits) for w in o.members}
        for w in words:
            for k in range(2, len(w)):
                if w.letters[k - 2] == w.letters[k]:
                    assert orbit_of[big_phi(k, w)] == orbit_of[w]


def _has_no_preimage(word) -> bool:
    try:
        big_phi_inverse(word)
        return False
    except NoPreimageError:
        return True


class TestComparisonLemma:
    def test_exhaustive_small(self):
        for outer in pointed_partitions(10):
            for w in rw_class(Shape.right(outer)):
                n = len(w)
                for i in range(2, n - 1):
                    moved = w.taus(_o(i + 1, n))
                    lhs = w.letters[i - 2] < w.letters[i]
                    rhs = moved.letters[i - 1] <= moved.letters[i + 1]
                    assert lhs == rhs


class TestWordCondition:
    def test_staircase_class_passes(self):
        assert word_condition_check(commutation_class(staircase_word(5)))

    def test_square_class_fails(self):
        assert not word_condition_check(rw_class(Shape.right((2, 2))))

    def test_matches_shape_condition(self):
        for n in range(2, 10):
            for outer in partitions(n):
                if len(outer) < 2:
                    continue
                shape = Shape.right(outer)
                words = rw_class(shape)
                if len(words[0]) < 3:
                    continue
                assert word_condition_check(words) == pointed(outer), outer


class TestGyration:
    def test_staircase_21_cells_is_gyration_homomesic(self):
        # the anomaly does not live on the 21-cell staircase: every cyclic
        # orbit averages to one (checked exhaustively)
        tableaux = standard_tableaux(Shape.right((6, 5, 4, 3, 2, 1)))
        report = homomesy_report(
            tableaux, tableau_statistic("braid-hooks"), "gyration"
        )
        assert all(o["average"] == 1 for o in report["orbits"])

    def test_28_cell_staircase_has_anomalous_orbit(self):
        hit = find_gyration_anomaly(
            Shape.right((7, 6, 5, 4, 3, 2, 1)), max_seeds=50
        )
        assert hit is not None
        assert hit["average"] != 1

    def test_order_two_fails_presently(self):
        # order-two subgroups already fail on the 15-cell staircase
        tableaux = standard_tableaux(Shape.right((5, 4, 3, 2, 1)))
        for mode in ("order-two-odd", "order-two-even"):
            report = homomesy_report(
                tableaux, tableau_statistic("braid-hooks"), mode
            )
            assert not report["homomesic"]

    def test_gyration_composite_order(self):
        t = standard_tableaux(Shape.right((4, 3, 2, 1)))[3]
        assert gyration(t) == tau_even(tau_odd(t))
