"""Shapes, standard fillings, braid hooks, paths, crossings, and phi/psi."""

import json
import random
from fractions import Fraction

import pytest

from braidhooks.errors import (
    DisconnectedShapeError,
    NotABraidHookError,
    ShapeConditionError,
)
from braidhooks.tableaux import (
    Crossing,
    Shape,
    braid_hooks,
    crossings,
    expected_braid_hooks,
    inverse_promotion_path,
    partial_braid_hooks,
    partial_inverse_promotion,
    partial_promotion,
    phi,
    phi_inverse,
    promotion,
    promotion_path,
    psi,
    random_standard_tableau,
    standard_tableaux,
    tableau_from_json,
    tableau_to_json,
    tableau_to_text,
    updown_crossing_balance,
)

from helpers import pointed_partitions, skew_test_shapes, strict_partitions, tableau_of

STAIR6 = Shape.right((6, 5, 4, 3, 2, 1))

# the 21-cell running example: t with its superimposed sliding paths,
# its preimage t', and the two half-way tableaux of the square
T21 = [[1, 2, 4, 6, 10, 12], [3, 5, 7, 11, 13], [8, 9, 14, 17], [15, 16, 18], [19, 20], [21]]
T21_PRIME = [[1, 2, 3, 7, 11, 13], [4, 5, 8, 12, 14], [6, 9, 15, 18], [10, 16, 19], [17, 20], [21]]
T21_LEFT = [[1, 2, 4, 7, 11, 13], [3, 5, 8, 12, 14], [6, 9, 15, 18], [10, 16, 19], [17, 20], [21]]
T21_RIGHT = [[1, 2, 3, 6, 10, 12], [4, 5, 7, 11, 13], [8, 9, 14, 17], [15, 16, 18], [19, 20], [21]]


class TestShape:
    def test_right_cells(self):
        shape = Shape.right((3, 1))
        assert shape.cells == ((1, 1), (1, 2), (1, 3), (2, 3))

    def test_half_right_cells(self):
        shape = Shape.half_right((5, 3, 1))
        assert shape.cells == (
            (1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
            (2, 2), (2, 3), (2, 4),
            (3, 3),
        )

    def test_skew_removes_leftmost_of_the_right_span(self):
        # (4,3,2,1)/(1) must reproduce the drawn diagram: the top row is
        # missing its rightmost cell of the full staircase, i.e. spans 1..3
        shape = Shape.skew_right((4, 3, 2, 1), (1,))
        assert shape.row_columns()[1] == (1, 2, 3)
        assert shape.row_columns()[2] == (2, 3, 4)

    def test_half_right_requires_strict_decrease(self):
        with pytest.raises(ShapeConditionError):
            Shape.half_right((3, 3, 1))

    def test_empty_and_invalid_partitions_rejected(self):
        with pytest.raises(ShapeConditionError):
            Shape.right(())
        with pytest.raises(ShapeConditionError):
            Shape.right((2, 3))
        with pytest.raises(ShapeConditionError):
            Shape.skew_right((2, 1), (3,))

    def test_connectivity(self):
        assert Shape.skew_right((4, 3, 2, 1), (1,)).is_connected()
        assert not Shape.skew_right((4, 1), (3,)).is_connected()


class TestEnumeration:
    def test_rSYT_521(self):
        shape = Shape.right((5, 2, 1))
        found = standard_tableaux(shape)
        assert [t.row_values() for t in found] == [
            [[1, 2, 3, 4, 5], [6, 7], [8]],
            [[1, 2, 3, 4, 6], [5, 7], [8]],
        ]

    def test_rSYT_4321_has_12(self):
        assert len(standard_tableaux(Shape.right((4, 3, 2, 1)))) == 12

    def test_single_cell(self):
        assert len(standard_tableaux(Shape.right((1,)))) == 1

    def test_random_tableau_is_standard(self):
        rng = random.Random(7)
        shape = Shape.right((4, 3, 2, 1))
        universe = set(standard_tableaux(shape))
        for _ in range(25):
            assert random_standard_tableau(shape, rng) in universe


class TestBraidHooks:
    def test_21_cell_example(self):
        t = tableau_of(STAIR6, [[1, 2, 3, 7, 9, 14], [4, 5, 8, 12, 15],
                                [6, 10, 13, 17], [11, 16, 18], [19, 20], [21]])
        assert braid_hooks(t) == [5, 20]

    def test_trapezoid_example(self):
        t = tableau_of(Shape.half_right((5, 3, 1)), [[1, 2, 3, 4, 9], [5, 6, 8], [7]])
        # 5,6,7 is a hook; 6,7,8 is not (hooks live on the lower-left boundary)
        assert braid_hooks(t) == [6]

    def test_single_cell_has_none(self):
        assert braid_hooks(standard_tableaux(Shape.right((1,)))[0]) == []


class TestTau:
    def test_involution_and_bounds(self):
        shape = Shape.right((5, 2, 1))
        for t in standard_tableaux(shape):
            for i in range(1, t.size):
                assert t.tau(i).tau(i) == t
        with pytest.raises(IndexError):
            standard_tableaux(shape)[0].tau(8)

    def test_swap_5_6(self):
        shape = Shape.right((5, 2, 1))
        a, b = standard_tableaux(shape)
        assert a.tau(5) == b
        assert b.tau(5) == a

    def test_same_row_blocks(self):
        t = standard_tableaux(Shape.right((2, 1)))[0]
        assert t.tau(1) == t


class TestPartialPromotion:
    def test_identity_ends(self):
        t = tableau_of(STAIR6, T21_PRIME)
        assert partial_promotion(t, t.size) == t
        assert partial_inverse_promotion(t, 1) == t

    def test_index_bounds(self):
        t = tableau_of(STAIR6, T21_PRIME)
        with pytest.raises(IndexError):
            partial_promotion(t, 0)
        with pytest.raises(IndexError):
            partial_inverse_promotion(t, t.size + 1)

    def test_diagram_square(self):
        t_prime = tableau_of(STAIR6, T21_PRIME)
        t_left = tableau_of(STAIR6, T21_LEFT)
        t_right = tableau_of(STAIR6, T21_RIGHT)
        t = tableau_of(STAIR6, T21)
        assert partial_inverse_promotion(t_prime, 5) == t_left
        assert partial_promotion(t_prime, 5) == t_right
        assert partial_promotion(t_left, 5) == t
        assert partial_inverse_promotion(t_right, 5) == t
        assert promotion(t_left) == t_right

    def test_commutative_diagram_sweep(self):
        # from a braid hook the two partial operators commute, and the
        # resulting halves differ by one full promotion
        for outer in pointed_partitions(9):
            shape = Shape.right(outer)
            for t_prime in standard_tableaux(shape):
                for k in braid_hooks(t_prime):
                    t_left = partial_inverse_promotion(t_prime, k)
                    t_right = partial_promotion(t_prime, k)
                    assert partial_promotion(t_left, k) == partial_inverse_promotion(
                        t_right, k
                    )
                    assert promotion(t_left) == t_right

    def test_promotion_orbit_closure(self):
        shape = Shape.right((4, 3, 2, 1))
        universe = set(standard_tableaux(shape))
        seen_total = 0
        remaining = set(universe)
        while remaining:
            start = remaining.pop()
            orbit = {start}
            current = promotion(start)
            while current != start:
                assert current in universe
                orbit.add(current)
                current = promotion(current)
            remaining -= orbit
            seen_total += len(orbit)
        assert seen_total == 12


class TestPaths:
    def test_21_cell_paths(self):
        t = tableau_of(STAIR6, T21)
        left = promotion_path(t)
        right = inverse_promotion_path(t)
        assert sorted(t.entry(c) for c in left.cells) == [1, 2, 3, 5, 7, 9, 14, 16, 18, 20, 21]
        assert sorted(t.entry(c) for c in right.cells) == [1, 2, 4, 5, 8, 9, 15, 16, 19, 20, 21]

    def test_single_cell(self):
        t = standard_tableaux(Shape.right((1,)))[0]
        assert promotion_path(t).cells == ((1, 1),)
        assert inverse_promotion_path(t).cells == ((1, 1),)

    def test_paths_span_corner_to_corner_on_pointed_shapes(self):
        for outer in pointed_partitions(8):
            shape = Shape.right(outer)
            for t in standard_tableaux(shape):
                for path in (promotion_path(t), inverse_promotion_path(t)):
                    assert path.cells[0] == t.pos[0]
                    assert path.cells[-1] == t.pos[-1]

    def test_steps_go_right_or_down(self):
        t = tableau_of(STAIR6, T21)
        for (a, b) in promotion_path(t).steps():
            assert b in ((a[0], a[1] + 1), (a[0] + 1, a[1]))


class TestCrossings:
    def test_21_cell_unique_crossing(self):
        t = tableau_of(STAIR6, T21)
        assert crossings(t) == [Crossing((2, 3), 5, "RtoL")]

    def test_trapezoid_no_crossing(self):
        shape = Shape.half_right((7, 5, 3, 1))
        t = tableau_of(shape, [[1, 2, 4, 5, 7, 12, 13], [3, 6, 8, 11, 16], [9, 10, 14], [15]])
        assert crossings(t) == []

    def test_skew_figure_crosses_three_times(self):
        shape = Shape.skew_right((4, 3, 2, 1), (1,))
        t = tableau_of(shape, [[1, 2, 3], [4, 5, 7], [6, 8], [9]])
        found = crossings(t)
        assert len(found) == 3
        assert [cr.direction for cr in found] == ["RtoL", "LtoR", "RtoL"]

    def test_forbidden_configurations_never_fire_on_right_shapes(self):
        # both 2x2 patterns with the fourth cell present are impossible
        for outer in pointed_partitions(9):
            shape = Shape.right(outer)
            for t in standard_tableaux(shape):
                left = promotion_path(t)
                right = inverse_promotion_path(t)
                right_h = right.horizontal_steps()
                right_v = right.vertical_steps()
                for (a, b) in left.steps():
                    if a[0] == b[0]:
                        below = (b[0] + 1, b[1])
                        if (b, below) in right_v:
                            assert (a[0] + 1, a[1]) not in shape
                    else:
                        beside = (b[0], b[1] + 1)
                        if (b, beside) in right_h:
                            assert (a[0], a[1] + 1) not in shape


class TestPhi:
    def test_worked_example(self):
        t = tableau_of(STAIR6, T21)
        k, t_prime = phi_inverse(t)
        assert k == 5
        assert t_prime == tableau_of(STAIR6, T21_PRIME)
        assert phi(k, t_prime) == t

    def test_round_trip_exhaustive(self):
        for outer in pointed_partitions(9):
            shape = Shape.right(outer)
            tableaux = standard_tableaux(shape)
            pairs = {(k, t) for t in tableaux for k in braid_hooks(t)}
            images = set()
            for k, t in pairs:
                image = phi(k, t)
                assert phi_inverse(image) == (k, t)
                images.add(image)
            assert len(images) == len(pairs) == len(tableaux)

    def test_rejects_non_hook(self):
        t = standard_tableaux(Shape.right((5, 2, 1)))[0]
        with pytest.raises(NotABraidHookError):
            phi(2, t)

    def test_rejects_bad_shape(self):
        t = standard_tableaux(Shape.right((2, 2)))[0]
        with pytest.raises(ShapeConditionError):
            phi_inverse(t)


class TestPsi:
    def test_image_is_the_crossing_tableaux(self):
        for outer in list(strict_partitions(10)) + list(strict_partitions(11)):
            if len(outer) < 2:
                continue
            shape = Shape.half_right(outer)
            tableaux = standard_tableaux(shape)
            pairs = [(k, t) for t in tableaux for k in braid_hooks(t)]
            image = {psi(k, t) for k, t in pairs}
            assert len(image) == len(pairs)  # injective
            crossing = {t for t in tableaux if crossings(t)}
            assert image == crossing

    def test_standard_output(self):
        shape = Shape.half_right((5, 3, 1))
        for t in standard_tableaux(shape):
            for k in braid_hooks(t):
                psi(k, t)  # constructor validates standardness


class TestPartialHooks:
    def test_left_hook_of_the_example(self):
        t_left = tableau_of(STAIR6, T21_LEFT)
        assert 5 in partial_braid_hooks(t_left, "left")

    def test_corollary_sets_match(self):
        for outer in [(4, 3, 2, 1), (5, 2, 1)]:
            shape = Shape.right(outer)
            tableaux = standard_tableaux(shape)
            hook_pairs = {(k, t) for t in tableaux for k in braid_hooks(t)}
            left_pairs = {(k, t) for t in tableaux for k in partial_braid_hooks(t, "left")}
            right_pairs = {(k, t) for t in tableaux for k in partial_braid_hooks(t, "right")}
            assert {(k, partial_inverse_promotion(t, k)) for k, t in hook_pairs} == left_pairs
            assert {(k, partial_promotion(t, k)) for k, t in hook_pairs} == right_pairs
            assert len(left_pairs) == len(tableaux)

    def test_single_cell_empty(self):
        t = standard_tableaux(Shape.right((1,)))[0]
        assert partial_braid_hooks(t, "left") == []


class TestExpectedHooks:
    def test_paper_values(self):
        assert expected_braid_hooks(Shape.right((4, 3, 2, 1))) == 1
        assert expected_braid_hooks(Shape.right((5, 2, 1))) == 1
        assert expected_braid_hooks(Shape.half_right((5, 3, 1))) == Fraction(1, 2)


class TestSkewBalance:
    def test_staircase_minus_one(self):
        shape = Shape.skew_right((4, 3, 2, 1), (1,))
        report = updown_crossing_balance(shape)
        assert report["all_diffs_one"]
        assert len(report["diffs"]) == 4

    def test_degenerate_empty_inner(self):
        report = updown_crossing_balance(Shape.skew_right((2, 1), ()))
        assert report["diffs"] == [1]

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedShapeError):
            updown_crossing_balance(Shape.skew_right((4, 1), (3,)))

    def test_rejects_bad_outer(self):
        with pytest.raises(ShapeConditionError):
            updown_crossing_balance(Shape.skew_right((2, 2), (1,)))

    def test_family_sweep(self):
        for shape in skew_test_shapes(8):
            assert updown_crossing_balance(shape)["all_diffs_one"], shape


class TestSerialization:
    def test_text_uses_dots(self):
        t = tableau_of(Shape.half_right((5, 3, 1)), [[1, 2, 3, 4, 9], [5, 6, 8], [7]])
        assert tableau_to_text(t).splitlines() == ["1 2 3 4 9", ". 5 6 8", ". . 7"]

    def test_json_round_trip(self):
        for shape in (
            Shape.right((4, 3, 2, 1)),
            Shape.half_right((5, 3, 1)),
            Shape.skew_right((4, 3, 2, 1), (1,)),
        ):
            for t in standard_tableaux(shape)[:3]:
                parsed = tableau_from_json(tableau_to_json(t))
                assert parsed == t
                assert json.loads(tableau_to_json(t))["rows"] == t.row_values()
