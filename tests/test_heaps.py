"""Heap posets, shape posets, and the rotation bijection."""

import itertools
import json

import pytest

from braidhooks.errors import QuadraticRuleError, ShapeMismatchError
from braidhooks.heaps import (
    build_order_extension,
    heap_poset,
    heap_to_json,
    nu,
    nu_inverse,
    shape_poset,
)
from braidhooks.posets import linear_extensions
from braidhooks.tableaux import Shape, braid_hooks, standard_tableaux
from braidhooks.words import (
    Permutation,
    all_reduced_words,
    braid_sites,
    commutation_class,
    make_reduced_word,
    make_word,
    staircase_word,
    trapezoid_word,
)

from helpers import pointed_partitions


def order(poset):
    """What two heap or shape posets share when they are the same order."""
    return poset.elements, poset.covers


class TestHeapConstruction:
    def test_single_letter(self):
        poset = heap_poset(make_reduced_word([1], 2))
        assert poset.size == 1
        assert poset.covers == frozenset()

    def test_staircase_heap_matches_shape(self):
        for n in range(2, 7):
            shape = Shape.right(tuple(range(n - 1, 0, -1)))
            assert order(heap_poset(staircase_word(n))) == order(shape_poset(shape))

    def test_class_invariance(self):
        for n in (3, 4):
            for images in itertools.permutations(range(1, n + 1)):
                perm = Permutation(images)
                for word in all_reduced_words(perm):
                    reference = order(heap_poset(word))
                    for other in commutation_class(word):
                        assert order(heap_poset(other)) == reference

    def test_quadratic_rule_detected_through_commutation(self):
        # 1 3 1 has no literal aa factor but commutes to 3 1 1
        with pytest.raises(QuadraticRuleError):
            heap_poset(make_word([1, 3, 1], 4))

    def test_json(self):
        data = json.loads(heap_to_json(heap_poset(staircase_word(3))))
        assert data["elements"] == [
            {"id": 0, "column": 1},
            {"id": 1, "column": 1},
            {"id": 2, "column": 2},
        ]
        assert data["covers"] == [[0, 2], [2, 1]]


class TestBuildOrder:
    def test_single_element(self):
        seq = build_order_extension(make_reduced_word([1], 2)).seq
        assert seq == ((1, 1),)

    def test_distinct_words_get_distinct_labelings(self):
        words = commutation_class(staircase_word(5))
        labelings = {build_order_extension(w).seq for w in words}
        assert len(labelings) == len(words)

    def test_labels_respect_covers(self):
        for word in commutation_class(staircase_word(5)):
            poset = heap_poset(word)
            ext = build_order_extension(word)
            for lo, hi in poset.covers:
                assert ext.label(lo) < ext.label(hi)


class TestShapePoset:
    def test_single_cell(self):
        poset = shape_poset(Shape.right((1,)))
        assert poset.size == 1

    def test_staircase_isomorphism(self):
        assert order(shape_poset(Shape.right((4, 3, 2, 1)))) == order(heap_poset(staircase_word(5)))

    def test_521_has_two_extensions(self):
        shape = Shape.right((5, 2, 1))
        assert len(standard_tableaux(shape)) == 2
        # the words of the class are exactly the linear extensions
        word = nu_inverse(standard_tableaux(shape)[0])
        assert len(commutation_class(word)) == 2

    def test_extension_counts_match_enumeration(self):
        for outer in [(3, 1), (4, 3, 2, 1), (5, 2, 1), (2, 2), (3, 3, 1)]:
            shape = Shape.right(outer)
            word = nu_inverse(standard_tableaux(shape)[0])
            assert len(commutation_class(word)) == len(standard_tableaux(shape))


class TestNu:
    def test_staircase_canonical_word(self):
        shape = Shape.right((4, 3, 2, 1))
        t = nu(staircase_word(5), shape)
        assert t.row_values() == [[1, 2, 4, 7], [3, 5, 8], [6, 9], [10]]

    def test_round_trip_staircase(self):
        for n in range(2, 6):
            shape = Shape.right(tuple(range(n - 1, 0, -1)))
            for word in commutation_class(staircase_word(n)):
                assert nu_inverse(nu(word, shape)) == word

    def test_bijection_staircase(self):
        for n in range(2, 6):
            shape = Shape.right(tuple(range(n - 1, 0, -1)))
            images = {nu(w, shape) for w in commutation_class(staircase_word(n))}
            assert images == set(standard_tableaux(shape))

    def test_bijection_trapezoid(self):
        for n, outer in [(1, (3, 1)), (2, (5, 3, 1))]:
            shape = Shape.half_right(outer)
            words = commutation_class(trapezoid_word(n))
            images = {nu(w, shape) for w in words}
            assert images == set(standard_tableaux(shape))
            assert all(nu_inverse(nu(w, shape)) == w for w in words)

    def test_bijection_trapezoid_three(self):
        # 24024 words, the count of reduced words for the longest
        # hyperoctahedral element of rank four
        shape = Shape.half_right((7, 5, 3, 1))
        words = commutation_class(trapezoid_word(3))
        assert len(words) == 24024
        images = set()
        for w in words:
            t = nu(w, shape)
            assert nu_inverse(t) == w
            images.add(t)
        assert images == set(standard_tableaux(shape))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            nu(staircase_word(4), Shape.right((4, 3, 2, 1)))

    def test_braid_sites_match_braid_hooks(self):
        shape = Shape.right((4, 3, 2, 1))
        for word in commutation_class(staircase_word(5)):
            up, down = braid_sites(word)
            assert down == 0  # only s1 s2 s1 braids occur in the class
            assert up == len(braid_hooks(nu(word, shape)))

    def test_no_down_braids_in_pointed_classes(self):
        for outer in pointed_partitions(9):
            shape = Shape.right(outer)
            for t in standard_tableaux(shape):
                word = nu_inverse(t)
                assert braid_sites(word)[1] == 0


class TestHeapsArePosets:
    """A word's heap is a ``Poset`` whose linear extensions, read as words,
    are the word's commutation class; the drop order is one of them."""

    @staticmethod
    def check(word):
        def read(ext):  # the drop order lists the letters right to left
            return make_word([column for column, _ in reversed(ext.seq)], word.rank)

        extensions = linear_extensions(heap_poset(word))
        assert sorted(map(read, extensions)) == commutation_class(word), word
        built = build_order_extension(word)
        assert built in extensions and read(built) == word, word

    def test_every_reduced_word_up_to_s5(self):
        for n in range(1, 6):
            for images in itertools.permutations(range(1, n + 1)):
                for word in all_reduced_words(Permutation(images)):
                    self.check(word)

    def test_staircase_class_of_s6(self):
        for word in commutation_class(staircase_word(6)):
            self.check(word)
