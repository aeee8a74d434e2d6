"""Words, moves, commutation classes, and the Matsumoto graph."""

import itertools
import pickle
from collections import deque
from fractions import Fraction

import pytest

from braidhooks import words
from braidhooks.errors import (
    ExplosionGuardError,
    InvalidSiteError,
    LetterRangeError,
    NotReducedError,
    QuadraticRuleError,
)
from braidhooks.words import (
    BRAID_DOWN,
    BRAID_UP,
    COMMUTATION,
    MoveSite,
    Permutation,
    Word,
    all_reduced_words,
    apply_move,
    braid_move_stats,
    braid_sites,
    commutation_class,
    is_reduced,
    list_moves,
    make_reduced_word,
    make_word,
    matsumoto_graph,
    staircase_word,
    trapezoid_word,
    word_from_string,
    word_to_permutation,
    word_to_string,
)

from helpers import first_reduced_word


def red_words_oracle(perm: Permutation) -> set[tuple[int, ...]]:
    """Independent enumeration of Red(perm) by peeling descents."""
    memo: dict[tuple[int, ...], set[tuple[int, ...]]] = {}

    def rec(p: Permutation) -> set[tuple[int, ...]]:
        key = p.images
        if key in memo:
            return memo[key]
        descents = p.descents()
        if not descents:
            result = {()}
        else:
            result = set()
            for i in descents:
                for prefix in rec(p.times_s(i)):
                    result.add(prefix + (i,))
        memo[key] = result
        return result

    return rec(perm)


def all_permutations(n: int):
    for img in itertools.permutations(range(1, n + 1)):
        yield Permutation(img)


class TestConstruction:
    def test_make_reduced_word_valid(self):
        w = make_reduced_word([1, 2, 1], 3)
        assert w.letters == (1, 2, 1)

    def test_make_reduced_word_rejects_square(self):
        with pytest.raises(NotReducedError):
            make_reduced_word([1, 1], 3)

    def test_make_reduced_word_staircase_s5(self):
        w = make_reduced_word([1, 2, 3, 4, 1, 2, 3, 1, 2, 1], 5)
        assert w == staircase_word(5)

    def test_letter_out_of_range(self):
        with pytest.raises(LetterRangeError):
            make_reduced_word([3], 3)

    @pytest.mark.parametrize(
        "letters, bad", [((1, 5, 2), 5), ((2, 0, 7), 0), ((-1,), -1), ((3, 4), 4)]
    )
    def test_letter_range_message_names_first_bad_letter(self, letters, bad):
        with pytest.raises(LetterRangeError, match=rf"^letter {bad} outside 1\.\.3 for rank 4$"):
            Word(letters, 4)

    def test_empty_word_is_in_range(self):
        assert Word((), 1).letters == ()

    def test_word_is_slotted_and_pickles(self):
        w = staircase_word(4)
        assert not hasattr(w, "__dict__")
        assert pickle.loads(pickle.dumps(w)) == w

    def test_make_word_allows_nonreduced(self):
        w = make_word([1, 2, 3, 1, 2, 3, 1, 2, 1], 4)
        assert not is_reduced(w.letters, 4)

    def test_make_word_rejects_quadratic_factor(self):
        with pytest.raises(QuadraticRuleError):
            make_word([1, 1, 2], 3)


class TestEvaluation:
    def test_empty_word_is_identity(self):
        assert word_to_permutation([], 4) == Permutation.identity(4)

    def test_single_transposition(self):
        assert word_to_permutation([1], 3).images == (2, 1, 3)

    def test_longest_element_s3(self):
        assert word_to_permutation([1, 2, 1], 3).images == (3, 2, 1)

    def test_is_reduced(self):
        assert is_reduced([1, 2, 1], 3)
        assert not is_reduced([1, 2, 1, 2], 3)
        assert is_reduced([2, 1, 2], 3)


class TestCanonicalWords:
    def test_staircase_small(self):
        assert staircase_word(3).letters == (1, 2, 1)
        assert staircase_word(4).letters == (1, 2, 3, 1, 2, 1)
        assert staircase_word(5).letters == (1, 2, 3, 4, 1, 2, 3, 1, 2, 1)

    def test_staircase_is_reduced_longest(self):
        for n in range(2, 7):
            w = staircase_word(n)
            assert len(w) == n * (n - 1) // 2
            assert w.permutation() == Permutation.longest(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trapezoid_length_is_cell_count(self, n):
        # heap size must match the trapezoid partition (2n+1, 2n-1, ..., 3, 1)
        w = trapezoid_word(n)
        assert len(w) == sum(range(1, 2 * n + 2, 2))
        assert w.rank == 2 * n + 2
        assert is_reduced(w.letters, w.rank)

    def test_trapezoid_smallest(self):
        assert trapezoid_word(1).letters == (3, 1, 2, 1)


class TestMoves:
    def test_braid_only(self):
        sites = list_moves(make_reduced_word([1, 2, 1], 3))
        assert sites == [MoveSite(1, BRAID_UP)]

    def test_commutation_only(self):
        sites = list_moves(make_reduced_word([1, 3], 4))
        assert sites == [MoveSite(1, COMMUTATION)]

    def test_staircase_s5_has_one_braid_move(self):
        sites = list_moves(staircase_word(5))
        braid = [s for s in sites if s.kind in (BRAID_UP, BRAID_DOWN)]
        assert braid == [MoveSite(8, BRAID_UP)]

    def test_apply_braid(self):
        w = apply_move(make_reduced_word([1, 2, 1], 3), MoveSite(1, BRAID_UP))
        assert w.letters == (2, 1, 2)

    def test_apply_commutation(self):
        w = apply_move(make_reduced_word([1, 3, 2], 4), MoveSite(1, COMMUTATION))
        assert w.letters == (3, 1, 2)

    def test_moves_are_involutions(self):
        for word in all_reduced_words(Permutation.longest(4)):
            for site in list_moves(word):
                moved = apply_move(word, site)
                back_kind = {
                    COMMUTATION: COMMUTATION,
                    BRAID_UP: BRAID_DOWN,
                    BRAID_DOWN: BRAID_UP,
                }[site.kind]
                assert apply_move(moved, MoveSite(site.position, back_kind)) == word

    def test_invalid_site(self):
        with pytest.raises(InvalidSiteError):
            apply_move(make_reduced_word([1, 2], 3), MoveSite(1, COMMUTATION))

    def test_moves_preserve_permutation(self):
        for word in all_reduced_words(Permutation.longest(4)):
            for site in list_moves(word):
                assert apply_move(word, site).permutation() == word.permutation()


class TestClasses:
    def test_staircase_s5_class_size(self):
        assert len(commutation_class(staircase_word(5))) == 12

    def test_braid_word_class_is_singleton(self):
        assert commutation_class(make_reduced_word([1, 2, 1], 3)) == [
            make_reduced_word([1, 2, 1], 3)
        ]

    def test_class_members_share_permutation(self):
        for n in (4, 5):
            target = staircase_word(n).permutation()
            for word in commutation_class(staircase_word(n)):
                assert word.permutation() == target

    def test_explosion_guard(self):
        with pytest.raises(ExplosionGuardError):
            commutation_class(staircase_word(6), cap=3)

    def test_zero_cap_is_honoured(self):
        with pytest.raises(ExplosionGuardError):
            commutation_class(staircase_word(4), cap=0)
        with pytest.raises(ExplosionGuardError):
            all_reduced_words(Permutation.longest(3), cap=0)


class TestRedW:
    def test_red_w0_s3(self):
        found = all_reduced_words(Permutation.longest(3))
        assert [w.letters for w in found] == [(1, 2, 1), (2, 1, 2)]

    def test_red_w0_s4_has_16_words(self):
        assert len(all_reduced_words(Permutation.longest(4))) == 16

    def test_bfs_matches_descent_recursion(self):
        for n in (3, 4):
            for perm in all_permutations(n):
                found = {w.letters for w in all_reduced_words(perm)}
                assert found == red_words_oracle(perm)

    def test_reiner_identity_small(self):
        # sum of braid-move counts over Red(w0) equals |Red(w0)|
        for n in (3, 4, 5):
            red = all_reduced_words(Permutation.longest(n))
            stats = braid_move_stats(red)
            assert stats["total"] == len(red)


class TestGraph:
    def test_s3_graph(self):
        graph = matsumoto_graph(Permutation.longest(3))
        assert len(graph.vertices) == 2
        assert graph.braid_edge_count() == 1

    def test_s4_graph(self):
        graph = matsumoto_graph(Permutation.longest(4))
        assert len(graph.vertices) == 16
        assert graph.braid_edge_count() == 8
        assert graph.is_connected()

    def test_connectivity_exhaustive(self):
        for n in (2, 3, 4):
            for perm in all_permutations(n):
                assert matsumoto_graph(perm).is_connected()

    def test_json_shape(self):
        import json

        data = json.loads(matsumoto_graph(Permutation.longest(3)).to_json())
        assert data["vertices"] == ["121", "212"]
        assert data["edges"] == [[0, 1, "braid"]]

    def test_dot_export(self):
        dot = matsumoto_graph(Permutation.longest(3)).to_dot()
        assert dot.startswith("graph matsumoto {")
        assert 'v0 [label="121"];' in dot
        assert "v0 -- v1 [style=solid];" in dot


class TestStats:
    def test_staircase_class_mean_is_one(self):
        stats = braid_move_stats(commutation_class(staircase_word(5)))
        assert stats["mean"] == 1
        assert stats["total"] == 12

    def test_two_word_class(self):
        stats = braid_move_stats(
            [make_reduced_word([1, 2, 1], 3), make_reduced_word([2, 1, 2], 3)]
        )
        assert stats["mean"] == 1

    def test_skew_example_up_down_split(self):
        # words in this class are not reduced; the class carries 5 up and
        # 1 down braid moves over 4 words
        cls = commutation_class(make_word([1, 2, 3, 1, 2, 3, 1, 2, 1], 4))
        assert len(cls) == 4
        assert {word_to_string(w) for w in cls} == {
            "121321321",
            "121323121",
            "123121321",
            "123123121",
        }
        stats = braid_move_stats(cls)
        assert stats["up"] == 5
        assert stats["down"] == 1
        assert Fraction(stats["up"] - stats["down"], len(cls)) == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            braid_move_stats([])


class TestSerialization:
    def test_digit_string(self):
        assert word_to_string(staircase_word(5)) == "1234123121"
        assert word_to_string(staircase_word(4)) == "123121"

    def test_comma_string_for_large_letters(self):
        w = words.Word(tuple([10, 1]), 12)
        assert word_to_string(w) == "10,1"
        assert word_from_string("10,1", 12) == w

    def test_round_trip(self):
        w = staircase_word(5)
        assert word_from_string(word_to_string(w), 5) == w


class TestTau:
    def test_tau_is_involution(self):
        for word in commutation_class(staircase_word(5)):
            for i in range(1, len(word)):
                assert word.tau(i).tau(i) == word

    def test_tau_swaps_positions_from_the_left(self):
        w = word_from_string("1231423121", 5)
        assert w.tau(1) == w  # letters 1,2 do not commute
        assert w.tau(3).letters == (1, 2, 1, 3, 4, 2, 3, 1, 2, 1)
        assert w.tau(5).letters == (1, 2, 3, 1, 2, 4, 3, 1, 2, 1)


def reference_closure(start: Word, kinds: tuple[str, ...]) -> list[Word]:
    """Move closure built only on ``list_moves`` and ``apply_move``."""
    seen = {start}
    queue = deque([start])
    while queue:
        word = queue.popleft()
        for site in list_moves(word):
            if site.kind in kinds:
                neighbour = apply_move(word, site)
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
    return sorted(seen)


ALL_KINDS = (COMMUTATION, BRAID_UP, BRAID_DOWN)

CLASS_STARTS = [staircase_word(n) for n in range(2, 7)] + [
    trapezoid_word(1),
    trapezoid_word(2),
    make_word([1, 2, 3, 1, 2, 3, 1, 2, 1], 4),
]


def list_moves_braid_sites(word: Word) -> tuple[int, int]:
    kinds = [site.kind for site in list_moves(word)]
    return kinds.count(BRAID_UP), kinds.count(BRAID_DOWN)


def window_braid_sites(letters: tuple[int, ...]) -> tuple[int, int]:
    """(up, down) by reading each window ``a, a+1, a`` or ``a, a-1, a``."""
    up = down = 0
    for p in range(len(letters) - 2):
        a, b, c = letters[p:p + 3]
        up += a == c and b == a + 1
        down += a == c and b == a - 1
    return up, down


def test_braid_sites_on_any_word():
    # every word of length <= 7 over 1..4: reduced or not, with `a a` factors
    for length in range(8):
        for letters in itertools.product((1, 2, 3, 4), repeat=length):
            assert braid_sites(Word(letters, 5)) == window_braid_sites(letters), letters
    assert braid_sites(make_word((1, 3, 1), 4)) == (0, 0)
    assert braid_sites(make_word((2, 1, 2, 3, 2), 4)) == (1, 1)


class TestClosureMatchesMoveReference:
    """The tuple closures agree with a closure over list_moves/apply_move."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_reduced_words(self, n):
        for perm in all_permutations(n):
            found = all_reduced_words(perm)
            start = first_reduced_word(perm)
            assert found == reference_closure(start, ALL_KINDS)
            assert all(type(w) is Word and w.rank == n for w in found)
            for word in found:
                assert braid_sites(word) == list_moves_braid_sites(word)

    @pytest.mark.parametrize("start", CLASS_STARTS, ids=str)
    def test_commutation_class(self, start):
        found = commutation_class(start)
        assert found == reference_closure(start, (COMMUTATION,))
        assert all(type(w) is Word and w.rank == start.rank for w in found)
        for word in found:
            assert braid_sites(word) == list_moves_braid_sites(word)

    @pytest.mark.parametrize("start", CLASS_STARTS, ids=str)
    def test_class_cap_boundary(self, start):
        size = len(commutation_class(start))
        assert len(commutation_class(start, cap=size)) == size
        if size > 1:
            with pytest.raises(ExplosionGuardError):
                commutation_class(start, cap=size - 1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_reduced_words_cap_boundary(self, n):
        w0 = Permutation.longest(n)
        size = len(all_reduced_words(w0))
        assert len(all_reduced_words(w0, cap=size)) == size
        with pytest.raises(ExplosionGuardError):
            all_reduced_words(w0, cap=size - 1)


def reference_graph(perm: Permutation) -> tuple[list[Word], set[tuple[int, int, str]]]:
    """The Matsumoto graph built only on ``list_moves`` and ``apply_move``."""
    vertices = reference_closure(first_reduced_word(perm), ALL_KINDS)
    index = {w: i for i, w in enumerate(vertices)}
    edges = set()
    for word in vertices:
        i = index[word]
        for site in list_moves(word):
            j = index[apply_move(word, site)]
            kind = "comm" if site.kind == COMMUTATION else "braid"
            edges.add((min(i, j), max(i, j), kind))
    return vertices, edges


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matsumoto_graph_matches_move_reference(n):
    for perm in all_permutations(n):
        graph = matsumoto_graph(perm)
        vertices, edges = reference_graph(perm)
        assert list(graph.vertices) == vertices, perm
        assert graph.edges == edges, perm


def test_cap_error_names_words():
    with pytest.raises(ExplosionGuardError) as raised:
        commutation_class(staircase_word(5), cap=2)
    assert str(raised.value) == "enumeration of words exceeded the state cap of 2"
    assert (raised.value.cap, raised.value.what) == (2, "words")
    with pytest.raises(ExplosionGuardError, match="^enumeration of words exceeded"):
        all_reduced_words(Permutation.longest(4), cap=2)
