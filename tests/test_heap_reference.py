"""``heap_poset`` against the height-stack heap builder it replaced.

The reference below drops the pieces rightmost letter first, records each
piece's height, relates every piece to the lowest higher piece in each
adjacent column, and reduces that relation by brute force.  The library
instead reduces the lower masks of ``words._heap_order``, the one place the
heap rule is written.  Both must give the same pieces and covers, or both
raise ``QuadraticRuleError`` with the same message.
"""

import itertools

from braidhooks.errors import QuadraticRuleError
from braidhooks.heaps import heap_poset
from braidhooks.words import (
    Permutation,
    all_reduced_words,
    commutation_class,
    make_word,
    staircase_word,
)

from test_order_masks import brute_order


def reference_heap(word) -> tuple:
    tops = [0] * (word.rank + 1)
    counts = [0] * (word.rank + 1)
    placed, pieces = [], []
    for letter in reversed(word.letters):
        adjacent = max(tops[letter - 1], tops[letter + 1])
        if tops[letter] > adjacent:
            raise QuadraticRuleError(
                f"letter {letter} stacks on itself; class violates the quadratic rule"
            )
        tops[letter] = adjacent + 1
        counts[letter] += 1
        placed.append((letter, adjacent + 1))
        pieces.append((letter, counts[letter]))
    order = sorted(range(len(pieces)), key=pieces.__getitem__)
    rank_of = {drop_idx: canon for canon, drop_idx in enumerate(order)}
    by_column = {}
    for drop_idx, (col, height) in enumerate(placed):
        by_column.setdefault(col, []).append((height, drop_idx))
    for stack in by_column.values():
        stack.sort()
    relations = set()
    for drop_idx, (col, height) in enumerate(placed):
        for adj in (col - 1, col + 1):
            for other_height, other_idx in by_column.get(adj, ()):
                if other_height > height:
                    relations.add((rank_of[drop_idx], rank_of[other_idx]))
                    break
    _, covers = brute_order(len(placed), relations)
    elements = tuple(pieces[i] for i in order)
    return elements, frozenset((elements[lo], elements[hi]) for lo, hi in covers)


def heap_order(word) -> tuple:
    heap = heap_poset(word)
    return heap.elements, heap.covers


def outcome(build, word):
    try:
        return build(word)
    except QuadraticRuleError as exc:
        return str(exc)


def _words() -> list:
    """Every reduced word of every permutation in S_n for n <= 5, the class of
    the S6 staircase word, and every word of length <= 7 over 1..4 in rank 5
    with no literal factor ``a a``."""
    found = [
        w for n in range(1, 6) for p in itertools.permutations(range(1, n + 1))
        for w in all_reduced_words(Permutation(p))
    ]
    found += commutation_class(staircase_word(6))
    found += [
        make_word(letters, 5)
        for k in range(8) for letters in itertools.product(range(1, 5), repeat=k)
        if all(a != b for a, b in zip(letters, letters[1:]))
    ]
    return found


def test_heap_poset_equals_height_stack_reference():
    words = _words()
    assert len(words) == 3137 + 286 + 4373
    quadratic = 0
    for word in words:
        expected = outcome(reference_heap, word)
        assert outcome(heap_order, word) == expected, word
        quadratic += isinstance(expected, str)
    assert quadratic
