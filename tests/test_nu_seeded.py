"""``nu`` on seeded random fillings of shapes past the exhaustive bound.

``test_nu_masks.py`` compares ``nu`` with the heap comparison on every
word up to seven cells.  Here a fixed seed draws shapes inside the right
staircase 9,...,1 (45 cells) and the half-right trapezoid 11,9,7,5,3,1,
and random standard fillings of them.  Each filling's word must come back
to it, both by ``nu`` and by the heap comparison; a word one braid move or
one letter away, or one letter short, long or past the shape's columns,
must get the same answer from both, filling or error type and message.
"""

import random

import pytest

from braidhooks import heaps
from braidhooks.errors import QuadraticRuleError, ShapeMismatchError
from braidhooks.heaps import nu, nu_inverse
from braidhooks.tableaux import Shape, random_standard_tableau

from test_nu_masks import answer, misfits, mutants, reference

SEED = 20150401
RIGHT = tuple(range(9, 0, -1))
HALF_RIGHT = (11, 9, 7, 5, 3, 1)


def random_parts(rng: random.Random, bound: tuple[int, ...], strict: bool) -> tuple[int, ...]:
    """A partition inside ``bound``, with distinct parts when ``strict``;
    each part at most three below the most it may be, so shapes stay large."""
    parts: list[int] = []
    for limit in bound:
        top = min(limit, parts[-1] - strict) if parts else limit
        if top < 1 or rng.random() < 0.1:
            break
        parts.append(rng.randint(max(1, top - 3), top))
    return tuple(parts or [1])


def _shapes() -> list[Shape]:
    rng = random.Random(SEED)
    shapes = [Shape.right(RIGHT), Shape.half_right(HALF_RIGHT)]
    shapes += [Shape.right(random_parts(rng, RIGHT, False)) for _ in range(12)]
    shapes += [Shape.half_right(random_parts(rng, HALF_RIGHT, True)) for _ in range(12)]
    return list({shape.cells: shape for shape in shapes}.values())


SHAPES = _shapes()


def test_the_draw_reaches_past_the_exhaustive_bound():
    assert max(shape.size for shape in SHAPES) == 45
    assert len({shape.cells for shape in SHAPES if shape.size > 7}) >= 12


@pytest.mark.parametrize("shape", SHAPES, ids=repr)
def test_nu_inverts_nu_inverse(shape):
    rng = random.Random(f"{SEED} {shape!r}")
    for _ in range(20):
        t = random_standard_tableau(shape, rng)
        word = nu_inverse(t)
        assert nu(word, shape) == t
        assert reference(word, shape) == t.pos


def test_mutated_words_agree_with_the_heap_comparison():
    answers = set()
    for shape in SHAPES:
        rng = random.Random(f"{SEED} mutants {shape!r}")
        for _ in range(8):
            for word in mutants(nu_inverse(random_standard_tableau(shape, rng)), rng):
                expected = reference(word, shape)
                assert answer(nu, word, shape) == expected, (word, shape)
                answers.add(expected[0])
    # a mutant lies in another commutation class, so its heap is another poset
    assert answers == {QuadraticRuleError, ShapeMismatchError}


def test_nu_matches_the_heap_comparison_past_the_exhaustive_bound():
    kinds = set()
    for shape in SHAPES:
        assert heaps._shape_side(shape)[2], shape
        rng = random.Random(f"{SEED} drops {shape!r}")
        for _ in range(8):
            word = nu_inverse(random_standard_tableau(shape, rng))
            for w in [word, *mutants(word, rng), *misfits(word)]:
                expected = reference(w, shape)
                assert answer(nu, w, shape) == expected, (w, shape)
                kinds.add(expected[0] if isinstance(expected[0], type) else "filling")
    # a mutant lies in another commutation class, so its heap is another poset
    assert kinds == {"filling", QuadraticRuleError, ShapeMismatchError}
