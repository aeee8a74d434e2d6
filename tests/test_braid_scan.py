"""``braid_move_stats`` counts braid sites as windows, exactly.

The window counter ``posets._window_counts`` joins each chunk of words into
one buffer and counts the factors ``a (a+1) a`` and ``(a+1) a (a+1)`` with
the C-level ``count``; a factor whose matches may overlap in that buffer
(it holds ``a (a+1) a (a+1)``, never in a reduced word) is counted by the
exact ``find`` loop ``posets._overlapping``.  Every case here must equal the
sums of the per-word reference ``braid_sites`` over the same words.
"""

import random
from fractions import Fraction

import pytest
from helpers import partitions

from braidhooks import posets
from braidhooks.homomesy import rw_class
from braidhooks.tableaux import Shape
from braidhooks.words import (
    Permutation,
    Word,
    all_reduced_words,
    braid_move_stats,
    braid_sites,
    commutation_class,
    make_word,
    staircase_word,
    trapezoid_word,
)


def reference(ws):
    """``braid_move_stats`` from the per-word ``braid_sites``."""
    ws = list(ws)
    up = sum(braid_sites(w)[0] for w in ws)
    down = sum(braid_sites(w)[1] for w in ws)
    return {"total": up + down, "mean": Fraction(up + down, len(ws)), "up": up, "down": down}


def scan_only(monkeypatch):
    """Make the exact overlap count fail, so a pass shows ``count`` alone ran."""

    def refuse(buf, pattern):
        raise AssertionError(f"{pattern!r} counted one match at a time")

    monkeypatch.setattr(posets, "_overlapping", refuse)


def random_word(rng, rank, length):
    """A word with no factor ``a a``, holding runs ``a, a+1, a, a+1, a``."""
    letters = []
    while len(letters) < length:
        a = rng.randint(1, rank - 2)
        run = [a, a + 1, a, a + 1, a] if rng.random() < 0.3 else [rng.randint(1, rank - 1)]
        for c in run:
            if not letters or letters[-1] != c:
                letters.append(c)
    return make_word(letters[:length], rank)


CLASSES = {
    **{f"staircase {n}": (lambda n=n: commutation_class(staircase_word(n))) for n in range(3, 7)},
    **{f"trapezoid {n}": (lambda n=n: commutation_class(trapezoid_word(n))) for n in (1, 2, 3)},
    "skew example": lambda: commutation_class(make_word([1, 2, 3, 1, 2, 3, 1, 2, 1], 4)),
    "1,2,3,1,2,1": lambda: commutation_class(make_word([1, 2, 3, 1, 2, 1], 4)),
    "1,3": lambda: commutation_class(make_word([1, 3], 4)),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_red_w0(n, monkeypatch):
    red = all_reduced_words(Permutation.longest(n))
    expected = reference(red)
    scan_only(monkeypatch)  # reduced words never need the exact overlap count
    assert braid_move_stats(red) == expected


@pytest.mark.parametrize("build", CLASSES.values(), ids=CLASSES.keys())
def test_commutation_classes(build):
    cls = build()
    assert braid_move_stats(cls) == reference(cls)


def test_classes_of_right_shapes():
    for n in range(2, 9):
        for outer in partitions(n):
            cls = rw_class(Shape.right(outer))
            assert braid_move_stats(cls) == reference(cls), outer


def test_overlapping_sites():
    word = make_word([1, 2, 1, 2, 1], 3)
    assert braid_sites(word) == (2, 1)
    assert braid_move_stats([word]) == {"total": 3, "mean": 3, "up": 2, "down": 1}
    assert braid_move_stats([make_word([2, 1, 2, 1, 2], 3)])["down"] == 2


def exact_counts(monkeypatch):
    """The list of the windows of a ``bytes`` buffer that the exact overlap
    count counted, each as its label tuple, filled as they are."""
    counted = []
    overlapping = posets._overlapping

    def spy(buf, pattern):
        counted.append(tuple(pattern))
        return overlapping(buf, pattern)

    monkeypatch.setattr(posets, "_overlapping", spy)
    return counted


def test_overlap_takes_the_exact_count(monkeypatch):
    counted = exact_counts(monkeypatch)
    ws = all_reduced_words(Permutation.longest(4)) + [make_word([2, 3, 2, 3], 4)]
    expected = reference(ws)
    assert braid_move_stats(ws) == expected
    assert counted == [(2, 3, 2), (3, 2, 3)]  # both hold the stretch 2 3 2 3


@pytest.mark.parametrize("seed", range(6))
def test_seeded_random_words_with_alternating_runs(seed):
    rng = random.Random(seed)
    ws = [random_word(rng, rng.randint(3, 9), rng.randint(0, 30)) for _ in range(300)]
    assert braid_move_stats(ws) == reference(ws)
    for w in ws:
        assert braid_move_stats([w]) == reference([w]), w


def test_ranks_above_256():
    big = [
        Word((254, 255, 254, 256, 255, 256, 1, 2, 1), 300),
        Word((255, 256, 255, 256, 255), 257),
        Word((1, 2, 1, 3, 2, 3), 400),  # small letters in a large rank
        Word((299, 298, 299), 300),
    ]
    assert braid_move_stats(big) == reference(big)
    assert braid_move_stats(big)["up"] == 5


def test_many_chunks_of_mixed_words(monkeypatch):
    rng = random.Random(7)
    pools = [all_reduced_words(Permutation.longest(n)) for n in (3, 4, 5)]
    ws = []
    while len(ws) < 3 * posets._CHUNK + 17:
        ws.append(Word((), rng.randint(1, 6)))
        ws.append(Word((rng.randint(1, 4),), 5))
        ws.extend(rng.sample(rng.choice(pools), 2))
        ws.append(Word((5, 6, 5, 4, 5, 4), 7))
    expected = reference(ws)
    scan_only(monkeypatch)
    assert braid_move_stats(ws) == expected
    assert braid_move_stats(ws)["total"] > 0


def buffer_types(monkeypatch) -> list:
    """Record the type of each chunk's joined buffer from here on."""
    joined = []
    join = posets._joined

    def spy(chunk, labels, windows):
        buf, encode = join(chunk, labels, windows)
        joined.append(type(buf))
        return buf, encode

    monkeypatch.setattr(posets, "_joined", spy)
    return joined


def test_ranks_across_the_bytes_and_str_boundary(monkeypatch):
    """Letters up to 254 are joined as bytes; a window holding 255, or a
    letter past 255, sends the chunk to ``str``."""
    joined = buffer_types(monkeypatch)
    scan_only(monkeypatch)
    chunk = posets._CHUNK
    rng = random.Random(3)
    for rank, kind in ((255, bytes), (256, str), (257, str)):
        top = rank - 1  # the largest letter
        ws = rng.choices([staircase_word(5), make_word((top - 1, top, top - 1, 1, 2, 1), rank),
                          make_word((top, top - 1, top, top - 2, top - 1), rank)], k=chunk + 5)
        joined.clear()
        assert braid_move_stats(ws) == reference(ws), rank
        assert joined == [kind, kind], rank


def test_a_large_letter_outside_every_window_falls_back_to_str(monkeypatch):
    # every braid window is below 255, so the chunk tries ``bytes`` first;
    # letter 300 does not fit a byte, and the chunk is joined as ``str``
    joined = buffer_types(monkeypatch)
    ws = [make_word((1, 2, 1, 300), 302), make_word((300, 3, 4, 3, 300, 4), 302),
          make_word((2, 1, 2, 300, 1, 2, 1), 302)]
    expected = reference(ws)
    assert expected["up"] == 3 and expected["down"] == 1
    assert braid_move_stats(ws) == expected
    assert joined == [str]


def test_a_generator_is_read_once():
    red = all_reduced_words(Permutation.longest(5))
    pool = red * 6  # more than one chunk
    assert len(pool) > posets._CHUNK
    reads = []

    def once():
        for w in pool:
            reads.append(w)
            yield w

    assert braid_move_stats(once()) == reference(pool)
    assert reads == pool


def test_empty_collection_raises():
    with pytest.raises(ValueError, match="nonempty"):
        braid_move_stats([])
    with pytest.raises(ValueError, match="nonempty"):
        braid_move_stats(w for w in ())
