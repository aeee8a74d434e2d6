"""``braid_move_stats`` counts braid sites with byte scans, exactly.

It joins each chunk of words into one buffer and counts the factors
``a (a+1) a`` and ``(a+1) a (a+1)`` with ``bytes.count``; a chunk whose
sites of one kind may overlap, or whose letters may pass ``_SCAN_TOP``, is
counted word by word.  Every case here must equal the sums of the per-word
reference ``braid_sites`` over the same words.
"""

import random
from fractions import Fraction

import pytest
from helpers import partitions

from braidhooks import words
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
    """Make the word-by-word count fail, so a pass shows the byte scan ran."""

    def refuse(chunk):
        raise AssertionError("counted word by word")

    monkeypatch.setattr(words, "_summed_sites", refuse)


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
    scan_only(monkeypatch)  # reduced words never need the word-by-word count
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


def word_by_word_chunks(monkeypatch):
    """The list of the chunks counted word by word, filled as they are."""
    chunks = []
    summed = words._summed_sites

    def spy(chunk):
        chunks.append(chunk)
        return summed(chunk)

    monkeypatch.setattr(words, "_summed_sites", spy)
    return chunks


def test_overlap_takes_the_word_by_word_count(monkeypatch):
    chunks = word_by_word_chunks(monkeypatch)
    ws = all_reduced_words(Permutation.longest(4)) + [make_word([2, 3, 2, 3], 4)]
    expected = reference(ws)
    assert braid_move_stats(ws) == expected
    assert chunks == [ws]


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
    while len(ws) < 3 * words._CHUNK + 17:
        ws.append(Word((), rng.randint(1, 6)))
        ws.append(Word((rng.randint(1, 4),), 5))
        ws.extend(rng.sample(rng.choice(pools), 2))
        ws.append(Word((5, 6, 5, 4, 5, 4), 7))
    expected = reference(ws)
    scan_only(monkeypatch)
    assert braid_move_stats(ws) == expected
    assert braid_move_stats(ws)["total"] > 0


def test_large_letters_take_the_word_by_word_count(monkeypatch):
    rng = random.Random(3)
    chunk = words._CHUNK
    reduced = all_reduced_words(Permutation.longest(5)) + [staircase_word(words._SCAN_TOP + 1)]
    small = rng.choices(reduced, k=chunk)
    large = rng.choices([staircase_word(words._SCAN_TOP + 2), make_word((20, 21, 20, 1, 2, 1), 30)],
                        k=chunk)  # reduced, so only the letter range sends them word by word
    ws = small + [Word((), 3)] * chunk + large + small[:5]
    expected = reference(ws)
    chunks = word_by_word_chunks(monkeypatch)
    assert braid_move_stats(ws) == expected
    assert chunks == [large]


def test_a_generator_is_read_once():
    red = all_reduced_words(Permutation.longest(5))
    pool = red * 6  # more than one chunk
    assert len(pool) > words._CHUNK
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
