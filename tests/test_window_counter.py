"""The one window counter, ``posets._window_counts``, equals brute force.

It counts, for each window (a tuple of labels), how often the window
appears as consecutive labels of a carrier, over a collection read once in
chunks of ``posets._CHUNK``.  Labels below 256 are joined as ``bytes``
unless a window holds 255, the separator; other chunks are joined as
``str``.  A window that can overlap itself is counted one match at a time
when its overlap stretch is in the buffer.  Every count here must equal a
position-by-position count over each tuple, and the braid totals the sums
of the per-word reference ``braid_sites``.
"""

import random
from fractions import Fraction

import pytest

from braidhooks import posets
from braidhooks.homomesy import tableau_statistic, word_statistic
from braidhooks.posets import _CHUNK, _window_counts, _window_sum
from braidhooks.tableaux import _hook_windows
from braidhooks.words import Word, _braid_windows, braid_move_stats, braid_sites, make_word


class Labels:
    """A bare carrier: only its label tuple."""

    _LABELS = "labels"

    def __init__(self, labels):
        self.labels = tuple(labels)


def brute_force(tuples, windows) -> dict:
    """Each window's matches, overlapping ones too, position by position."""
    return {w: sum(t[i:i + len(w)] == w for t in tuples for i in range(len(t)))
            for w in windows}


def counted(tuples, windows) -> tuple:
    return _window_counts(map(Labels, tuples), lambda chunk: windows)


def sites(ws) -> tuple:
    """The up and down braid sites of ``ws`` and their mean per word."""
    stats = braid_move_stats(ws)
    return stats["up"], stats["down"], stats["mean"]


POOLS = {  # each holds a label in no window
    "bytes": [0, 1, 2, 3, 4, 5, 254],
    "separator in a window": [1, 2, 3, 4, 255],
    "separator only as a label": [1, 2, 3, 255],
    "past 255": [1, 2, 7, 256, 300, 10**9],
}
WINDOWS = {
    "bytes": [(1,), (1, 2), (1, 2, 1), (2, 1, 2), (1, 1, 1), (1, 2, 1, 2), (0, 254), (254, 0)],
    "separator in a window": [(1, 255, 1), (255, 255), (1, 2, 1), (2, 3)],
    "separator only as a label": [(1, 2, 1), (2, 1, 2), (3, 3), (1, 2)],
    "past 255": [(256, 300, 256), (10**9, 1), (1, 2, 1), (2, 2)],
}


@pytest.mark.parametrize("pool", sorted(POOLS))
@pytest.mark.parametrize("seed", range(3))
def test_counts_equal_brute_force(pool, seed):
    rng = random.Random(f"{pool}/{seed}")
    tuples = [tuple(rng.choice(POOLS[pool]) for _ in range(rng.randint(0, 12)))
              for _ in range(rng.randint(1, 300))]
    windows = WINDOWS[pool]
    assert counted(tuples, windows) == (len(tuples), brute_force(tuples, windows))


def test_each_window_is_counted_in_one_buffer_kind(monkeypatch):
    kinds = []
    joined = posets._joined

    def spy(chunk, labels, windows):
        buf, encode = joined(chunk, labels, windows)
        kinds.append(type(buf))
        return buf, encode

    monkeypatch.setattr(posets, "_joined", spy)
    for pool, kind in (("bytes", bytes), ("separator in a window", str),
                       ("separator only as a label", bytes), ("past 255", str)):
        kinds.clear()
        counted([tuple(POOLS[pool])], WINDOWS[pool])
        assert kinds == [kind], pool


RUN = (1, 2, 1, 2, 1)


@pytest.mark.parametrize("at", [17, _CHUNK - 1, _CHUNK - 2],
                         ids=["inside a chunk", "across the boundary", "before the boundary"])
def test_runs_of_alternating_letters(at):
    """Runs ``1 2 1 2 1`` inside one chunk and at a chunk boundary, each
    beside a word that ends ``1 2`` or starts ``2 1``, which a buffer with
    no separator would join into more sites."""
    rng = random.Random(at)
    filler = [make_word(rng.choice([(3, 2, 3), (1, 3), (2,), ()]), 4) for _ in range(_CHUNK + 40)]
    ws = filler[:at] + [make_word(RUN, 3), make_word((3, 1, 2), 4), make_word(RUN, 3),
                        make_word((2, 1, 3), 4), make_word(RUN, 3)] + filler[at:]
    windows = [(1, 2, 1), (2, 1, 2), (2, 3, 2), (3, 2, 3)]
    letters = [w.letters for w in ws]
    assert _window_counts(ws, lambda chunk: windows) == (len(ws), brute_force(letters, windows))
    up = sum(braid_sites(w)[0] for w in ws)
    down = sum(braid_sites(w)[1] for w in ws)
    assert sites(ws) == (up, down, Fraction(up + down, len(ws)))
    assert (up, down) == (6, 3 + sum(w.letters == (3, 2, 3) for w in ws))


@pytest.mark.parametrize("rank", [255, 256, 257])
def test_words_across_the_encoding_boundary(rank):
    top = rank - 1  # the largest letter
    ws = [Word((top - 1, top, top - 1, top, top - 1), rank), Word((top, top - 1, top), rank),
          Word((1, 2, 1, top, top - 1), rank), Word((), rank), Word((2, 1, 2), 3)]
    up = sum(braid_sites(w)[0] for w in ws)
    down = sum(braid_sites(w)[1] for w in ws)
    assert (up, down) == (3, 3)
    assert sites(ws) == (up, down, Fraction(up + down, len(ws)))
    assert braid_move_stats(ws)["total"] == up + down


def test_braid_windows_never_outnumber_the_words_or_letters():
    """A chunk of few words in a large rank lists only the windows of the
    letters it holds, not one per letter of the rank."""
    assert _braid_windows([Word((1, 2, 1, 99_999), 10**5)]) == [(1, 2, 1), (2, 1, 2)]
    assert _braid_windows([Word((), 4)] * 2) == [(1, 2, 1), (2, 1, 2), (2, 3, 2), (3, 2, 3)]
    assert braid_move_stats([Word((99_998, 99_999, 99_998), 10**5)])["up"] == 1


def test_an_empty_collection():
    def windows(chunk):
        raise AssertionError("no chunk to search")

    assert _window_counts([], windows) == (0, {})
    assert _window_counts(iter(()), windows) == (0, {})
    assert _window_counts([], _braid_windows) == (0, {})
    assert _window_sum([], _hook_windows) == 0
    assert word_statistic("braid-moves").total([]) == 0
    assert tableau_statistic("braid-hooks").total([]) == 0
