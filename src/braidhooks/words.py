"""Reduced words in the symmetric group and their commutation classes.

A word is a finite sequence of generator indices; the word ``(1, 2, 1)``
stands for the product ``s1 s2 s1`` of simple transpositions, applied left
to right as right multiplications (``s_i`` swaps positions ``i`` and
``i+1`` in one-line notation).  Two adjacent letters commute when their
indices differ by at least two; a factor ``a (a+1) a`` (an "up" braid) may
be replaced by ``(a+1) a (a+1)`` (a "down" braid) and back.

Words of rank ``n`` live in the symmetric group on ``n`` points, so their
letters lie in ``1..n-1``.  The public constructors (``Word(...)``,
``make_word``, ``make_reduced_word``, ``word_from_string``,
``staircase_word``, ``trapezoid_word``) check that range once; the
enumerations, moves and toggles here, and ``heaps.nu_inverse``, build words
whose letters are in range by construction, through the one unchecked
builder of every carrier, ``posets._build``.  A ``Word`` names its two
slots (``letters``, ``rank``) and inherits ``_rebuild`` and ``_sorted``
from ``posets._Carrier``.  All enumeration here is exact and guarded by a
configurable state cap (``BRAIDHOOKS_CAP`` in the environment).

``all_reduced_words`` lists the maximal chains of the weak order below a
permutation, which are its reduced words, and ``commutation_class`` those
of the down-sets of the word's heap (its linear extensions).  Both build
their table with ``posets._lattice``, which counts the chains and refuses a
count above the cap before any word is built, and list it with the one
walk, ``posets._extensions``, which makes its chains words itself.
The heap is compiled once, by ``_heap_order``, which ``heaps.heap_poset``
also reads.  Both meet each word once, in lexicographic order, with no
``seen`` set or sort.
``list_moves`` and ``apply_move`` are the public, checked form of one move.

A braid site is a window of three letters, ``a (a+1) a`` or
``(a+1) a (a+1)`` (``_braid_windows``).  ``braid_move_stats`` reads its
words once, through the one window counter ``posets._window_counts``, which
joins each chunk of a few thousand words into one buffer and counts each
window with the C-level ``count``, and splits the counts into up and down
sites; the orbit statistic ``homomesy.word_statistic("braid-moves")``
counts the same windows.  ``braid_sites`` stays public as the per-word
reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable

from .errors import (
    InvalidSiteError,
    LetterRangeError,
    NotReducedError,
    QuadraticRuleError,
    default_cap,
)
from .posets import _build, _Carrier, _downset_table, _extensions, _lattice, _window_counts

__all__ = [
    "Word",
    "Permutation",
    "MoveSite",
    "MatsumotoGraph",
    "COMMUTATION",
    "BRAID_UP",
    "BRAID_DOWN",
    "default_cap",
    "make_reduced_word",
    "make_word",
    "word_to_permutation",
    "is_reduced",
    "staircase_word",
    "trapezoid_word",
    "list_moves",
    "apply_move",
    "braid_sites",
    "commutation_class",
    "all_reduced_words",
    "matsumoto_graph",
    "braid_move_stats",
    "word_to_string",
    "word_from_string",
]

COMMUTATION = "comm"
BRAID_UP = "braid-up"
BRAID_DOWN = "braid-down"


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of ``1..n`` in one-line notation."""

    images: tuple[int, ...]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def times_s(self, i: int) -> "Permutation":
        """Right-multiply by ``s_i``: swap positions ``i`` and ``i+1``."""
        img = list(self.images)
        img[i - 1], img[i] = img[i], img[i - 1]
        return Permutation(tuple(img))

    def length(self) -> int:
        """Coxeter length = number of inversions."""
        img = self.images
        return sum(a > b for i, a in enumerate(img) for b in img[i + 1:])

    def descents(self) -> list[int]:
        """Positions ``i`` with ``w(i) > w(i+1)``."""
        img = self.images
        return [i + 1 for i in range(len(img) - 1) if img[i] > img[i + 1]]

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(tuple(range(n, 0, -1)))


@dataclass(frozen=True, order=True, slots=True)
class Word(_Carrier):
    """An immutable word in the generators of the symmetric group.

    ``letters`` are 1-based generator indices; ``rank`` is the ``n`` of the
    ambient group.  Ordering is lexicographic on the letter sequence, which
    is the canonical ordering used whenever word sets are materialised.
    """

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self):
        letters = self.letters
        if letters and (min(letters) < 1 or max(letters) >= self.rank):
            bad = next(a for a in letters if not 1 <= a <= self.rank - 1)
            raise LetterRangeError(
                f"letter {bad} outside 1..{self.rank - 1} for rank {self.rank}"
            )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_to_string(self)

    def key(self) -> tuple[tuple[int, ...], int]:
        """The canonical sort key, ``(letters, rank)``: the dataclass order."""
        return self.letters, self.rank

    # tau_i swaps the letters at positions i and i+1 (from the left) if they
    # commute.  Under the heap bijection this is the entry swap of N-i and
    # N-i+1, so the odd/even products agree with the tableau-side ones up to
    # a parity flip when N is odd.
    _LABELS = "letters"  # the label tuple the orbit walk reads
    _AMBIENT = "rank"

    @staticmethod
    def _toggle(letters: tuple, indices: Iterable[int]) -> tuple:
        """A tau word on raw ``letters``: tau_i swaps the letters at positions
        i and i+1 when they commute."""
        letters = list(letters)
        for i in indices:
            a, b = letters[i - 1], letters[i]
            if abs(a - b) >= 2:
                letters[i - 1], letters[i] = b, a
        return tuple(letters)

    def permutation(self) -> Permutation:
        return word_to_permutation(self.letters, self.rank)


@dataclass(frozen=True)
class MoveSite:
    """A position in a word admitting a commutation or braid move."""

    position: int  # 1-based start index of the factor
    kind: str  # COMMUTATION | BRAID_UP | BRAID_DOWN


def make_reduced_word(letters: Iterable[int], rank: int) -> Word:
    """Build a word and check it is reduced."""
    word = Word(tuple(letters), rank)
    if not is_reduced(word.letters, rank):
        raise NotReducedError(f"word {word.letters} is not reduced in rank {rank}")
    return word


def make_word(letters: Iterable[int], rank: int) -> Word:
    """Build a word without the reducedness check.

    Words with repetition are needed for skew shapes, but a literal factor
    ``a a`` is still rejected (quadratic rule).
    """
    word = Word(tuple(letters), rank)
    _no_square(word.letters)
    return word


def _no_square(letters: tuple[int, ...]) -> None:
    """``QuadraticRuleError`` at the first factor ``a a``."""
    for a, b in zip(letters, letters[1:]):
        if a == b:
            raise QuadraticRuleError(f"factor {a} {b} violates the quadratic rule")


def word_to_permutation(letters: Iterable[int], rank: int) -> Permutation:
    """Evaluate the word as a product of simple transpositions, left to right."""
    img = list(range(1, rank + 1))
    for a in letters:
        if not 1 <= a <= rank - 1:
            raise LetterRangeError(f"letter {a} outside 1..{rank - 1}")
        img[a - 1], img[a] = img[a], img[a - 1]
    return Permutation(tuple(img))


def is_reduced(letters: Iterable[int], rank: int) -> bool:
    """A word is reduced iff its length equals the length of its permutation."""
    letters = tuple(letters)
    return len(letters) == word_to_permutation(letters, rank).length()


def staircase_word(n: int) -> Word:
    """The canonical reduced word (s1..s_{n-1})(s1..s_{n-2})...(s1 s2)(s1)."""
    if n < 2:
        raise ValueError("staircase word needs rank at least 2")
    letters: list[int] = []
    for top in range(n - 1, 0, -1):
        letters.extend(range(1, top + 1))
    return Word(tuple(letters), n)


def trapezoid_word(n: int) -> Word:
    """A word in rank ``2n+2`` whose heap is the trapezoid (2n+1, 2n-1, ..., 3, 1).

    The descending factors s_i s_{i-2} s_{i-4} ... run over i = 2n+1 down
    to 1, mirroring the staircase word's shrinking factors; this
    orientation makes the heap rotate onto the half-right trapezoid.
    """
    if n < 1:
        raise ValueError("trapezoid word needs n >= 1")
    letters: list[int] = []
    for i in range(2 * n + 1, 0, -1):
        letters.extend(range(i, 0, -2))
    return Word(tuple(letters), 2 * n + 2)


def list_moves(word: Word) -> list[MoveSite]:
    """All commutation and braid move sites of a word, by start position."""
    w = word.letters
    sites = []
    for p in range(len(w) - 1):
        if abs(w[p] - w[p + 1]) > 1:
            sites.append(MoveSite(p + 1, COMMUTATION))
    for p in range(len(w) - 2):
        if w[p] == w[p + 2]:
            if w[p + 1] == w[p] + 1:
                sites.append(MoveSite(p + 1, BRAID_UP))
            elif w[p + 1] == w[p] - 1:
                sites.append(MoveSite(p + 1, BRAID_DOWN))
    sites.sort(key=lambda s: (s.position, s.kind))
    return sites


def apply_move(word: Word, site: MoveSite) -> Word:
    """Apply a commutation or braid move at the given site."""
    w = list(word.letters)
    p = site.position - 1
    if site.kind == COMMUTATION:
        if p < 0 or p + 1 >= len(w) or abs(w[p] - w[p + 1]) <= 1:
            raise InvalidSiteError(f"no commutation at position {site.position}")
        w[p], w[p + 1] = w[p + 1], w[p]
    elif site.kind in (BRAID_UP, BRAID_DOWN):
        delta = 1 if site.kind == BRAID_UP else -1
        if (
            p < 0
            or p + 2 >= len(w)
            or w[p] != w[p + 2]
            or w[p + 1] != w[p] + delta
        ):
            raise InvalidSiteError(f"no {site.kind} move at position {site.position}")
        a, b = w[p], w[p + 1]
        w[p], w[p + 1], w[p + 2] = b, a, b
    else:
        raise InvalidSiteError(f"unknown move kind {site.kind!r}")
    return _build(Word, word.rank, tuple(w))


def braid_sites(word: Word) -> tuple[int, int]:
    """Counts of (up, down) braid factors in the word."""
    w = word.letters
    up = down = 0
    for a, b, c in zip(w, w[1:], w[2:]):
        if a == c:
            if b == a + 1:
                up += 1
            elif b == a - 1:
                down += 1
    return up, down


def _heap_order(letters: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The heap of ``letters``: ``below[i]`` sets the bit of the latest earlier
    piece in piece i's own and each adjacent column.  Pieces are numbered by
    (letter, position); ``order[i]`` is the position of piece i."""
    order = sorted(range(len(letters)), key=letters.__getitem__)  # stable: ties by position
    piece = {p: i for i, p in enumerate(order)}
    below = [0] * len(letters)
    last: dict[int, int] = {}  # column -> its latest piece: distinct bits, so sum is or
    for p, a in enumerate(letters):
        below[piece[p]] = sum(1 << last[c] for c in (a - 1, a, a + 1) if c in last)
        last[a] = piece[p]
    return order, below


def commutation_class(word: Word, cap: int | None = None) -> list[Word]:
    """All words reachable by commutation moves only, lexicographically sorted.

    They are the maximal chains of the down-sets of the word's heap
    (``_heap_order``).  Pieces of one letter form a chain, so no two
    placeable pieces share a letter and the walk's order is letter order.
    """
    cap = default_cap() if cap is None else cap
    order, below = _heap_order(word.letters)
    letters = [word.letters[p] for p in order]
    return _extensions(_downset_table(below, cap, "words"), letters, Word, word.rank, cap, "words")


def _descents(state: tuple[int, ...], *_) -> list[int]:
    """The left descents of a weak-order state ``(0, pos[1], ..., pos[n])``,
    ``pos[v]`` the place of value v: the letters a with a+1 before a."""
    return [a for a in range(1, len(state) - 1) if state[a] > state[a + 1]]


def _swap(state: tuple[int, ...], a: int) -> tuple[int, ...]:
    """The state below ``state`` by the left descent a: values a, a+1 swapped."""
    return state[:a] + (state[a + 1], state[a]) + state[a + 2:]


def all_reduced_words(perm: Permutation, cap: int | None = None) -> list[Word]:
    """The complete set Red(perm), lexicographically sorted.

    A word's first letter ``a`` is a left descent of ``perm`` (``a+1`` stands
    before ``a``), and the rest is a reduced word of ``perm`` with values
    ``a``, ``a+1`` swapped: the words are the maximal chains of the weak
    order below ``perm``, listed by the table walk of ``posets``.  Every
    letter is a left descent, in ``1..n-1``, so the words are built without
    ``Word``'s letter-range check.
    """
    cap = default_cap() if cap is None else cap
    n = perm.n
    top = (0, *sorted(range(n), key=perm.images.__getitem__))
    return _extensions(_lattice(top, _descents, _swap, cap, "words"), range(n),
                       Word, n, cap, "words")


@dataclass(frozen=True)
class MatsumotoGraph:
    """Graph on Red(w): vertices sorted words, undirected deduplicated edges.

    Edge kinds collapse the braid direction: ``"braid"`` or ``"comm"``.
    """

    vertices: tuple[Word, ...]
    edges: frozenset[tuple[int, int, str]]

    def braid_edge_count(self) -> int:
        return sum(1 for _, _, kind in self.edges if kind == "braid")

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adjacency: dict[int, set[int]] = {i: set() for i in range(len(self.vertices))}
        for i, j, _ in self.edges:
            adjacency[i].add(j)
            adjacency[j].add(i)
        seen, stack = {0}, [0]
        while stack:
            fresh = adjacency[stack.pop()] - seen
            seen |= fresh
            stack.extend(fresh)
        return len(seen) == len(self.vertices)

    def to_json(self) -> str:
        return json.dumps(
            {
                "vertices": [word_to_string(w) for w in self.vertices],
                "edges": sorted([i, j, kind] for i, j, kind in self.edges),
            }
        )

    def to_dot(self) -> str:
        lines = ["graph matsumoto {"]
        for idx, word in enumerate(self.vertices):
            lines.append(f'  v{idx} [label="{word_to_string(word)}"];')
        for i, j, kind in sorted(self.edges):
            style = "solid" if kind == "braid" else "dotted"
            lines.append(f"  v{i} -- v{j} [style={style}];")
        lines.append("}")
        return "\n".join(lines)


def matsumoto_graph(perm: Permutation, cap: int | None = None) -> MatsumotoGraph:
    """The full reduced-word graph of a permutation.

    Vertices are indexed by their letter tuples.  One scan of each word
    finds its moves, each neighbour being its letters with one factor
    rewritten (``a b`` to ``b a``, ``a b a`` to ``b a b``).  A move's inverse
    is a move of the same kind at the same position, so every edge is met
    from both ends and is kept from its lower end.
    """
    vertices = all_reduced_words(perm, cap)
    index = {w.letters: i for i, w in enumerate(vertices)}
    edges = set()
    for i, word in enumerate(vertices):
        w = word.letters
        last = len(w) - 2
        for p in range(last + 1):
            a, b = w[p], w[p + 1]
            if a - b > 1 or b - a > 1:
                j, kind = index[w[:p] + (b, a) + w[p + 2:]], "comm"
            elif p < last and w[p + 2] == a and a != b:
                j, kind = index[w[:p] + (b, a, b) + w[p + 3:]], "braid"
            else:
                continue
            if i < j:
                edges.add((i, j, kind))
    return MatsumotoGraph(tuple(vertices), frozenset(edges))


def braid_move_stats(words: Iterable[Word]) -> dict:
    """Exact braid-move statistics over a collection of words.

    Returns total site count, the mean per word, and the up/down split used
    by the skew-shape difference statistic.  The words are read once, by
    ``_window_counts``, so a generator serves; every total equals the sum of
    ``braid_sites`` over the same words.
    """
    count, found = _window_counts(words, _braid_windows)
    if not count:
        raise ValueError("braid_move_stats needs a nonempty collection")
    total = sum(found.values())
    up = sum([n for w, n in found.items() if w[0] < w[1]])
    return {
        "total": total,
        "mean": Fraction(total, count),
        "up": up,
        "down": total - up,
    }


def _braid_windows(chunk: list[Word]) -> list[tuple[int, int, int]]:
    """The windows ``a (a+1) a`` and ``(a+1) a (a+1)`` of each letter a below
    the chunk's top letter, or, if more than its words, of each a it holds."""
    letters = range(1, max(map(attrgetter("rank"), chunk)) - 1)
    if len(letters) > len(chunk):
        held = set().union(*[w.letters for w in chunk])
        letters = sorted([a for a in held if a + 1 in held])
    return [w for a in letters for w in ((a, a + 1, a), (a + 1, a, a + 1))]


def word_to_string(word: Word) -> str:
    """Digit string when all letters are below ten, else comma-separated."""
    if all(a < 10 for a in word.letters):
        return "".join(str(a) for a in word.letters)
    return ",".join(str(a) for a in word.letters)


def word_from_string(text: str, rank: int) -> Word:
    if "," in text:
        letters = tuple(int(part) for part in text.split(","))
    else:
        letters = tuple(int(ch) for ch in text)
    return Word(letters, rank)
