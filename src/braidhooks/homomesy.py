"""Even/odd toggle actions, orbit statistics, and the moving-window bijection.

The odd and even operators apply every ``tau_i`` of one parity at once;
they are involutions, so together they generate a dihedral group.  They
act on any carrier of the toggle group (``posets._Carrier``): linear
extensions of a poset, a standard filling being one of its shape, and
words, the linear extensions of a heap.  A carrier has a ``size``;
``taus(indices)``, which applies a whole tau word in one pass (``tau(i)`` is
the one-letter word); and ``key()``, its canonical sort key (a tableau's
row-reading word, an extension's element indices, a word's ``(letters,
rank)``).  Orbits and their members are ordered by that key through
``_sorted(states)``, written once on ``_Carrier``, which compares the
states' label tuples at C level (within one carrier they order as the
key); a tableau keeps its own, its word as bytes, one ``bytes.maketrans``
of its ids.  All averages are exact fractions.

Orbits are walked on raw label tuples.  Each carrier names its tuple in
``_LABELS`` (an extension's element ``ids``, a word's ``letters``) and
holds its one commute test in ``_toggle(labels, indices)``, which ``taus``
also calls; ``_rebuild(labels)`` builds a state of its type and poset, or
rank (named in ``_AMBIENT``), through the one ``posets._build``.  The walk
uses the first state's ``_toggle`` and ``_rebuild`` for all, so
``dihedral_orbits`` refuses a carrier whose states differ in type, label
length or ``_AMBIENT``.  Under two involutions every orbit is a path or a
cycle whose edges alternate, so ``_walk`` applies them in turn until the
start comes back or a state is fixed, and from a path end walks the other
way from the start: one toggle pass per state and no set per orbit.  The
sampled search, ``find_gyration_anomaly``, closes each drawn start's orbit
with the same ``dihedral_orbits`` and averages it with ``orbit_average``.

Every orbit statistic a command reports is a window count summed per
collection.  A braid hook is three consecutive values in the cells (r, c),
(r, c+1), (r+1, c+1) with (r+1, c) outside the shape, a braid site three
consecutive letters ``a, a±1, a``, and a descent of an ideal a cover (p, q)
with p labelled right before q, p in the ideal and q outside it.
``_window_statistic(windows)`` returns a function of one state that carries
``total(states)``, which counts the states' windows
(``tableaux._hook_windows``, ``words._braid_windows``,
``posets._descent_windows``) with the one window sum,
``posets._window_sum``; ``tableau_statistic`` and ``word_statistic`` name
the first two, and ``orbits --poset`` builds the third.  ``orbit_average``
sums an orbit with ``total``; only a statistic a library caller passes in,
a plain function of one state, is summed state by state.

The moving window is the one ``posets`` keeps for any carrier: the parity
words are ``posets._o``, ``window_table`` and ``big_phi_inverse`` walk the
states w^(j) = w^(j-1)·tau_{o(j)} of ``_window``, and ``big_phi`` is
``_unwind``, tau_{o(k-2)}...tau_{o(1)} in one pass, once the braid is checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, cycle
from operator import attrgetter, countOf
from typing import Callable, Iterable, Sequence

from .errors import NoPreimageError, NotABraidError
from .heaps import nu_inverse
from .posets import _o, _unwind, _window, _window_sum
from .tableaux import Shape, Tableau, _hook_windows, random_standard_tableau, standard_tableaux
from .words import Word, _braid_windows

__all__ = [
    "Orbit",
    "WindowTable",
    "MODES",
    "tau_parity",
    "tau_odd",
    "tau_even",
    "gyration",
    "dihedral_orbits",
    "orbit_average",
    "homomesy_report",
    "window_table",
    "big_phi",
    "big_phi_inverse",
    "word_condition_check",
    "rw_class",
    "tableau_statistic",
    "word_statistic",
    "find_gyration_anomaly",
]

MODES = ("dihedral", "gyration", "order-two-odd", "order-two-even")


def tau_parity(x, parity: str):
    """Apply every tau_i with i of the given parity (they commute)."""
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', not {parity!r}")
    return x.taus(_o(1 if parity == "odd" else 2, x.size))


def tau_odd(x):
    return tau_parity(x, "odd")


def tau_even(x):
    return tau_parity(x, "even")


def gyration(x):
    """The composite tau_odd then tau_even (a right action product)."""
    return tau_even(tau_odd(x))


def _generators(mode: str) -> list[tuple[int, ...]]:
    """The mode's generators, each as its parity word: ``(1,)`` is tau_odd,
    ``(2,)`` tau_even and ``(1, 2)`` tau_odd then tau_even."""
    if mode == "dihedral":
        return [(1,), (2,)]
    if mode == "gyration":
        return [(1, 2)]
    if mode == "order-two-odd":
        return [(1,)]
    if mode == "order-two-even":
        return [(2,)]
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def _tau_words(generators: list[tuple[int, ...]], size: int) -> list[list[int]]:
    """The parity words as tau words on a carrier of ``size`` labels."""
    return [[i for p in word for i in _o(p, size)] for word in generators]


@dataclass(frozen=True)
class Orbit:
    """An orbit under the chosen generators, members sorted canonically."""

    members: tuple
    mode: str

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def representative(self):
        return self.members[0]


def _walk(start: tuple, steps: list[list[int]], toggle: Callable) -> list[tuple]:
    """The label tuples of the orbit of ``start``, each once, ``start`` first.

    ``toggle(labels, step)`` applies one generator's tau word.  Apply the
    generators in turn until ``start`` comes back (a cycle) or a state is
    fixed (a path end, which two involutions can have); from a path end,
    walk the other way from ``start``, beginning with the other generator.
    One generator's orbit is a cycle: a state it fixes is ``start`` alone.
    """
    orbit = [start]
    for turn in (steps, steps[::-1]):
        x = start
        for step in cycle(turn):
            y = toggle(x, step)
            if y == x:
                break
            if y == start:
                return orbit
            orbit.append(y)
            x = y
    return orbit


def _one_carrier(states: list, labels_of: Callable) -> None:
    """Refuse states that one walk cannot serve: it toggles and rebuilds
    every state as the first one, so all share its type, label length and
    poset or rank (``_AMBIENT``; an equal shape counts as the same).  Each
    test is one C-level count; ``ValueError`` names the mismatch."""
    first, n = states[0], len(states)
    if countOf(map(type, states), type(first)) < n:
        names = ", ".join(sorted({t.__name__ for t in map(type, states)}))
        raise ValueError(f"carrier mixes state types: {names}")
    if countOf(map(len, map(labels_of, states)), len(labels_of(first))) < n:
        lengths = sorted(set(map(len, map(labels_of, states))))
        raise ValueError(f"carrier mixes label lengths: {lengths}")
    ambient = attrgetter(first._AMBIENT)
    if countOf(map(ambient, states), ambient(first)) < n:
        raise ValueError(f"carrier mixes states of more than one {first._AMBIENT}")


def dihedral_orbits(carrier: Iterable, mode: str = "dihedral") -> list[Orbit]:
    """Partition a finite carrier into orbits; deterministic order.

    The carrier's states share one type, label length, and shape, poset or
    rank; ``ValueError`` otherwise.  Each orbit holds the carrier's own
    objects; only states outside the carrier are built.
    """
    generators = _generators(mode)
    states = carrier if isinstance(carrier, list) else list(carrier)
    if not states:
        return []
    first = states[0]
    labels_of = attrgetter(first._LABELS)
    _one_carrier(states, labels_of)
    ordered = type(first)._sorted
    pool = ordered(states)
    rank = dict(zip(map(labels_of, pool), count()))
    if len(rank) < len(pool):  # a state given twice: keep one object of it
        pool = list(dict(zip(map(labels_of, pool), pool)).values())
        rank = dict(zip(map(labels_of, pool), count()))
    steps = _tau_words(generators, first.size)
    toggle, rebuild = first._toggle, first._rebuild
    placed = bytearray(len(pool))
    orbits = []
    for r, start in enumerate(pool):
        if placed[r]:
            continue
        ranks, outside = [], []
        for labels in _walk(labels_of(start), steps, toggle):
            s = rank.get(labels)
            if s is None:
                outside.append(rebuild(labels))
            else:
                ranks.append(s)
                placed[s] = 1
        ranks.sort()
        members = list(map(pool.__getitem__, ranks))
        if outside:
            members = ordered(members + outside)
        orbits.append(Orbit(tuple(members), mode))
    return orbits


def orbit_average(orbit: Orbit, statistic: Callable) -> Fraction:
    """The orbit's exact average, summed by the statistic's ``total`` when it
    has one (a window count over the whole orbit), else state by state."""
    if not orbit.members:
        raise ValueError("orbit is empty")
    total = getattr(statistic, "total", None)
    if total is None:
        return Fraction(sum(map(statistic, orbit.members)), orbit.size)
    return Fraction(total(orbit.members), orbit.size)


def homomesy_report(carrier: Iterable, statistic: Callable, mode: str = "dihedral",
                    statistic_name: str = "statistic") -> dict:
    """Orbit decomposition with per-orbit exact averages; ``ValueError`` on an
    empty carrier."""
    orbits = dihedral_orbits(carrier, mode)
    if not orbits:
        raise ValueError("homomesy_report needs a nonempty carrier")
    averages = [orbit_average(orbit, statistic) for orbit in orbits]
    # an orbit's sum is its average times its size
    total = sum(avg * orbit.size for orbit, avg in zip(orbits, averages))
    count = sum(orbit.size for orbit in orbits)
    return {
        "mode": mode,
        "statistic": statistic_name,
        "orbits": [
            {"size": orbit.size, "average": avg, "representative": orbit.representative}
            for orbit, avg in zip(orbits, averages)
        ],
        "homomesic": len(set(averages)) <= 1,
        "global_average": Fraction(total, count),
    }


def _window_statistic(windows: Callable[[list], list]) -> Callable:
    """A statistic of one state, its number of windows (``windows(chunk)``
    lists a chunk's), that carries ``total(states)``, their number over a
    collection; the one-state call is ``total`` on that state alone."""

    def total(states: Iterable) -> int:
        return _window_sum(states, windows)

    def statistic(x) -> int:
        return total((x,))

    statistic.total = total
    return statistic


def tableau_statistic(name: str) -> Callable[[Tableau], int]:
    """The named statistic of one filling; ``.total(fillings)`` sums it."""
    if name == "braid-hooks":
        return _window_statistic(_hook_windows)
    raise ValueError(f"unknown tableau statistic {name!r}")


def word_statistic(name: str) -> Callable[[Word], int]:
    """The named statistic of one word; ``.total(words)`` sums it."""
    if name == "braid-moves":
        return _window_statistic(_braid_windows)
    raise ValueError(f"unknown word statistic {name!r}")


def rw_class(shape: Shape, cap: int | None = None) -> list[Word]:
    """The commutation class corresponding to the shape's standard fillings."""
    return Word._sorted(map(nu_inverse, standard_tableaux(shape, cap)))


@dataclass(frozen=True)
class WindowTable:
    """The moving-window rows (i, w^(i-2), a_i, c_i) for i = 2..N-1."""

    word: Word
    rows: tuple[tuple[int, Word, int, int], ...]

    def to_text(self) -> str:
        header = ("i", "word", "a_i", "c_i", "c_i - a_i")
        body = [
            (str(i), str(w), str(a), str(c), str(c - a)) for i, w, a, c in self.rows
        ]
        widths = [max(len(row[j]) for row in [header] + body) for j in range(5)]
        lines = [
            "  ".join(value.rjust(widths[j]) for j, value in enumerate(row))
            for row in [header] + body
        ]
        return "\n".join(lines)


def window_table(word: Word) -> WindowTable:
    """Track the length-two window of w^(j) = w.tau_{o(1)}...tau_{o(j)}."""
    return WindowTable(word, tuple(
        (i, current, current.letters[i - 2], current.letters[i])
        for i, current in zip(range(2, len(word)), _window(word))
    ))


def _is_braid_at(word: Word, k: int) -> bool:
    """An up braid a (a+1) a with the a+1 in (1-based) position k."""
    letters = word.letters
    if not 1 < k < len(letters):
        return False
    a = letters[k - 2]
    return letters[k] == a and letters[k - 1] == a + 1


def big_phi(k: int, word: Word) -> Word:
    """Phi(k, w) = w.tau_{o(k-2)} ... tau_{o(1)}, defined when k is a braid."""
    if not _is_braid_at(word, k):
        raise NotABraidError(f"position {k} is not the centre of a braid in {word}")
    return _unwind(word, k - 2)


def big_phi_inverse(word: Word) -> tuple[int, Word]:
    """Find the unique k with a_k = c_k; the preimage is (k, w^(k-2))."""
    for i, current in zip(range(2, len(word)), _window(word)):
        if current.letters[i - 2] == current.letters[i]:
            if not _is_braid_at(current, i):
                raise NoPreimageError(
                    f"window closes at {i} but {current} has no braid there"
                )
            return i, current
    raise NoPreimageError(f"{word} admits no preimage")


def word_condition_check(words: Sequence[Word]) -> bool:
    """Every word satisfies w_1 <= w_3 and w_{N-2} >= w_N."""
    checked = list(words)
    if not checked:
        raise ValueError("empty word class")
    n = len(checked[0])
    if n < 3:
        return True
    return all(
        w.letters[0] <= w.letters[2] and w.letters[n - 3] >= w.letters[n - 1]
        for w in checked
    )


def find_gyration_anomaly(shape: Shape, max_seeds: int = 10**4, base_seed: int = 0,
                          mode: str = "gyration", seed_start: int = 0) -> dict | None:
    """Sample start tableaux and report the first orbit whose braid-hook
    average differs from one, or None if the budget runs out."""
    _generators(mode)  # an unknown mode is refused before the first draw
    hooks = tableau_statistic("braid-hooks")
    visited: set[tuple] = set()
    for seed in range(seed_start, max_seeds):
        start = random_standard_tableau(shape, random.Random(f"{base_seed}/{seed}"))
        if start.ids in visited:
            continue
        (orbit,) = dihedral_orbits([start], mode)
        visited.update(x.ids for x in orbit.members)
        average = orbit_average(orbit, hooks)
        if average != 1:
            return {"seed": seed, "orbit_size": orbit.size, "average": average,
                    "representative": orbit.representative}
    return None
