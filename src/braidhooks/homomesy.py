"""Even/odd toggle actions, orbit statistics, and the moving-window bijection.

The odd and even operators apply every ``tau_i`` of one parity at once;
they are involutions, so together they generate a dihedral group.  They
act on any carrier of the toggle group: tableaux, words and linear
extensions, all linear extensions of a poset (the shape poset, the heap
poset, or a general one).  A carrier has a ``size``; ``taus(indices)``,
which applies a whole tau word in one pass and holds the carrier's one
commute test (``tau(i)`` is the one-letter word); and ``key()``, its
canonical sort key (a tableau's row-reading word, an extension's element
indices, a word's ``(letters, rank)``).  Orbits and their members are
ordered by sorting on that key, so the comparisons run in C.  All averages
are exact fractions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import methodcaller
from typing import Callable, Iterable, Sequence

from .errors import NoPreimageError, NotABraidError
from .heaps import nu_inverse
from .tableaux import Shape, Tableau, braid_hooks, random_standard_tableau, standard_tableaux
from .words import Word, braid_sites

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
    return x.taus(range(1 if parity == "odd" else 2, x.size, 2))


def tau_odd(x):
    return tau_parity(x, "odd")


def tau_even(x):
    return tau_parity(x, "even")


def gyration(x):
    """The composite tau_odd then tau_even (a right action product)."""
    return tau_even(tau_odd(x))


def _generators(mode: str) -> list[Callable]:
    if mode == "dihedral":
        return [tau_odd, tau_even]
    if mode == "gyration":
        return [gyration]
    if mode == "order-two-odd":
        return [tau_odd]
    if mode == "order-two-even":
        return [tau_even]
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


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


def _closure(start, generators: list[Callable]) -> set:
    """The orbit of ``start`` under the generators."""
    members = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = g(x)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


_key = methodcaller("key")


def dihedral_orbits(carrier: Iterable, mode: str = "dihedral") -> list[Orbit]:
    """Partition a finite carrier into orbits; deterministic order."""
    generators = _generators(mode)
    # each carrier state not yet in an orbit, mapped to itself: an orbit holds
    # the carrier's own objects, and the copies its closure made are dropped
    unplaced = {x: x for x in carrier}
    orbits = []
    for start in sorted(unplaced, key=_key):
        if start not in unplaced:
            continue
        members = [unplaced.pop(x, x) for x in _closure(start, generators)]
        members.sort(key=_key)
        orbits.append(Orbit(tuple(members), mode))
    return orbits


def orbit_average(orbit: Orbit, statistic: Callable) -> Fraction:
    if not orbit.members:
        raise ValueError("orbit is empty")
    return Fraction(sum(statistic(x) for x in orbit.members), orbit.size)


def homomesy_report(carrier: Iterable, statistic: Callable, mode: str = "dihedral",
                    statistic_name: str = "statistic") -> dict:
    """Orbit decomposition with per-orbit exact averages."""
    orbits = dihedral_orbits(carrier, mode)
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


def tableau_statistic(name: str) -> Callable[[Tableau], int]:
    if name == "braid-hooks":
        return lambda t: len(braid_hooks(t))
    raise ValueError(f"unknown tableau statistic {name!r}")


def word_statistic(name: str) -> Callable[[Word], int]:
    if name == "braid-moves":
        return lambda w: sum(braid_sites(w))
    raise ValueError(f"unknown word statistic {name!r}")


def rw_class(shape: Shape, cap: int | None = None) -> list[Word]:
    """The commutation class corresponding to the shape's standard fillings."""
    return sorted((nu_inverse(t) for t in standard_tableaux(shape, cap)), key=Word.key)


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


def _tau_oi(i: int) -> Callable:
    return tau_odd if i % 2 == 1 else tau_even


def window_table(word: Word) -> WindowTable:
    """Track the length-two window of w^(j) = w.tau_{o(1)}...tau_{o(j)}."""
    n = len(word)
    rows = []
    current = word
    for i in range(2, n):
        a = current.letters[i - 2]
        c = current.letters[i]
        rows.append((i, current, a, c))
        current = _tau_oi(i - 1)(current)
    return WindowTable(word, tuple(rows))


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
    for j in range(k - 2, 0, -1):
        word = _tau_oi(j)(word)
    return word


def big_phi_inverse(word: Word) -> tuple[int, Word]:
    """Find the unique k with a_k = c_k; the preimage is (k, w^(k-2))."""
    n = len(word)
    current = word
    for i in range(2, n):
        if current.letters[i - 2] == current.letters[i]:
            if not _is_braid_at(current, i):
                raise NoPreimageError(
                    f"window closes at {i} but {current} has no braid there"
                )
            return i, current
        current = _tau_oi(i - 1)(current)
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
    generators = _generators(mode)
    visited: set[Tableau] = set()
    for seed in range(seed_start, max_seeds):
        rng = random.Random(f"{base_seed}/{seed}")
        start = random_standard_tableau(shape, rng)
        if start in visited:
            continue
        members = _closure(start, generators)
        visited |= members
        average = Fraction(sum(len(braid_hooks(t)) for t in members), len(members))
        if average != 1:
            return {
                "seed": seed,
                "orbit_size": len(members),
                "average": average,
                "representative": min(members, key=_key),
            }
    return None
