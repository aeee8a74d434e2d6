"""Finite posets, linear extensions, order ideals, and ideal descents.

Elements are arbitrary hashable names; covers are (lower, upper) pairs and
are reduced to the transitive reduction at construction.  ``Poset`` is the
one order type: a ``Shape`` is the poset of its cells, and the heap of a
word (``heaps``) the poset of its pieces (column, stack position); their
linear extensions are the standard fillings and the words of the class.
A linear extension holds the element ids (indices) in label order, and a
standard filling (``tableaux.Tableau``) is a linear extension of its shape.
It is a carrier of the toggle group, like a word, and the two share
``_Carrier``: a ``size``, ``taus(indices)`` applying a whole tau word in
one pass (tau_i swaps labels i and i+1 when the two elements are
incomparable, one down-set bit), ``tau(i)``, and ``key()``, by which
carriers sort.  A carrier is its two slots, named once in ``_LABELS`` and
``_AMBIENT``: from them ``_build`` makes any carrier unchecked, and
``_rebuild`` and ``_sorted`` are written once.  The even/odd orbit
machinery in ``homomesy`` uses only this interface, and so does the moving
window behind Phi, written here once for every carrier: ``_o(j, size)`` is
the parity word of tau_{o(j)}, ``_window(x)`` yields x^(0) = x and then
x^(j) = x^(j-1)·tau_{o(j)}, and ``_unwind(x, m)`` applies
tau_{o(m)}...tau_{o(1)} in one ``taus`` pass.

An order is kept only as integer masks: ``transitive_reduction`` returns
lower-cover masks (bit j of ``below[i]`` set when i covers j) and strict
down-set masks (bit j of ``down[i]`` when j < i); cover pairs exist only in
``Poset(elements, covers)``, ``Poset.covers`` and, as id pairs read off the
cover masks once, ``Poset._cover_ids``.  Every object counted
here is a maximal chain of a graded order: fillings, words of a commutation
class and linear extensions of the down-sets of an order, reduced words
(``words``) of the weak order.  ``_lattice`` is the one table builder: from
a root, a ``labels`` rule and a ``step`` rule it lists the states depth
first, each with its labels, the states they lead to and the number of
chains from it, and refuses once a partial count passes the cap.
``_downset_table`` gives it the down-sets (``_placeable`` is the one
placeability rule).  ``_extensions`` is the one walk: it refuses a count
above the cap before it makes any tail, splits the table at the level where
its own counts (``count`` below a state, ``_forward`` above it) make the
tails built plus the prefixes walked fewest, builds that level's tails once
and walks the rest on an explicit stack, listing the chains as tuples; once
it drops its tails, its ``_wrap`` makes the chains the caller's carriers in
place, by chunks, through the class's slot setters.
A ``Poset`` (a ``Shape`` too) keeps its down-set table: ``_ideal_masks``
reads its down-set masks, and ``order_ideals`` returns them sorted, as
frozensets.  Covers, bounds and descents read the cover masks, and
comparability (the toggle's commute test) the down-set masks.  Each
statistic is a window, a label tuple that a carrier holds consecutively (an
ideal descent's cover (p, q), a braid site's letters, a braid hook's cell
ids), counted by the one ``_window_counts``.  An ideal is checked as a
down-set mask (``_ideal_mask`` makes one from names, refusing a set that is
not an order ideal), and ``_descent_windows`` lists its descent windows,
the covers the mask cuts: ``orbits --poset`` counts them, and
``_edge_check`` sums them from each orbit's cover-window counts, made once
per poset, in integers.  The seeded ``verify poset-edges`` runs that check
on every mask of each poset's table; ``verify_edges`` wraps it for a
frozenset and adds the ``Fraction`` averages.
"""

from __future__ import annotations

from collections import deque
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, count, islice, repeat
from operator import add, attrgetter, itemgetter, or_
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .errors import (
    ExplosionGuardError,
    NotADescentError,
    NotALinearExtensionError,
    PosetBoundsError,
    TrivialIdealError,
    default_cap,
)

__all__ = [
    "Poset",
    "LinearExtension",
    "linear_extensions",
    "order_ideals",
    "descents",
    "tau_on_extension",
    "poset_phi",
    "poset_phi_inverse",
    "verify_edges",
    "random_bounded_poset",
    "diamond_poset",
    "chain_poset",
    "antichain_poset",
    "poset_from_lines",
    "parse_ideal",
    "transitive_reduction",
]


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transitive_reduction(below: Sequence[int]) -> tuple[list[int], list[int]]:
    """Cover and strict down-set masks of the order that lower masks generate.

    Bit j of ``below[i]`` says j < i.  A depth-first walk from index 0 up
    (elements numbered bottom-up never wait) finishes each element after
    those it waits for: its down-set joins theirs and them, and it covers
    those below none of the others.  An element met again while it still
    waits is below itself: ``ValueError``.
    """
    cover, down = [0] * len(below), [None] * len(below)
    entered, stack = 0, list(reversed(range(len(below))))
    while stack:
        i = stack.pop()
        if down[i] is not None:
            continue
        waiting = [j for j in _bits(below[i]) if down[j] is None]
        if not waiting:
            reach = reduce(or_, [down[j] for j in _bits(below[i])], 0)
            cover[i], down[i] = below[i] & ~reach, below[i] | reach
        elif entered >> i & 1:
            raise ValueError("cover relation has a cycle")
        else:
            entered |= 1 << i
            stack += [i, *waiting]
    return cover, down


class _Carrier:
    """The toggle-group protocol of ``LinearExtension`` (a ``Tableau`` is
    one) and ``Word``.  Each class names its label tuple in ``_LABELS`` and
    what its states act in, the poset or rank one carrier shares, in
    ``_AMBIENT``; its slot setters, which ``_build`` and ``_wrap`` call,
    follow from the two names.  It adds ``_toggle(labels, indices)`` and
    ``key()``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        # a slotted dataclass is made twice, and has its slots the second time
        super().__init_subclass__(**kwargs)
        slots = getattr(cls, cls._LABELS, None), getattr(cls, cls._AMBIENT, None)
        if None not in slots:
            cls._set_labels, cls._set_ambient = slots[0].__set__, slots[1].__set__

    @property
    def size(self) -> int:
        return len(getattr(self, self._LABELS))

    def tau(self, i: int):
        if not 1 <= i < self.size:
            raise IndexError(f"tau index {i} outside 1..{self.size - 1}")
        return self.taus((i,))

    def taus(self, indices: Iterable[int]):
        """Apply a tau word in one pass (right action, left factor first);
        every index lies in 1..size-1."""
        return self._rebuild(self._toggle(getattr(self, self._LABELS), indices))

    def __lt__(self, other) -> bool:
        return self.key() < other.key()

    def _rebuild(self, labels: tuple):
        """The state of this one's type and ambient with these ``labels``, a
        toggle of its own."""
        return _build(type(self), getattr(self, self._AMBIENT), labels)

    @classmethod
    def _sorted(cls, states: Iterable) -> list:
        """The states, all of one carrier, in ``key()`` order, stable: keyed
        by their own label tuples, read at C level.  That is ``key()`` order
        within one ambient, the only case asked for: a word's key is
        ``(letters, rank)``; ``homomesy._one_carrier`` refuses mixed ranks
        before any sort, and ``rw_class`` sorts words of one rank."""
        return sorted(states, key=attrgetter(cls._LABELS))


def _o(j: int, size: int) -> range:
    """The tau word of tau_{o(j)} on ``size`` labels: every tau_i with i of
    the parity of j (they commute)."""
    return range(2 - j % 2, size, 2)


def _window(x) -> Iterator:
    """The moving window of a carrier: x^(0) = x, then x^(j) =
    x^(j-1)·tau_{o(j)}, each made only when asked for."""
    for j in count(1):
        yield x
        x = x.taus(_o(j, x.size))


def _unwind(x, m: int):
    """x·tau_{o(m)}...tau_{o(1)}, in one ``taus`` pass."""
    return x.taus([i for j in range(m, 0, -1) for i in _o(j, x.size)])


class Poset:
    """A finite partial order given by its cover relation."""

    __slots__ = ("elements", "covers", "_index", "_below", "_down", "_cover_ids", "_table",
                 "_windows")

    def __init__(self, elements: Sequence[Hashable],
                 covers: Iterable[tuple[Hashable, Hashable]]):
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")
        given = [0] * len(self.elements)
        for a, b in covers:
            try:
                given[self._index[b]] |= 1 << self._index[a]
            except KeyError as exc:
                raise ValueError(f"cover element {exc.args[0]!r} is not in elements") from None
        self._below, self._down = transitive_reduction(given)
        self._table = None  # ``_lattice`` of the order, built on first use
        self._windows = None  # ``_edge_check``'s orbit sizes and window counts, once bounds pass
        # each cover (p, q) as element ids, the windows ``_edge_check`` counts
        self._cover_ids = [(j, i) for i, b in enumerate(self._below) for j in _bits(b)]
        names = self.elements
        self.covers = frozenset((names[p], names[q]) for p, q in self._cover_ids)

    @property
    def size(self) -> int:
        return len(self.elements)

    def _downsets(self, cap: int, what: str, ideals: bool = False) -> tuple:
        """The down-set table, built once: only ints and lists, so no cycle."""
        if self._table is None:
            self._table = _downset_table(self._below, cap, what, ideals)
        return self._table

    def less(self, a: Hashable, b: Hashable) -> bool:
        return bool(self._down[self._index[b]] >> self._index[a] & 1)

    def leq(self, a: Hashable, b: Hashable) -> bool:
        i, j = self._index[a], self._index[b]
        return i == j or bool(self._down[j] >> i & 1)

    def covers_of(self, a: Hashable) -> set[Hashable]:
        i = self._index[a]
        return {self.elements[j] for j, b in enumerate(self._below) if b >> i & 1}

    def minimum(self) -> Hashable | None:
        mins = [e for e in self.elements if not self._below[self._index[e]]]
        return mins[0] if len(mins) == 1 else None

    def maximum(self) -> Hashable | None:
        covered = reduce(or_, self._below, 0)
        maxs = [e for i, e in enumerate(self.elements) if not covered >> i & 1]
        return maxs[0] if len(maxs) == 1 else None


class LinearExtension(_Carrier):
    """Order-preserving labelling: ``ids[m-1]`` is the index of the element
    labelled m, and ``seq`` the elements themselves in label order.  Frozen,
    as a ``Word`` is: copy and pickle rebuild it with ``_build``.

    ``NotALinearExtensionError`` unless ``seq`` lists every element once,
    each after its lower covers; the walks here, which place elements only
    that way, build extensions from their ids without the check.
    """

    __slots__ = ("poset", "ids")
    _LABELS = "ids"  # the label tuple the orbit walk reads
    _AMBIENT = "poset"

    def __init__(self, poset: Poset, seq: Sequence[Hashable]):
        if not _is_extension(poset._index, poset._below, seq):
            raise NotALinearExtensionError(f"{seq!r} is not a linear extension of the poset")
        self._set_ambient(self, poset)
        self._set_labels(self, tuple(map(poset._index.__getitem__, seq)))

    @property
    def seq(self) -> tuple[Hashable, ...]:
        ids = self.ids
        if len(ids) > 1:
            return itemgetter(*ids)(self.poset.elements)
        return tuple([self.poset.elements[i] for i in ids])  # itemgetter of one id is no tuple

    def label(self, element: Hashable) -> int:
        # an element outside the poset has no id: ``index(None)`` is a ValueError
        return self.ids.index(self.poset._index.get(element)) + 1

    def element(self, label: int) -> Hashable:
        if not 1 <= label <= self.size:
            raise IndexError(f"label {label} outside 1..{self.size}")
        return self.poset.elements[self.ids[label - 1]]

    def _toggle(self, ids: tuple, indices: Iterable[int]) -> tuple:
        """A tau word on raw ``ids`` of this poset: tau_i swaps labels i and
        i+1 when the two elements are incomparable.  The element labelled i
        is never above the one labelled i+1, so one down-set bit decides."""
        down = self.poset._down
        ids = list(ids)
        for i in indices:
            a, b = ids[i - 1], ids[i]
            if not down[b] >> a & 1:
                ids[i - 1], ids[i] = b, a
        return tuple(ids)

    def key(self) -> tuple[int, ...]:
        """The canonical sort key: the element indices in label order."""
        return self.ids

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearExtension) and self.ids == other.ids
                and self.poset.elements == other.poset.elements)

    def __hash__(self) -> int:
        return hash(self.ids)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(poset={self.poset!r}, seq={self.seq!r})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _build, (type(self), self.poset, self.ids)


_new = object.__new__


def _build(cls: type, ambient, labels: tuple):
    """A carrier ``cls`` of ``ambient`` (its poset or rank) without the
    check, for ``labels`` one of its states by construction: it fills the
    two slots as the checked constructor would."""
    x = _new(cls)
    cls._set_ambient(x, ambient)
    cls._set_labels(x, labels)
    return x


def _placeable(below: list[int], mask: int, i: int) -> bool:
    """Element i lies outside the down-set ``mask`` and its lower covers in it."""
    return not mask >> i & 1 and below[i] & mask == below[i]


def _is_extension(index: dict, below: list[int], seq: Sequence) -> bool:
    """``seq`` names each element once (through ``index``), each placed
    after its lower covers: a linear extension of the order ``below``."""
    if len(seq) != len(below):
        return False
    mask = 0
    for element in seq:
        i = index.get(element)
        if i is None or not _placeable(below, mask, i):
            return False
        mask |= 1 << i
    return True


def _addable(below: list[int], mask: int) -> list[int]:
    """The placeable elements of the down-set ``mask``, in increasing order."""
    return [i for i in range(len(below)) if _placeable(below, mask, i)]


def _lattice(root, labels, step, cap: int, what: str, ideals: bool = False) -> tuple:
    """The table of the graded order that ``step`` walks down from ``root``:
    ``(states, count, options, up)`` in post-order, each state after every
    state it leads to, so the root is last.  ``options[s]`` are the
    ascending labels that leave ``states[s]`` (``labels(state, options,
    label)`` for a state that ``label`` reaches from one with those
    ``options``; the root is asked with ``None, None``), ``up[s][k]`` is the
    index of ``step(states[s], options[s][k])``, and ``count[s]`` the number
    of maximal chains from ``states[s]``.  The build is depth first, on an
    explicit stack: it makes a state only when it steps into it, and sums
    its count once its children are counted.  Every state lies on a chain
    from the root, so a partial sum above ``cap`` bounds the root's count:
    ``ExplosionGuardError(cap, what)``.  With ``ideals``, ``cap`` bounds the
    states instead: the build stops once it would hold more, or at a
    down-set with a addable elements and 2**a > cap (one down-set at or
    above it per subset of them)."""
    first = labels(root, None, None)
    if cap < 1 or ideals and 1 << len(first) > cap:  # the root is one chain and one state
        raise ExplosionGuardError(cap, what)
    states, count, options, up = [], [], [], []
    where = {}  # state -> its index, once counted
    stack = [[root, first, [], 0]]  # a state, its labels, its children counted and their sum
    while True:
        state, out, children, total = frame = stack[-1]
        if len(children) < len(out):
            label = out[len(children)]
            child = step(state, label)
            t = where.get(child)
            if t is None:
                if ideals and len(where) + len(stack) >= cap:
                    raise ExplosionGuardError(cap, what)
                after = labels(child, out, label)
                if ideals and 1 << len(after) > cap:
                    raise ExplosionGuardError(cap, what)
                stack.append([child, after, [], 0])
                continue
        else:
            stack.pop()
            t = where[state] = len(states)
            states.append(state)
            count.append(total or 1)
            options.append(out)
            up.append(children)
            if not stack:
                return states, count, options, up
            frame = stack[-1]
        frame[2].append(t)
        frame[3] += count[t]
        if frame[3] > cap and not ideals:
            raise ExplosionGuardError(cap, what)


_CHUNK = 4096  # carriers per joined buffer (about 64 kB for S6's words) and per ``_wrap`` step


def _window_counts(carriers: Iterable, windows: Callable) -> tuple[int, dict[tuple, int]]:
    """The number of ``carriers`` and how often each window, a tuple of
    labels, appears as consecutive labels of a carrier, summed.

    The carriers are read once, in chunks of ``_CHUNK``, and the windows
    ``windows(chunk)`` are counted in the chunk's ``_joined`` buffer by the
    C-level ``count``, which skips a match overlapping one it counted.  That
    needs a border (``w[:k] == w[-k:]``, so ``w[0]`` recurs in w): a window
    with a ``_stretches`` run in the buffer is counted by ``_overlapping``.
    """
    carriers, count, totals = iter(carriers), 0, {}
    while chunk := list(islice(carriers, _CHUNK)):
        count += len(chunk)
        found = windows(chunk)
        buf, encode = _joined(chunk, attrgetter(chunk[0]._LABELS), found)
        looked = {}  # a stretch -> in the buffer, looked for once a chunk
        for w in found:
            pattern = encode(w)
            n = buf.count(pattern)
            if n and w[0] in w[1:] and any(
                    looked[s] if s in looked else looked.setdefault(s, encode(s) in buf)
                    for s in _stretches(w)):
                n = _overlapping(buf, pattern)
            totals[w] = totals.get(w, 0) + n
    return count, totals


def _window_sum(carriers: Iterable, windows: Callable) -> int:
    """How many windows ``windows(chunk)`` lists the ``carriers`` hold, all
    counted by ``_window_counts`` and summed."""
    return sum(_window_counts(carriers, windows)[1].values())


def _joined(chunk: list, labels: Callable, windows: Sequence[tuple]) -> tuple:
    """The chunk's label tuples in one buffer, between them a separator no
    window holds, and a window's encoding: ``bytes`` and 255 when labels are
    below 256 and window labels below 255, else ``str`` with window labels
    ``chr(1)`` up and every other label, like the separator, ``chr(0)``."""
    if max(map(max, windows), default=0) < 255:
        try:
            return b"\xff".join(map(bytes, map(labels, chunk))), bytes
        except ValueError:  # a label above 255, which no window holds
            pass
    code = {a: chr(i) for i, a in enumerate(dict.fromkeys(chain.from_iterable(windows)), 1)}
    text = "\0".join(["".join(map(code.get, t, repeat("\0"))) for t in map(labels, chunk)])
    return text, lambda w: "".join(map(code.__getitem__, w))


def _stretches(w: tuple) -> list[tuple]:
    """For each border k of w, the least run of len(w) + 1 labels in
    ``w + w[k:]``, two matches sharing k labels, so shifts of one periodic
    run (``a b a``, ``b a b``) share it: without it there is no such pair."""
    return [min([(w + w[k:])[j:j + len(w) + 1] for j in range(len(w) - k)])
            for k in range(1, len(w)) if w[:k] == w[-k:]]


def _overlapping(buf, pattern) -> int:
    """The matches of ``pattern`` in ``buf``, overlapping ones too."""
    n, i = 0, buf.find(pattern)
    while i >= 0:
        n, i = n + 1, buf.find(pattern, i + 1)
    return n


def _place(mask: int, i: int) -> int:
    """The down-set ``mask`` with element i placed."""
    return mask | 1 << i


def _downset_table(below: list[int], cap: int, what: str, ideals: bool = False) -> tuple:
    """``_lattice`` of the down-sets of ``below`` (masks; placing element i
    sets bit i).  A down-set lists its parent's addable elements but the one
    placed, i, and the upper covers of i whose lower covers are now all
    placed, so a step on a chain costs one placeability test."""
    above: list[list[int]] = [[] for _ in below]
    for i, b in enumerate(below):
        for j in _bits(b):
            above[j].append(i)

    def addable(mask: int, options: list[int] | None, i: int | None) -> list[int]:
        if options is None:
            return _addable(below, mask)
        return sorted([j for j in options if j != i]
                      + [u for u in above[i] if _placeable(below, mask, u)])

    return _lattice(0, addable, _place, cap, what, ideals)


def _forward(up: list[list[int]]) -> list[int]:
    """``fwd[s]``, the number of chains from the root (the last state of a
    ``_lattice`` table) down to state s: one pass over ``up``, each state
    before the states it leads to.  ``fwd[s] * count[s]`` chains pass s."""
    fwd = [0] * len(up)
    fwd[-1] = 1
    for s in range(len(up) - 1, -1, -1):
        f = fwd[s]
        for c in up[s]:
            fwd[c] += f
    return fwd


def _split(counts: list[int], forward: list[int]) -> int:
    """The length of the tails ``_extensions`` builds: the level h (steps to
    the end) where the tails built on levels up to h, ``counts`` summed
    there, plus the prefix states walked on levels h and up, ``forward``
    summed there, are fewest; the lowest such level on a tie."""
    built = accumulate(counts)
    walked = reversed(list(accumulate(reversed(forward))))
    cost = list(map(add, built, walked))
    return cost.index(min(cost))


def _extensions(table: tuple, names: Sequence, cls: type, ambient, cap: int, what: str) -> list:
    """Every maximal chain of ``table`` (``_lattice``), as the carrier
    ``cls`` of ``ambient`` whose labels are ``names[label]`` along it, in
    lexicographic label order.  A root count above ``cap`` is
    ``ExplosionGuardError(cap, what)`` before any tail is built.  Level h
    holds the states h steps from the end; ``count`` sums there to the tails
    the level would build, ``_forward`` to the prefixes that reach it, and
    ``_split`` picks the level.  Its tails are built once, level by level up
    from the end, each level from the one below, which is then dropped; the
    walk places the rest on its own stack and completes each prefix it
    reaches with every tail there by a C-level ``map(prefix.__add__,
    tails)``, into a list of the counted size.  Once the walk ends it drops
    its tails, and ``_wrap`` makes the chains carriers."""
    _, count, options, up = table
    if count[-1] > cap:
        raise ExplosionGuardError(cap, what)
    fwd = _forward(up)
    height, levels = [], []  # the states by their distance from the end
    counts, forward = [], []  # ``count`` and ``fwd`` summed on each level
    for s, children in enumerate(up):  # post-order: children first, so levels come in order
        h = height[children[0]] + 1 if children else 0
        height.append(h)
        if h == len(levels):
            levels.append([])
            counts.append(0)
            forward.append(0)
        levels[h].append(s)
        counts[h] += count[s]
        forward[h] += fwd[s]
    length, low = height[-1], _split(counts, forward)
    tails = {s: [()] for s in levels[0]}
    for h in range(1, low + 1):
        tails = {s: [(names[a], *t) for a, c in zip(options[s], up[s]) for t in tails[c]]
                 for s in levels[h]}
    found = [None] * count[-1]
    split = length - low
    placed, path = [], []  # the names placed, and where to resume below each
    s, k, f = len(up) - 1, 0, 0
    while True:
        if len(placed) == split:
            here = tails[s]
            found[f:f + len(here)] = map(tuple(placed).__add__, here)
            f += len(here)
            k = len(up[s])
        if k < len(up[s]):
            placed.append(names[options[s][k]])
            path.append((s, k + 1))
            s, k = up[s][k], 0
        elif path:
            placed.pop()
            s, k = path.pop()
        else:
            del tails, here  # before the objects are made
            return _wrap(found, cls, ambient)


_drain = deque(maxlen=0).extend  # runs an iterator to its end, keeping nothing


def _wrap(chains: list, cls: type, ambient) -> list:
    """``chains`` made carriers ``cls`` of ``ambient`` in place, ``_CHUNK``
    at a time, as ``_build`` makes one: ``_new`` makes a chunk's objects,
    and C-level maps fill their two slots through the class's setters.  No
    object runs a Python frame of its own, and no list of all of them
    exists beside ``chains``."""
    labels = iter(chains)  # ``map`` ends with ``made``, before it reads past the chunk
    for i in range(0, len(chains), _CHUNK):
        made = list(map(_new, repeat(cls, min(_CHUNK, len(chains) - i))))
        _drain(map(cls._set_ambient, made, repeat(ambient)))
        _drain(map(cls._set_labels, made, labels))
        chains[i:i + _CHUNK] = made
    return chains


# The last poset ``linear_extensions`` walked (matched by identity) and its
# extensions.  Not a ``Poset`` slot: that makes the cycle Poset -> extensions
# -> Poset, garbage that only the cycle collector frees.
_last: dict = {}


def linear_extensions(poset: Poset, cap: int | None = None) -> list[LinearExtension]:
    """All linear extensions, in lexicographic element-index order.

    The same ``Poset`` object asked again gets a fresh list of the same
    extensions, or the walk's ``ExplosionGuardError`` when there are more
    than ``cap``; they are frozen, so no caller changes them for the next.
    Another poset drops them before its walk, and a capped walk stores
    nothing: the module keeps one poset's extensions alive.
    """
    global _last
    cap = default_cap() if cap is None else cap
    last = _last
    if last.get("poset") is not poset:
        _last = {}
        found = _extensions(poset._downsets(cap, "linear extensions"), range(poset.size),
                            LinearExtension, poset, cap, "linear extensions")
        last = _last = {"poset": poset, "extensions": found}
    elif len(last["extensions"]) > cap:
        raise ExplosionGuardError(cap, "linear extensions")
    return list(last["extensions"])


def order_ideals(poset: Poset, cap: int | None = None) -> list[frozenset]:
    """All downward-closed subsets, from the empty set to the whole poset,
    sorted by ``(len(s), sorted(map(str, s)))``: the down-set masks of the
    poset's table (``_ideal_masks``) in that order (``_ideal_order``), each
    made a frozenset.  ``ExplosionGuardError`` when there are more than
    ``cap``.  The seeded ``verify poset-edges`` check reads the masks
    themselves, in table order."""
    cap = default_cap() if cap is None else cap
    names = poset.elements
    return [frozenset([names[i] for i in _bits(mask)])
            for mask in _ideal_order(poset, _ideal_masks(poset, cap))]


def _ideal_masks(poset: Poset, cap: int) -> list[int]:
    """The down-set masks of the poset's table, in table order (post-order:
    the full mask first, the empty one last): ``ExplosionGuardError`` when
    there are more than ``cap``."""
    masks = poset._downsets(cap, "order ideals", True)[0]
    if len(masks) > cap:
        raise ExplosionGuardError(cap, "order ideals")
    return masks


def _ideal_order(poset: Poset, masks: list[int]) -> list[int]:
    """The down-set ``masks`` in ``order_ideals`` order, each element's
    ``str`` label read once."""
    labels = [str(e) for e in poset.elements]
    by_label = sorted(range(poset.size), key=labels.__getitem__)
    return sorted(masks, key=lambda m: (m.bit_count(), [labels[i] for i in by_label if m >> i & 1]))


def _descent_windows(poset: Poset, mask: int) -> list[tuple[int, int]]:
    """The descent windows of the ideal ``mask``: the covers (p, q), as
    element ids, with p in the ideal and q outside it."""
    return [w for w in poset._cover_ids if mask >> w[0] & 1 and not mask >> w[1] & 1]


def descents(extension: LinearExtension, ideal: frozenset) -> set:
    """Elements p of the ideal covered by the element labelled L(p)+1 outside it."""
    names, below = extension.poset.elements, extension.poset._below
    ids = extension.ids
    return {
        names[p] for p, q in zip(ids, ids[1:])
        if below[q] >> p & 1 and names[p] in ideal and names[q] not in ideal
    }


def tau_on_extension(extension: LinearExtension, i: int) -> LinearExtension:
    """Swap labels i and i+1 when the two elements are incomparable."""
    return extension.tau(i)


def _require_bounds_and_proper(poset: Poset, size: int) -> None:
    if poset.minimum() is None or poset.maximum() is None:
        raise PosetBoundsError("poset needs a unique minimum and maximum")
    _require_proper(poset, size)


def _require_proper(poset: Poset, size: int) -> None:
    """An ideal of ``size`` elements is neither empty nor the whole poset."""
    if not size or size == poset.size:
        raise TrivialIdealError("ideal must be proper and nonempty")


def poset_phi(p: Hashable, extension: LinearExtension, ideal: frozenset) -> LinearExtension:
    """Phi(p, L) = L.tau_{o(L(p))} ... tau_{o(1)} for a descent p of L."""
    _require_bounds_and_proper(extension.poset, len(ideal))
    if p not in descents(extension, ideal):
        ideal_text = _ideal_text(extension.poset, ideal)
        raise NotADescentError(f"{p!r} is not a descent of {extension.seq} for {ideal_text}")
    return _unwind(extension, extension.label(p))


def poset_phi_inverse(extension: LinearExtension, ideal: frozenset) -> tuple[Hashable, LinearExtension]:
    """Scan M, M.tau_{o(1)}, ... for the unique step leaving the ideal."""
    _require_bounds_and_proper(extension.poset, len(ideal))
    window = _window(extension)
    previous_element = next(window).element(1)
    for k, moved in zip(range(2, extension.size + 1), window):
        element = moved.element(k)
        if previous_element in ideal and element not in ideal:
            return previous_element, moved
        previous_element = element
    raise AssertionError("path never left the ideal; ideal was not proper")


def verify_edges(poset: Poset, ideal: frozenset, cap: int | None = None) -> dict:
    """Check |L(P)| = sum of descent counts, plus per-orbit averages of one.

    ``ideal`` is made a down-set mask (``_ideal_mask``: a set that names an
    element outside the poset or is not downward closed is a ``ValueError``)
    and checked by ``_edge_check``, the integer check that the seeded
    ``verify poset-edges`` runs on the masks themselves.  The report adds
    each orbit's average, one ``Fraction``.
    """
    ok, lhs, rhs, sums = _edge_check(poset, _ideal_mask(poset, ideal), cap)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ok": ok,
        "per_orbit": [
            {"size": size, "average": Fraction(s, size)}
            for size, s in zip(poset._windows[0], sums)
        ],
    }


def _edge_check(poset: Poset, mask: int, cap: int | None) -> tuple[bool, int, int, list[int]]:
    """The edge identity on the down-set ``mask``: whether it holds, the
    number of linear extensions, the descents summed over them, and each
    orbit's descent sum, all integers.

    A descent of the ideal is a window: p labelled right before q, q covering
    p, p in the ideal and q outside it (``_descent_windows``).  The extensions
    and their dihedral orbits do not depend on the ideal, so the first call on
    a ``Poset`` object closes the orbits once and counts, per orbit, each
    cover's window (p, q), its q placed right after its p; the orbit sizes
    and those counts are the poset's ``_windows``.  An orbit's descent sum is
    then the sum of its counts over the ideal's descent windows, and the
    identity holds when each orbit's sum is its size.  Only a call that
    passed the bounds check stores those counts, so a later call on the same
    poset skips that check.
    """
    windows = poset._windows
    if windows is None:
        _require_bounds_and_proper(poset, mask.bit_count())
    else:
        _require_proper(poset, mask.bit_count())
    extensions = linear_extensions(poset, cap)
    lhs = len(extensions)
    if windows is None:
        from .homomesy import dihedral_orbits

        orbits = dihedral_orbits(extensions, "dihedral")
        windows = poset._windows = (
            [orbit.size for orbit in orbits],
            [_window_counts(orbit.members, lambda chunk: poset._cover_ids)[1] for orbit in orbits])
    sizes, counts = windows
    cut = _descent_windows(poset, mask)
    sums = [sum(map(c.__getitem__, cut)) for c in counts]
    rhs = sum(sums)  # the orbits partition the extensions
    return lhs == rhs and sums == sizes, lhs, rhs, sums


def chain_poset(n: int) -> Poset:
    return Poset(range(n), [(i, i + 1) for i in range(n - 1)])


def antichain_poset(n: int) -> Poset:
    return Poset(range(n), [])


def diamond_poset() -> Poset:
    """Bottom, two incomparable middles, top."""
    return Poset(
        ["bot", "left", "right", "top"],
        [("bot", "left"), ("bot", "right"), ("left", "top"), ("right", "top")],
    )


def random_bounded_poset(rng, size: int) -> Poset:
    """A random layered poset with forced bottom and top elements."""
    if size < 3:
        raise ValueError("need at least 3 elements for a bounded poset")
    middle = size - 2
    layer_count = rng.randint(1, min(3, middle))
    layers: list[list[int]] = [[] for _ in range(layer_count)]
    for element in range(middle):
        layers[rng.randrange(layer_count)].append(element)
    layers = [layer for layer in layers if layer]
    covers: list[tuple[Hashable, Hashable]] = []
    for lower, upper in zip(layers, layers[1:]):
        for b in upper:
            choices = [a for a in lower if rng.random() < 0.5] or [rng.choice(lower)]
            covers.extend((a, b) for a in choices)
        covered = {a for a, b in covers if b in set(upper)}
        for a in lower:
            if a not in covered:
                covers.append((a, rng.choice(upper)))
    covers.extend(("bot", a) for a in layers[0])
    covers.extend((a, "top") for a in layers[-1])
    elements = ["bot"] + list(range(middle)) + ["top"]
    return Poset(elements, covers)


def poset_from_lines(text: str) -> Poset:
    """Parse lines of the form ``a < b`` into a poset.

    Blank lines and lines starting with ``#`` are skipped; any other line
    without exactly one ``<`` between two nonempty names is a ``ValueError``
    naming it."""
    covers = []
    names: dict[str, None] = {}  # first-seen order
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [part.strip() for part in line.split("<")]
        if len(parts) != 2 or not all(parts):
            raise ValueError(f"expected 'a < b', got {line!r}")
        a, b = parts
        covers.append((a, b))
        names[a] = names[b] = None
    return Poset(names, covers)


def _ideal_text(poset: Poset, ideal: frozenset) -> str:
    """The ideal as a set literal in element order, the same on every run."""
    return "{" + ", ".join(repr(e) for e in poset.elements if e in ideal) + "}"


def parse_ideal(poset: Poset, text: str) -> frozenset:
    names = [part.strip() for part in text.split(",") if part.strip()]
    _ideal_mask(poset, names)
    return frozenset(names)


def _ideal_mask(poset: Poset, names: Iterable[Hashable]) -> int:
    """The down-set mask of the ideal ``names``.  A ``ValueError`` names the
    elements outside the poset, or else the first element, in element order,
    below one of them and not among them."""
    names = list(names)
    missing = [n for n in names if n not in poset._index]
    if missing:
        raise ValueError(f"unknown elements {missing}")
    mask = reduce(or_, [1 << poset._index[n] for n in names], 0)
    lacking = reduce(or_, [poset._down[q] for q in _bits(mask)], 0) & ~mask
    if lacking:
        first = poset.elements[(lacking & -lacking).bit_length() - 1]
        raise ValueError(f"{_ideal_text(poset, frozenset(names))} is not downward closed"
                         f" (missing {first!r})")
    return mask
