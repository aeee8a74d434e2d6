"""Objects built without their public constructor's check.

Words from the enumerations, moves, toggles and ``nu_inverse`` skip
``Word``'s letter-range check, and extensions from ``linear_extensions``
and the toggles skip ``LinearExtension``'s check, because their letters
or orders hold by construction.  Each must equal, hash and order like the
checked object, and the public constructors must still reject bad input.
``nu`` must run neither the drop simulation nor the filling check.

Every carrier is built unchecked by the one ``posets._build(cls, ambient,
labels)``, which fills the two slots that ``_AMBIENT`` and ``_LABELS``
name; ``_rebuild`` and ``_sorted`` are written once, on ``_Carrier``.  For
a word, an extension and a filling, ``_build`` must give the checked
object, ``_rebuild`` must keep the type and the ambient, and copy, deepcopy
and pickle must round-trip, for the states and for their ``tau`` images.
"""

import copy
import operator
import pickle
import random

import pytest

from braidhooks import heaps, tableaux
from braidhooks.errors import LetterRangeError, NotALinearExtensionError, QuadraticRuleError
from braidhooks.heaps import nu, nu_inverse
from braidhooks.homomesy import dihedral_orbits
from braidhooks.posets import (
    LinearExtension,
    Poset,
    _build,
    _Carrier,
    chain_poset,
    diamond_poset,
    linear_extensions,
    random_bounded_poset,
)
from braidhooks.tableaux import Shape, Tableau, standard_tableaux
from braidhooks.words import (
    Permutation,
    Word,
    all_reduced_words,
    apply_move,
    commutation_class,
    list_moves,
    make_reduced_word,
    make_word,
    staircase_word,
    word_from_string,
)

from test_nu_masks import SHAPES


def assert_like_checked(words: list[Word]) -> None:
    checked = [Word(word.letters, word.rank) for word in words]
    assert all(type(word) is Word for word in words)
    assert words == checked
    assert list(map(hash, words)) == list(map(hash, checked))
    assert all(map(operator.le, words, checked)) and all(map(operator.ge, words, checked))
    assert all(1 <= a <= word.rank - 1 for word in words for a in word.letters)
    sample = slice(None, None, 1 + len(words) // 1000)  # pickling a slots class is slow
    assert pickle.loads(pickle.dumps(words[sample])) == checked[sample]


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerated_words_are_like_checked_ones(n):
    assert_like_checked(all_reduced_words(Permutation.longest(n)))
    if n >= 2:
        assert_like_checked(commutation_class(staircase_word(n)))


def test_moved_and_toggled_words_are_like_checked_ones():
    cls = commutation_class(staircase_word(5))
    assert_like_checked([apply_move(w, site) for w in cls[::7] for site in list_moves(w)])
    assert_like_checked([w.tau(i) for w in cls[::7] for i in range(1, len(w))])
    assert_like_checked([w for orbit in dihedral_orbits(cls[:40]) for w in orbit.members])


def test_read_back_words_are_like_checked_ones():
    read, outcomes = [], set()
    for shape in (shape for shapes in SHAPES.values() for shape in shapes):
        for t in standard_tableaux(shape):
            try:
                word = nu_inverse(t)
            except QuadraticRuleError:
                # a disconnected shape can read back `a a`, which the checked
                # constructor rejects too
                letter = heaps._shape_side(shape)[1]
                letters = [letter[i] for i in reversed(t.ids)]
                with pytest.raises(QuadraticRuleError):
                    make_word(letters, max(letters) + 1)
                outcomes.add(QuadraticRuleError)
                continue
            read.append(word)
            outcomes.add(Word)
    assert outcomes == {Word, QuadraticRuleError}
    assert_like_checked(read)


@pytest.mark.parametrize("build", [
    lambda letters, rank: Word(letters, rank),
    make_word,
    make_reduced_word,
    lambda letters, rank: word_from_string(",".join(map(str, letters)), rank),
], ids=["Word", "make_word", "make_reduced_word", "word_from_string"])
@pytest.mark.parametrize("letters", [(1, 0, 1), (2, 4), (4,)])
def test_public_word_constructors_check_the_range(build, letters):
    with pytest.raises(LetterRangeError):
        build(letters, 4)


def test_nu_neither_drops_nor_checks_the_filling(monkeypatch):
    shape = Shape.right((4, 3, 2, 1))
    words = [nu_inverse(t) for t in standard_tableaux(shape)]
    nu(words[0], shape)  # the shape side is built once, before the patch

    def forbidden(*args, **kwargs):
        raise AssertionError("nu ran a second pass")

    monkeypatch.setattr(heaps, "heap_poset", forbidden)
    monkeypatch.setattr(tableaux, "_is_extension", forbidden)
    for word in words:
        assert nu_inverse(nu(word, shape)) == word


@pytest.mark.parametrize("seq", [
    ("b", "a", "zz"),  # an element the poset lacks
    ("b", "a", "c"),  # b placed before a, which it covers
    ("a", "b"),  # too short
    ("a", "b", "c", "c"),  # too long
    ("a", "a", "c"),  # an element twice
])
def test_linear_extension_checks_its_sequence(seq):
    poset = Poset("abc", [("a", "b")])
    with pytest.raises(NotALinearExtensionError):
        LinearExtension(poset, seq)


def test_listed_and_toggled_extensions_are_like_checked_ones():
    rng = random.Random(12)
    posets = [chain_poset(4), Poset("abc", [("a", "b")])]
    posets += [random_bounded_poset(rng, rng.randint(3, 7)) for _ in range(20)]
    for poset in posets:
        for ext in linear_extensions(poset):
            checked = LinearExtension(poset, ext.seq)
            assert ext == checked and hash(ext) == hash(checked)
            assert ext.key() == checked.key()
            for i in range(1, ext.size):
                moved = ext.tau(i)
                assert LinearExtension(poset, moved.seq) == moved
                a, b = ext.seq[i - 1], ext.seq[i]
                swapped = not (poset.less(a, b) or poset.less(b, a))
                assert (moved.seq != ext.seq) == swapped


def seeded_extensions() -> list[LinearExtension]:
    rng = random.Random("builds")
    found = linear_extensions(diamond_poset())
    for _ in range(8):
        found += linear_extensions(random_bounded_poset(rng, rng.randint(3, 7)))
    return found


# each carrier's states, and its checked constructor from (ambient, labels)
CARRIERS = {
    "Word": (
        lambda: commutation_class(staircase_word(5))[::5] + all_reduced_words(
            Permutation.longest(4))[::3],
        lambda rank, letters: Word(letters, rank),
    ),
    "LinearExtension": (
        seeded_extensions,
        lambda poset, ids: LinearExtension(poset, [poset.elements[i] for i in ids]),
    ),
    "Tableau": (
        lambda: (standard_tableaux(Shape.right((4, 3, 2, 1)))[::3]
                 + standard_tableaux(Shape.half_right((5, 3, 1)))[::5]
                 + standard_tableaux(Shape.skew_right((4, 3, 2), (1,)))[::7]),
        lambda shape, ids: Tableau(shape, [shape.cells[i] for i in ids]),
    ),
}


def slots(x) -> tuple:
    return getattr(x, x._AMBIENT), getattr(x, x._LABELS)


def assert_same_carrier(found, expected) -> None:
    assert type(found) is type(expected)
    assert found == expected and hash(found) == hash(expected)
    assert found.key() == expected.key()


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_build_gives_the_checked_object(name):
    states, checked = CARRIERS[name]
    states = states()
    assert {type(x).__name__ for x in states} == {name}
    for x in states:
        ambient, labels = slots(x)
        built = _build(type(x), ambient, labels)
        assert_same_carrier(built, checked(ambient, labels))
        assert_same_carrier(built, x)
        assert slots(built)[0] is ambient


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_rebuild_keeps_the_type_and_the_ambient(name):
    states, checked = CARRIERS[name]
    for x in states():
        ambient, labels = slots(x)
        for i in range(1, x.size):
            moved = x._rebuild(x._toggle(labels, (i,)))
            assert type(moved) is type(x) and slots(moved)[0] is ambient
            assert_same_carrier(moved, x.tau(i))
            assert_same_carrier(moved, checked(ambient, slots(moved)[1]))


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_copy_deepcopy_and_pickle_round_trip(name):
    states, _ = CARRIERS[name]
    states = states()
    for x in states + [x.tau(i) for x in states[::4] for i in range(1, x.size)]:
        for again in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert_same_carrier(again, x)
            assert slots(again)[1] == slots(x)[1]
        assert slots(copy.copy(x))[0] is slots(x)[0]


@pytest.mark.parametrize("cls", [Word, LinearExtension, Tableau])
def test_the_layout_is_written_once(cls):
    assert issubclass(cls, _Carrier)
    assert "_rebuild" not in vars(cls)
    assert "_sorted" not in vars(cls) or cls is Tableau  # a filling sorts by a byte key
    assert cls._set_labels == getattr(cls, cls._LABELS).__set__
    assert cls._set_ambient == getattr(cls, cls._AMBIENT).__set__
