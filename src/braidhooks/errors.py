"""Exception types shared across the package, and the state cap they enforce."""

import os


class NotReducedError(ValueError):
    """Word does not have minimal length for the permutation it expresses."""


class LetterRangeError(ValueError):
    """Generator index outside 1..rank-1."""


class QuadraticRuleError(ValueError):
    """Word (or its commutation class) contains a factor `a a`."""


class InvalidSiteError(ValueError):
    """Move site does not match the word it is applied to."""


class ExplosionGuardError(RuntimeError):
    """Enumeration exceeded the configured state cap.

    ``what`` names what was being enumerated: words, fillings, linear
    extensions or order ideals.
    """

    def __init__(self, cap: int, what: str):
        super().__init__(f"enumeration of {what} exceeded the state cap of {cap}")
        self.cap = cap
        self.what = what


class CapSettingError(ValueError):
    """``BRAIDHOOKS_CAP`` is not an integer of at least 1."""


def default_cap() -> int:
    """State cap for every enumeration: env ``BRAIDHOOKS_CAP``, an integer of at
    least 1 like ``--cap``, else 10^8.  An explicit ``cap`` (even 0) never reads it."""
    text = os.environ.get("BRAIDHOOKS_CAP")
    if text is None:
        return 10**8
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise CapSettingError(f"BRAIDHOOKS_CAP must be an integer of at least 1, not {text!r}")
    return cap


class ShapeMismatchError(ValueError):
    """Heap of a word is not isomorphic to the declared shape poset."""


class NotABraidHookError(ValueError):
    """The given k is not a braid hook of the tableau."""


class ShapeConditionError(ValueError):
    """Shape fails a precondition (justification mode, first/last row sizes)."""


class DisconnectedShapeError(ValueError):
    """Skew shape has consecutive rows without a shared column edge."""


class NotABraidError(ValueError):
    """The given position is not the centre of a braid factor in the word."""


class NoPreimageError(ValueError):
    """Word has no preimage under the moving-window bijection."""


class PosetBoundsError(ValueError):
    """Poset lacks the unique minimum or maximum this operation needs."""


class TrivialIdealError(ValueError):
    """Order ideal is empty or the whole poset."""


class NotALinearExtensionError(ValueError):
    """Sequence does not list a poset's elements in an order-preserving way."""


class NotADescentError(ValueError):
    """Element is not a descent of the linear extension for the ideal."""


class WordSpecError(ValueError):
    """Word spec on the command line has a field that is not an integer."""


class ShapeSpecError(ValueError):
    """Shape spec on the command line lacks a known mode or has a field that
    is empty or not an integer."""
