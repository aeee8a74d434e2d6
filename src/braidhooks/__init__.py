"""Reduced words, heaps, justified tableaux, and exact orbit statistics.

The package connects three pictures of one combinatorial object: a
commutation class of words in the symmetric group, the linear extensions
of its heap poset, and the standard fillings of a justified shape.  Braid
moves on the words match braid hooks on the tableaux, and the promotion
style operators act compatibly on all three.  Everything is enumerated
exhaustively with exact integer and rational arithmetic.
"""

from .errors import (
    CapSettingError,
    DisconnectedShapeError,
    ExplosionGuardError,
    InvalidSiteError,
    LetterRangeError,
    NoPreimageError,
    NotABraidError,
    NotABraidHookError,
    NotADescentError,
    NotReducedError,
    PosetBoundsError,
    QuadraticRuleError,
    ShapeConditionError,
    ShapeMismatchError,
    TrivialIdealError,
    UnknownTheoremError,
)
from .heaps import (
    build_order_extension,
    heap_poset,
    nu,
    nu_inverse,
    shape_poset,
)
from .homomesy import (
    Orbit,
    big_phi,
    big_phi_inverse,
    dihedral_orbits,
    find_gyration_anomaly,
    gyration,
    homomesy_report,
    orbit_average,
    rw_class,
    tau_even,
    tau_odd,
    tau_parity,
    window_table,
    word_condition_check,
)
from .posets import (
    LinearExtension,
    Poset,
    descents,
    linear_extensions,
    order_ideals,
    poset_phi,
    poset_phi_inverse,
    random_bounded_poset,
    tau_on_extension,
    verify_edges,
)
from .tableaux import (
    Crossing,
    Shape,
    SlidingPath,
    Tableau,
    braid_hooks,
    conjugate,
    crossings,
    dual_evacuation,
    evacuation,
    expected_braid_hooks,
    inverse_promotion,
    inverse_promotion_path,
    partial_braid_hooks,
    partial_inverse_promotion,
    partial_promotion,
    phi,
    phi_inverse,
    promotion,
    promotion_path,
    psi,
    staircase_pair,
    standard_tableaux,
    tau,
    updown_crossing_balance,
)
from .words import (
    MatsumotoGraph,
    MoveSite,
    Permutation,
    Word,
    all_reduced_words,
    apply_move,
    braid_move_stats,
    commutation_class,
    is_reduced,
    list_moves,
    make_reduced_word,
    make_word,
    matsumoto_graph,
    staircase_word,
    trapezoid_word,
    word_to_permutation,
)

__version__ = "0.1.0"
