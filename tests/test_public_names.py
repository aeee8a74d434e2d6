"""Every module's export list names only what the module defines.

``from braidhooks.<module> import *`` fails on a name that ``__all__``
lists but the module lacks, so a deleted type cannot linger there.  The
package's own public names, modules aside, are pinned as a sorted list.
"""

import importlib
import types

import pytest

MODULES = ["heaps", "posets", "tableaux", "words", "homomesy"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    module = importlib.import_module(f"braidhooks.{name}")
    namespace: dict = {}
    exec(f"from braidhooks.{name} import *", namespace)
    for exported in module.__all__:
        assert namespace[exported] is getattr(module, exported), exported


def test_package_imports():
    import braidhooks

    assert braidhooks.heap_poset is importlib.import_module("braidhooks.heaps").heap_poset


# The sorted public names of ``braidhooks``, modules aside: a name added to or
# dropped from the package changes this list in plain view.
PUBLIC = """
    CapSettingError Crossing DisconnectedShapeError ExplosionGuardError
    InvalidSiteError LetterRangeError LinearExtension MoveSite
    NoPreimageError NotABraidError NotABraidHookError NotADescentError
    NotReducedError Orbit Permutation Poset PosetBoundsError
    QuadraticRuleError Shape ShapeConditionError ShapeMismatchError
    SlidingPath Tableau TrivialIdealError Word all_reduced_words
    apply_move big_phi big_phi_inverse braid_hooks braid_move_stats
    commutation_class conjugate crossings descents dihedral_orbits
    dual_evacuation evacuation expected_braid_hooks
    find_gyration_anomaly gyration heap_poset homomesy_report
    inverse_promotion inverse_promotion_path is_reduced
    linear_extensions list_moves make_reduced_word make_word nu
    nu_inverse orbit_average order_ideals partial_braid_hooks
    partial_inverse_promotion partial_promotion phi phi_inverse
    poset_phi poset_phi_inverse promotion promotion_path psi
    random_bounded_poset rw_class shape_poset staircase_pair
    staircase_word standard_tableaux tau_even tau_odd tau_parity
    trapezoid_word updown_crossing_balance verify_edges window_table
    word_condition_check word_to_permutation
""".split()


def test_the_package_exports_exactly_the_pinned_names():
    import braidhooks

    exported = sorted(name for name, value in vars(braidhooks).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC
