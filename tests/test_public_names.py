"""Every module's export list names only what the module defines.

``from braidhooks.<module> import *`` fails on a name that ``__all__``
lists but the module lacks, so a deleted type cannot linger there.
"""

import importlib

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
