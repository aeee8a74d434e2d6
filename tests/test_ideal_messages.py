"""Ideal error messages list the ideal in element order, whatever the hash seed.

A ``frozenset`` of strings prints in an order that depends on
``PYTHONHASHSEED``, so the messages build the set literal from the poset's
element order and name the first missing element in that order.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidhooks
from braidhooks.errors import NotADescentError
from braidhooks.posets import linear_extensions, parse_ideal, poset_from_lines, poset_phi

LINES = "a < b\na < c\nb < d\nc < d\nd < e\nb < f\nf < e\n"


def test_parse_ideal_names_the_first_missing_element():
    poset = poset_from_lines(LINES)
    with pytest.raises(ValueError) as exc:
        parse_ideal(poset, "d,c,b")
    assert str(exc.value) == "{'b', 'c', 'd'} is not downward closed (missing 'a')"
    with pytest.raises(ValueError) as exc:
        parse_ideal(poset, "f,a,d")
    assert str(exc.value) == "{'a', 'd', 'f'} is not downward closed (missing 'b')"
    assert parse_ideal(poset, "c,b,a") == frozenset("abc")


def test_not_a_descent_lists_the_ideal_in_element_order():
    poset = poset_from_lines(LINES)
    ext = linear_extensions(poset)[0]
    with pytest.raises(NotADescentError) as exc:
        poset_phi("a", ext, frozenset("cba"))
    assert str(exc.value) == f"'a' is not a descent of {ext.seq} for {{'a', 'b', 'c'}}"


def test_cli_messages_do_not_depend_on_the_hash_seed(tmp_path):
    poset_file = tmp_path / "F.txt"
    poset_file.write_text(LINES)
    src = str(Path(braidhooks.__file__).parent.parent)
    stderr = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "braidhooks.cli", "verify", "poset-edges",
             "--poset", str(poset_file), "--ideal", "c,d,b"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 2
        stderr.append(done.stderr)
    assert stderr[0] == stderr[1] == "error: {'b', 'c', 'd'} is not downward closed (missing 'a')\n"
