"""``orbits`` output pinned byte for byte.

``golden_orbits.json`` holds the stdout, stderr and exit code of each
command, recorded before orbit closure became a path or cycle walk over
label tuples: the four groups on right:5,4,3,2,1, braid moves over the
class of right:4,3,2,1, a class of a word, a poset file (its text is in
the file) and two sampled searches, one of which finds an orbit.  Both
sampled searches are also pinned in table and csv, recorded at commit
ca7ad71, before they rendered through ``_emit``'s defaults.
"""

import json
from pathlib import Path

import pytest

from braidhooks.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_orbits.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"][1:]))
def test_orbits_output_is_unchanged(case, tmp_path, capsys):
    poset = tmp_path / "poset.txt"
    poset.write_text(GOLDEN["poset"])
    argv = [str(poset) if arg == "{poset}" else arg for arg in case["argv"]]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])
