"""``verify`` and ``enumerate`` output pinned byte for byte.

``golden_verify.json`` holds the stdout, stderr and exit code of
``verify reiner --n 3..6`` and ``verify commutation-class --n 3..7`` in
json, table and csv, recorded while ``braid_move_stats`` still summed the
per-word ``braid_sites``.  Both commands count their braid moves with it,
so the byte scan must leave every line as it was.  It also holds the
filling outputs recorded while a ``Tableau`` kept its own cell-pair labels
and row/column commute test: ``enumerate --shape right:5,4,3,2,1`` (json)
and ``--shape half:5,3,1``, ``verify braid-hooks|homomesy --shape
right:5,4,3,2,1``, and ``verify skew-balance --shape skew:4,3,2,1/1``,
whose crossings run the jeu-de-taquin slides.
"""

import json
from pathlib import Path

import pytest

from braidhooks.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_verify.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"][1:]))
def test_verify_output_is_unchanged(case, capsys):
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])
