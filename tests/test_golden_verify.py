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

Recorded at commit ca7ad71, before ``verify`` put each theorem's name in
front of its verifier's own fields and before every command rendered
through ``_emit``'s defaults: ``verify half-right --shape 5,3,1`` and
``--shape half:7,5,3,1`` in json, table and csv; the braid-hooks, homomesy
and skew-balance cases above in table and csv; the failing ``verify
homomesy --shape right:2,2`` (exit 1); ``verify poset-edges --count 5
--seed 1`` in table and csv; ``window --word 1,2,1,3,2,1 --rank 4`` in
table and json; and ``enumerate --class-of-word 1,2,1,3,2,1 --rank 4`` in
json and csv.
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
