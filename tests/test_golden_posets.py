"""``orbits --poset`` and ``verify poset-edges --poset`` pinned byte for byte.

``golden_posets.json`` holds the stdout, stderr and exit code of both
commands on two poset files: the diamond ``bot < a, b < top`` and the
7-element poset ``bot < 0 < 1 < 4 < top``, ``bot < 2 < 3 < top``,
``2 < 4``, which is not graded.  Each proper nonempty ideal of each is
pinned in all three formats and all four groups.  ``verify poset-edges``
takes no ``--group``: its cases with one pin the refusal (exit 2), and its
cases without one pin the check.  Recorded at commit 757851c, before the
descents of an ideal were counted as cover windows by ``orbits --poset``;
the ``verify`` cases were recorded again on top of commit 1c6dc25, when
``--group`` became a refused flag, each case without ``--group`` printing
what its ``--group dihedral`` case did.

Run this file as a script, with the package to record on the path, to
write the golden again: ``PYTHONPATH=src python tests/test_golden_posets.py``.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from braidhooks.cli import main
from braidhooks.homomesy import MODES
from braidhooks.posets import order_ideals, poset_from_lines

PATH = Path(__file__).parent / "golden_posets.json"
POSETS = {
    "diamond": "bot < a\nbot < b\na < top\nb < top\n",
    "non-graded": "bot < 0\n0 < 1\n1 < 4\n4 < top\nbot < 2\n2 < 3\n3 < top\n2 < 4\n",
}
FORMATS = ("json", "table", "csv")
COLUMNS = "80"  # argparse wraps a refusal's usage line to the terminal's width


def argvs() -> list[list[str]]:
    """Every command pinned, ``{poset}`` standing for the file's path."""
    cases = []
    for name, text in POSETS.items():
        poset = poset_from_lines(text)
        for ideal in order_ideals(poset):
            if not ideal or len(ideal) == poset.size:
                continue
            source = ["--poset", "{" + name + "}", "--ideal",
                      ",".join(e for e in poset.elements if e in ideal)]
            for command in (["orbits"], ["verify", "poset-edges"]):
                for group in MODES:
                    cases += [[*command, *source, "--group", group, "--format", fmt]
                              for fmt in FORMATS]
            cases += [["verify", "poset-edges", *source, "--format", fmt] for fmt in FORMATS]
    return cases


def files(folder: Path) -> dict[str, str]:
    """Each poset's text written to a file in ``folder``, by its name."""
    paths = {}
    for name, text in POSETS.items():
        path = folder / f"{name}.txt"
        path.write_text(text)
        paths["{" + name + "}"] = str(path)
    return paths


GOLDEN = json.loads(PATH.read_text()) if PATH.exists() else {"cases": []}


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]))
def test_poset_output_is_unchanged(case, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    paths = files(tmp_path)
    code = main([paths.get(arg, arg) for arg in case["argv"]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


def test_every_case_is_pinned():
    assert GOLDEN["posets"] == POSETS
    assert [case["argv"] for case in GOLDEN["cases"]] == argvs()


def record(folder: Path) -> dict:
    paths = files(folder)
    cases = []
    for argv in argvs():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([paths.get(arg, arg) for arg in argv])
        cases.append({"argv": argv, "exit": code, "stdout": out.getvalue(),
                      "stderr": err.getvalue()})
    return {"posets": POSETS, "cases": cases}


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as folder:
        golden = record(Path(folder))
    PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden['cases'])} cases to {PATH}", file=sys.stderr)
