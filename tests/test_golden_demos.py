"""The four demos' stdout pinned byte for byte.

``golden_demos.json`` maps each script in ``demos/`` to the stdout it
printed when recorded.  The demos are deterministic, so any change in what
they print is a change in a result.  Each runs in its own interpreter, as
a user runs it, with the package's ``src`` on ``PYTHONPATH``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden_demos.json").read_text())


def test_every_demo_is_pinned():
    assert sorted(GOLDEN) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == GOLDEN[name]
