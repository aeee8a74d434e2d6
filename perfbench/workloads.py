"""The four benchmark workloads, how to start them, and their golden values.

Each workload is one exhaustive check a user of ``braidhooks`` runs.  Three
are ``braidhooks`` commands; ``class-transport`` is a library script
(``class_transport.py``), because no command reaches ``heaps.nu``.  Only
``poset-edges`` takes the workload seed; the other three have fixed
inputs, and their golden values are constants.

Every invocation is checked against exact values.  For ``poset-edges`` the
expected counts of (poset, ideal) pairs and of linear extensions are worked
out here, independently of ``braidhooks.posets``: the same seeded posets are
drawn, and their order ideals and linear extensions are counted with bitmask
dynamic programming.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# One ``poset-edges`` run draws posets of at most POSET_MAX_SIZE elements
# from its seed until their (poset, proper ideal) pairs hold POSET_EXTENSIONS
# linear extensions, and passes that many posets as ``--count``.  A fixed
# ``--count`` would make the work depend on the seed: at 200 posets of size
# <= 7, twelve seeds took 1.8-4.9 s, and at 3,000 of size <= 6 the
# extension totals of ten seeds still spread 8% between quartiles.  With the
# target, the number of Python calls the check makes spreads about 1%.
POSET_MAX_SIZE = 6
POSET_EXTENSIONS = 100_000



@dataclass(frozen=True)
class Workload:
    name: str
    objects: str  # what objects_per_s counts

    def cli_args(self, seed: int) -> list[str] | None:
        """``braidhooks`` arguments, or None for the library script."""
        if self.name == "reduced-words":
            return ["verify", "reiner", "--n", "6"]
        if self.name == "staircase-orbits":
            return ["orbits", "--shape", "right:6,5,4,3,2,1", "--group", "dihedral",
                    "--stat", "braid-hooks"]
        if self.name == "poset-edges":
            return ["verify", "poset-edges", "--count", str(poset_plan(seed)[0]),
                    "--max-size", str(POSET_MAX_SIZE), "--seed", str(seed)]
        return None

    def argv(self, python: str, seed: int) -> list[str]:
        """A child running the workload the way the ``braidhooks`` script or
        ``python class_transport.py`` would, through ``boot.py``."""
        args = self.cli_args(seed)
        if args is None:
            return [python, str(HERE / "boot.py"), "script", str(HERE / "class_transport.py")]
        return [python, str(HERE / "boot.py"), "cli"] + args


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reduced-words", "words"),
        Workload("staircase-orbits", "tableaux"),
        Workload("class-transport", "class words"),
        Workload("poset-edges", "linear extensions"),
    )
}


@functools.lru_cache(maxsize=None)
def poset_plan(seed: int) -> tuple[int, int, int]:
    """(posets, proper nonempty ideals, linear extensions summed over them)
    for the posets ``verify poset-edges --seed seed`` draws, taking posets
    until the extensions reach POSET_EXTENSIONS.

    Only the random draw comes from ``braidhooks``; the counting is this
    module's own.
    """
    from braidhooks.posets import random_bounded_poset

    rng = random.Random(seed)
    count = checked = extensions = 0
    while extensions < POSET_EXTENSIONS:
        poset = random_bounded_poset(rng, rng.randint(3, POSET_MAX_SIZE))
        ideals, linear = _ideal_and_extension_counts(poset.elements, poset.covers)
        count += 1
        checked += ideals - 2
        extensions += (ideals - 2) * linear
    return count, checked, extensions


def _ideal_and_extension_counts(elements, covers) -> tuple[int, int]:
    index = {e: i for i, e in enumerate(elements)}
    below = [0] * len(elements)
    for lo, hi in covers:
        below[index[hi]] |= 1 << index[lo]
    full = (1 << len(elements)) - 1
    # paths[m] = number of ways to build the ideal m one element at a time
    paths = {0: 1}
    for size in range(len(elements)):
        for mask in [m for m in paths if bin(m).count("1") == size]:
            for i in range(len(elements)):
                bit = 1 << i
                if not mask & bit and below[i] & mask == below[i]:
                    paths[mask | bit] = paths.get(mask | bit, 0) + paths[mask]
    return len(paths), paths[full]


# Golden values of the fixed workloads, from the paper's identities and the
# seed code; ``poset-edges`` at seed 0 is pinned as well, to catch a change in
# the poset generator that the independent count would follow.
REDUCED_WORDS = 292_864
STAIRCASE_TABLEAUX = 33_592
STAIRCASE_ORBITS = 804
POSET_SEED0 = (2_145, 12_112, 100_020)  # poset_plan(0)


def objects(workload: Workload, seed: int) -> int:
    """The exact number of objects one run of the workload settles."""
    if workload.name == "reduced-words":
        return REDUCED_WORDS
    if workload.name == "poset-edges":
        return poset_plan(seed)[2]
    return STAIRCASE_TABLEAUX


def traced_golden(workload: Workload, seed: int) -> dict[str, int]:
    """Exact counts the traced run must report for the layers the workload
    exercises.  A layer whose functions silently stop being traced (moved to
    another module, or wrapped in a cache) reads 0 and fails here."""
    if workload.name == "reduced-words":
        return {"words.states": REDUCED_WORDS}
    if workload.name == "staircase-orbits":
        return {"tableaux.objects": STAIRCASE_TABLEAUX, "homomesy.orbits": STAIRCASE_ORBITS}
    if workload.name == "class-transport":
        return {"words.states": STAIRCASE_TABLEAUX, "heaps.nu.calls": STAIRCASE_TABLEAUX,
                "heaps.nu_inverse.calls": STAIRCASE_TABLEAUX,
                "homomesy.orbits": STAIRCASE_ORBITS}
    _, checked, extensions = poset_plan(seed)
    return {"posets.linear_extensions.calls": checked, "posets.extensions": extensions}


def check(workload: Workload, seed: int, code: int, out: bytes) -> list[str]:
    """Compare one invocation with its golden values; return the problems."""
    try:
        problems = _check_payload(workload, seed, json.loads(out))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems = [f"malformed output ({exc!r})"]
    if code != 0:
        problems.append(f"exit code {code}")
    return problems


def _check_payload(workload: Workload, seed: int, payload: dict) -> list[str]:
    problems: list[str] = []

    def want(key, value):
        if payload.get(key) != value:
            problems.append(f"{key} = {payload.get(key)!r}, expected {value!r}")

    if workload.name == "reduced-words":
        want("words", REDUCED_WORDS)
        want("braid_moves", REDUCED_WORDS)
        want("pass", True)
    elif workload.name == "staircase-orbits":
        orbits = payload.get("orbits", [])
        if len(orbits) != STAIRCASE_ORBITS:
            problems.append(f"{len(orbits)} orbits, expected {STAIRCASE_ORBITS}")
        if sum(o["size"] for o in orbits) != STAIRCASE_TABLEAUX:
            problems.append("orbit sizes do not add up to 33,592 tableaux")
        if any(o["average"] != "1" for o in orbits):
            problems.append("an orbit average is not 1")
        want("homomesic", True)
    elif workload.name == "class-transport":
        for key in ("class_words", "nu_distinct", "nu_valid", "nu_inverse_exact"):
            want(key, STAIRCASE_TABLEAUX)
        want("orbits", STAIRCASE_ORBITS)
        want("averages", ["1"])
    else:
        plan = poset_plan(seed)
        if seed == 0 and plan != POSET_SEED0:
            problems.append(f"seed 0 plans {plan}, expected {POSET_SEED0}")
        want("checked", plan[1])
        want("pass", True)
    return problems

