"""The ``class-transport`` workload: a library script, since no command calls ``nu``.

It takes the commutation class of ``staircase_word(7)``, sends every word
through ``nu`` onto ``right:6,5,4,3,2,1`` and back through ``nu_inverse``,
and closes the dihedral orbits of the class words under the braid-move
statistic.  It prints one JSON object of exact counts, which the benchmark
compares with its golden values.

Run from the repository root: ``PYTHONPATH=src python perfbench/class_transport.py``.
"""

from __future__ import annotations

import json

from braidhooks import heaps, homomesy, tableaux, words

SHAPE = (6, 5, 4, 3, 2, 1)


def is_standard(t) -> bool:
    """Rows increase to the right and columns downward; checked here rather
    than by ``braidhooks``, so a fast path that skips its own check is caught."""
    entry = {cell: v for v, cell in enumerate(t.pos, start=1)}
    if len(entry) != len(t.pos) or set(entry) != t.shape.cell_set:
        return False
    return all(
        entry.get((r, c + 1), v + 1) > v and entry.get((r + 1, c), v + 1) > v
        for (r, c), v in entry.items()
    )


def main() -> None:
    cls = words.commutation_class(words.staircase_word(7))
    shape = tableaux.Shape.right(SHAPE)
    images = [heaps.nu(w, shape) for w in cls]
    back = [heaps.nu_inverse(t) for t in images]
    report = homomesy.homomesy_report(
        cls, homomesy.word_statistic("braid-moves"), "dihedral", "braid-moves"
    )
    print(json.dumps({
        "class_words": len(cls),
        "nu_distinct": len(set(images)),
        "nu_valid": sum(map(is_standard, images)),
        "nu_inverse_exact": sum(a == b for a, b in zip(cls, back)),
        "orbits": len(report["orbits"]),
        "averages": sorted({str(o["average"]) for o in report["orbits"]}),
    }))


if __name__ == "__main__":
    main()
