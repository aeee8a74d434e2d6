"""Command line front end: enumerations, theorem checks, orbit reports.

Exit codes: 0 all requested checks pass (or ``-h``), 1 a check fails, 2 usage
error (argparse's refusals too, which ``main`` returns), 3 a state cap was
exceeded or memory ran out.  All numbers are exact; averages print as
fractions.  Output is deterministic for a fixed seed and flag set.  A
``verify`` result is its theorem's name followed by the fields its verifier
returns; every command renders through ``_emit``.

A command runs with the cycle collector paused; ``main`` restores the
collector's state on every exit.  The package's results hold no reference
cycles, so reference counting frees them, and collections would only rescan
live results to find nothing (a fifth of ``verify reiner --n 6``).  Library
calls keep the collector as it is; ``tests/test_cli_gc.py`` guards the premise.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
from fractions import Fraction
from itertools import starmap
from operator import itemgetter

from . import heaps, homomesy, posets, tableaux, words
from .errors import (
    ExplosionGuardError,
    ShapeConditionError,
    ShapeSpecError,
    WordSpecError,
    default_cap,
)
from .tableaux import Shape

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class _UsageError(Exception):
    """Flags a command cannot run with: ``main`` prints the message alone and
    exits 2."""


def parse_shape(spec: str, mode: str | None = None) -> Shape:
    """Parse right:4,3,2,1 | half:5,3,1 | skew:4,3,2,1/1, or a spec without
    a prefix in ``mode``.  A field that is empty or not an integer is a
    ``ShapeSpecError`` naming the spec; a skew spec's inner part may be
    absent or empty."""
    if ":" in spec:
        mode, _, body = spec.partition(":")
    elif mode is None:
        raise ShapeSpecError(f"shape spec {spec!r} needs a mode prefix like 'right:'")
    else:
        body = spec

    def parts(text: str) -> tuple[int, ...]:
        try:
            return tuple(int(x) for x in text.split(","))
        except ValueError:
            raise ShapeSpecError(f"shape spec {spec!r} is not comma-separated integers") from None

    if mode == "skew":
        outer_part, _, inner_part = body.partition("/")
        return Shape.skew_right(parts(outer_part), parts(inner_part) if inner_part else ())
    if mode == "right":
        return Shape.right(parts(body))
    if mode == "half":
        return Shape.half_right(parts(body))
    raise ShapeSpecError(f"unknown shape mode {mode!r}")


def parse_word(spec: str, rank: int) -> words.Word:
    """Parse comma-separated letters like 1,2,1."""
    try:
        letters = tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise WordSpecError(f"word spec {spec!r} is not comma-separated integers") from None
    return words.make_word(letters, rank)


def _commutation_class(args) -> list[words.Word]:
    """The class of ``--class-of-word``, which needs ``--rank``, after
    ``heaps._stacks`` has checked that no word in the class has a factor
    ``a a`` (``QuadraticRuleError``)."""
    if args.rank is None:
        raise _UsageError("--class-of-word needs --rank")
    word = parse_word(args.class_of_word, args.rank)
    heaps._stacks(word.letters)
    return words.commutation_class(word, args.cap)


def _poset_and_ideal(args, command: str) -> tuple[posets.Poset, frozenset]:
    """The poset of the ``--poset`` file and its ``--ideal``, which
    ``command --poset`` needs: refused before the file is read."""
    if args.ideal is None:
        raise _UsageError(f"{command}--poset needs --ideal")
    with open(args.poset) as handle:
        poset = posets.poset_from_lines(handle.read())
    return poset, posets.parse_ideal(poset, args.ideal)


def _refuse(args, what: str, flags) -> None:
    """Refuse the first given of ``flags`` (each None by default): ``what`` reads none of them."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise _UsageError(f"{what} does not take {flag}")


def _emit(payload: dict, fmt: str, csv_rows=None, table_lines=None) -> None:
    """Print ``payload`` as JSON, as CSV rows (by default its keys over its
    values, a list or dict field as JSON text) or as table lines (by default
    one ``key: value`` line a field)."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for row in csv_rows or (payload.keys(), payload.values()):
            writer.writerow([json.dumps(x) if isinstance(x, (list, dict)) else str(x)
                             for x in row])
    else:
        for line in table_lines or [f"{k}: {v}" for k, v in payload.items()]:
            print(line)


def _serialise(obj) -> str:
    if isinstance(obj, words.Word):
        return words.word_to_string(obj)
    if isinstance(obj, tableaux.Tableau):  # before its base class, LinearExtension
        return "|".join(" ".join(map(str, row)) for row in obj.row_values())
    return " ".join(str(e) for e in obj.seq)  # a LinearExtension


def cmd_enumerate(args) -> int:
    if args.shape is not None:
        _refuse(args, "enumerate --shape", ("--rank",))
        shape = parse_shape(args.shape)
        objects = tableaux.standard_tableaux(shape, args.cap)
    elif args.class_of_word is not None:
        objects = _commutation_class(args)
    else:
        raise _UsageError("enumerate needs --shape or --class-of-word")
    serialised = [_serialise(obj) for obj in objects]
    payload = {"objects": serialised, "count": len(objects)}
    _emit(
        payload,
        args.format,
        csv_rows=[("index", "object")] + list(enumerate(serialised)),
        table_lines=serialised + [f"count: {len(objects)}"],
    )
    return EXIT_PASS


def _verify_braid_moves(word_list, count_key: str):
    """The braid-move check over the words ``word_list(n, cap)``: they hold as
    many braid moves in all as there are words, counted under ``count_key``."""
    def verify(args) -> dict:
        found = word_list(args.n, args.cap)
        moves = words.braid_move_stats(found)["total"]
        return {
            "n": args.n,
            count_key: len(found),
            "braid_moves": moves,
            "pass": moves == len(found),
        }
    return verify


def _verify_braid_hooks(args) -> dict:
    shape = parse_shape(args.shape)
    value = tableaux.expected_braid_hooks(shape, args.cap)
    return {
        "shape": args.shape,
        "expected_hooks": str(value),
        "pass": value == 1,
    }


def _verify_half_right(args) -> dict:
    spec = args.shape if ":" in args.shape else f"half:{args.shape}"
    shape = parse_shape(args.shape, "half")
    if shape.mode != "half-right":
        raise ShapeConditionError(f"verify half-right needs a half-right shape, not {spec!r}")
    value = tableaux.expected_braid_hooks(shape, args.cap)
    outer = shape.outer
    strong = len(outer) >= 2 and outer[0] >= outer[1] + 2 and outer[-1] == 1
    ok = value == Fraction(1, 2) if strong else value <= Fraction(1, 2)
    return {
        "shape": spec,
        "expected_hooks": str(value),
        "strong_condition": strong,
        "pass": ok,
    }


def _verify_skew_balance(args) -> dict:
    shape = parse_shape(args.shape)
    report = tableaux.updown_crossing_balance(shape, args.cap)
    return {
        "shape": args.shape,
        "tableaux": len(report["diffs"]),
        "pass": report["all_diffs_one"],
    }


def _verify_homomesy(args) -> dict:
    shape = parse_shape(args.shape)
    report = homomesy.homomesy_report(
        tableaux.standard_tableaux(shape, args.cap),
        homomesy.tableau_statistic("braid-hooks"),
        args.group,
    )
    averages = sorted({str(o["average"]) for o in report["orbits"]})
    return {
        "shape": args.shape,
        "group": args.group,
        "orbit_count": len(report["orbits"]),
        "averages": averages,
        "pass": averages == ["1"],
    }


def _verify_poset_edges(args) -> dict:
    import random

    if args.poset is not None:
        _refuse(args, "verify poset-edges --poset", ("--count", "--max-size", "--seed"))
        report = posets.verify_edges(*_poset_and_ideal(args, "verify poset-edges "), args.cap)
        return {
            "lhs": report["lhs"],
            "rhs": report["rhs"],
            "per_orbit": [
                {"size": o["size"], "average": str(o["average"])}
                for o in report["per_orbit"]
            ],
            "pass": report["ok"],
        }
    if args.ideal is not None:
        raise _UsageError("verify poset-edges --ideal needs --poset")
    count = args.count or 50
    cap = default_cap() if args.cap is None else args.cap  # once, not per pair
    rng = random.Random(args.seed or 0)
    checked = 0
    for _ in range(count):
        poset = posets.random_bounded_poset(rng, rng.randint(3, args.max_size or 7))
        masks = posets._ideal_masks(poset, cap)
        full = (1 << poset.size) - 1
        failing = [mask for mask in masks
                   if mask and mask != full and not posets._edge_check(poset, mask, cap)[0]]
        if failing:
            # the first failure in ``order_ideals`` order, where the empty ideal is 0
            order = posets._ideal_order(poset, masks)
            return {"checked": checked + min(map(order.index, failing)), "pass": False}
        checked += len(masks) - 2  # every proper ideal: all but the empty and the full mask
    return {"posets": count, "checked": checked, "pass": True}


# Each theorem's verifier and the flags it reads: its subcommand's flags besides --format.
VERIFIERS = {
    "reiner": (_verify_braid_moves(lambda n, cap: words.all_reduced_words(
        words.Permutation.longest(n), cap), "words"), ("--n",)),
    "commutation-class": (_verify_braid_moves(lambda n, cap: words.commutation_class(
        words.staircase_word(n), cap), "class_size"), ("--n",)),
    "braid-hooks": (_verify_braid_hooks, ("--shape",)),
    "half-right": (_verify_half_right, ("--shape",)),
    "skew-balance": (_verify_skew_balance, ("--shape",)),
    "homomesy": (_verify_homomesy, ("--shape", "--group")),
    "poset-edges": (_verify_poset_edges,
                    ("--poset", "--ideal", "--count", "--max-size", "--seed")),
}


def cmd_verify(args) -> int:
    result = {"theorem": args.theorem, **args.verifier(args)}
    _emit(result, args.format)
    return EXIT_PASS if result["pass"] else EXIT_FAIL


# Each source's statistics (window counts, the first the default) and the flags only it reads.
ORBIT_STATS = {
    "--shape": (("braid-hooks", "braid-moves"), ("--long-running",)),
    "--sample": (("braid-hooks",), ("--sample", "--seed", "--threads", "--long-running")),
    "--class-of-word": (("braid-moves",), ("--rank",)),
    "--poset": (("descents",), ("--ideal",)),
}


def cmd_orbits(args) -> int:
    if args.poset is not None:
        source = "--poset"
    elif args.shape is not None:
        source = "--shape" if args.sample is None else "--sample"
    elif args.class_of_word is not None:
        source = "--class-of-word"
    else:
        raise _UsageError("orbits needs --shape, --class-of-word, or --poset")
    allowed, reads = ORBIT_STATS[source]
    _refuse(args, f"orbits {source}",
            [flag for _, flags in ORBIT_STATS.values() for flag in flags if flag not in reads])
    stat = args.stat or allowed[0]
    if stat not in allowed:
        raise _UsageError(f"{source} takes --stat {' or '.join(allowed)}, not {stat}")
    if source == "--sample":
        return _sampled_search(args, stat)
    carrier, statistic = _orbit_carrier(args, source, stat)
    report = homomesy.homomesy_report(carrier, statistic, args.group, stat)
    payload = {
        "mode": report["mode"],
        "statistic": report["statistic"],
        "orbits": [
            {
                "size": o["size"],
                "average": str(o["average"]),
                "representative": _serialise(o["representative"]),
            }
            for o in report["orbits"]
        ],
        "homomesic": report["homomesic"],
    }
    csv_rows = [("orbit", "size", "average", "representative")] + [
        (i, o["size"], o["average"], o["representative"])
        for i, o in enumerate(payload["orbits"])
    ]
    table_lines = [
        f"orbit {i}: size {o['size']}, average {o['average']}"
        for i, o in enumerate(payload["orbits"])
    ] + [f"homomesic: {payload['homomesic']}"]
    _emit(payload, args.format, csv_rows=csv_rows, table_lines=table_lines)
    all_one = all(o["average"] == "1" for o in payload["orbits"])
    return EXIT_PASS if all_one else EXIT_FAIL


def _orbit_carrier(args, source: str, stat: str):
    """The carrier and the statistic of ``--poset``, ``--shape`` or
    ``--class-of-word``."""
    if source == "--poset":
        poset, ideal = _poset_and_ideal(args, "")
        posets._require_proper(poset, len(ideal))
        windows = posets._descent_windows(poset, posets._ideal_mask(poset, ideal))
        return (posets.linear_extensions(poset, args.cap),
                homomesy._window_statistic(lambda chunk: windows))
    if source == "--class-of-word":
        return _commutation_class(args), homomesy.word_statistic(stat)
    shape = parse_shape(args.shape)
    if shape.size >= 24 and not args.long_running:
        raise _UsageError(f"full enumeration on {shape.size} cells needs --long-running"
                          " (or use --sample)")
    if args.long_running:
        print(f"enumerating all fillings of {shape.size} cells", file=sys.stderr)
    if stat == "braid-moves":
        return homomesy.rw_class(shape, args.cap), homomesy.word_statistic(stat)
    return tableaux.standard_tableaux(shape, args.cap), homomesy.tableau_statistic(stat)


def _sampled_search(args, stat: str) -> int:
    """``orbits --sample``: the seeds split into at most one
    ``find_gyration_anomaly`` task per worker, mapped in this process or over
    a pool, and the first hit by seed reported."""
    if not args.long_running and args.sample > 1000:
        raise _UsageError("samples above 1000 need --long-running")
    shape = parse_shape(args.shape)
    if args.long_running:
        print(f"scanning up to {args.sample} seeds", file=sys.stderr)
    workers = min(args.threads or 1, os.cpu_count() or 1, args.sample)
    chunk = -(-args.sample // workers)
    # find_gyration_anomaly(shape, max_seeds, base_seed, mode, seed_start)
    tasks = [(shape, min(start + chunk, args.sample), args.seed or 0, args.group, start)
             for start in range(0, args.sample, chunk)]
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            hits = pool.starmap(homomesy.find_gyration_anomaly, tasks)
    else:
        hits = starmap(homomesy.find_gyration_anomaly, tasks)
    hit = min((h for h in hits if h is not None), key=itemgetter("seed"), default=None)
    payload = {
        "mode": args.group,
        "statistic": stat,
        "sampled_seeds": args.sample,
        "found": hit is not None,
    }
    if hit is not None:
        payload["orbit"] = {
            "seed": hit["seed"],
            "size": hit["orbit_size"],
            "average": str(hit["average"]),
            "representative": _serialise(hit["representative"]),
        }
    _emit(payload, args.format)
    return EXIT_PASS if hit is not None else EXIT_FAIL


def cmd_window(args) -> int:
    word = parse_word(args.word, args.rank)
    table = homomesy.window_table(word)
    payload = {
        "word": words.word_to_string(word),
        "rows": [
            {"i": i, "word": words.word_to_string(w), "a": a, "c": c, "diff": c - a}
            for i, w, a, c in table.rows
        ],
    }
    _emit(payload, args.format, table_lines=[table.to_text()])
    return EXIT_PASS


# The least value of each numeric flag.  The identities are claimed from
# rank n = 3, a random bounded poset has at least 3 elements, and a cap,
# poset count, sample or worker pool of zero leaves nothing to check.
FLAG_FLOORS = {"cap": 1, "n": 3, "count": 1, "max_size": 3, "sample": 1, "threads": 1}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidhooks",
        description="Exact enumeration and theorem checks for reduced words, "
        "justified tableaux, and orbit statistics.",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=None,
        help="state cap for enumerations (default: BRAIDHOOKS_CAP or 10^8)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list tableaux or a commutation class")
    sources = p_enum.add_mutually_exclusive_group()
    sources.add_argument("--shape", help="right:4,3,2,1 | half:5,3,1 | skew:4,3,2,1/1")
    sources.add_argument("--class-of-word", help="comma-separated letters")
    p_enum.add_argument("--rank", type=int)
    p_enum.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_enum.set_defaults(func=cmd_enumerate)

    specs = {
        "--n": {"type": int, "default": 4},
        "--shape": {"required": True},
        "--group": {"choices": homomesy.MODES, "default": "dihedral"},
        "--poset": {"help": "file of 'a < b' cover lines"},
        "--ideal": {"help": "comma-separated element names"},
        "--count": {"type": int, "help": "random posets to draw (default 50)"},
        "--max-size": {"type": int, "help": "elements of the largest poset drawn (default 7)"},
        "--seed": {"type": int, "help": "seed of the draws (default 0)"},
    }
    p_verify = sub.add_parser("verify", help="run a theorem verification")
    theorems = p_verify.add_subparsers(dest="theorem", required=True)
    for theorem, (verifier, flags) in VERIFIERS.items():
        p_theorem = theorems.add_parser(theorem)
        for flag in flags:
            p_theorem.add_argument(flag, **specs[flag])
        p_theorem.add_argument("--format", choices=("table", "json", "csv"), default="json")
        p_theorem.set_defaults(func=cmd_verify, verifier=verifier)

    p_orbits = sub.add_parser("orbits", help="orbit decomposition and averages")
    sources = p_orbits.add_mutually_exclusive_group()
    sources.add_argument("--shape")
    sources.add_argument("--class-of-word")
    sources.add_argument("--poset")
    p_orbits.add_argument("--rank", type=int)
    p_orbits.add_argument("--ideal")
    p_orbits.add_argument("--group", choices=homomesy.MODES, default="dihedral")
    p_orbits.add_argument(
        "--stat",
        choices=sorted({stat for stats, _ in ORBIT_STATS.values() for stat in stats}),
        help="; ".join(f"{source}: " + " or ".join([stats[0] + " (default)" * (len(stats) > 1),
                                                    *stats[1:]])
                       for source, (stats, _) in ORBIT_STATS.items()),
    )
    p_orbits.add_argument("--sample", type=int, help="sampled orbit search (gyration)")
    p_orbits.add_argument("--seed", type=int, help="base seed of the samples (default 0)")
    p_orbits.add_argument("--threads", type=int, help="worker processes (default 1)")
    p_orbits.add_argument("--long-running", action="store_true", default=None)
    p_orbits.add_argument("--format", choices=("table", "json", "csv"), default="json")
    p_orbits.set_defaults(func=cmd_orbits)

    p_window = sub.add_parser("window", help="moving-window table of a word")
    p_window.add_argument("--word", required=True)
    p_window.add_argument("--rank", type=int, required=True)
    p_window.add_argument("--format", choices=("table", "json"), default="table")
    p_window.set_defaults(func=cmd_window)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's refusal (2) or help (0)
        return exc.code
    collecting = gc.isenabled()
    gc.disable()
    try:
        for dest, floor in FLAG_FLOORS.items():
            value = getattr(args, dest, None)
            if value is not None and value < floor:
                raise _UsageError(f"--{dest.replace('_', '-')} must be at least {floor}")
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except ExplosionGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print(f"error: out of memory in {args.command}; a smaller input or a lower --cap"
              " stops the enumeration sooner", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
