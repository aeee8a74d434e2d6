"""Traced run of one workload: a span around every call into each layer.

The layers are the ``braidhooks`` modules ``words``, ``heaps``, ``tableaux``,
``homomesy``, ``posets`` and ``cli``.  Every public function of a layer (a
function defined in the module whose name does not start with ``_``) is
replaced, for the length of the run, by a wrapper that opens a span.  The
replacement is made on the module attribute and on every other
``braidhooks`` module that imported the function by name, so calls between
functions of one module are traced as well.  No file of the package changes.

Spans are folded as they close into a tree keyed by call path, holding the
number of calls, the time inside and the time inside child spans.  That
keeps memory bounded on workloads that make millions of calls, and a
span's self time is its time minus its children's.  The tree is kept in
memory and written to ``.perfbench/`` when the run ends.

Run as a child of ``run.py``, from the repository root:
``PYTHONPATH=src python perfbench/tracing.py --workload NAME --seed N``.
It prints one JSON object: the workload's exit code, a digest of its output,
the monotonic time at which the workload ended (the clock ``run.py`` reads
when it spawns the process), and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import random
import sys
import time
import tracemalloc
from pathlib import Path

import workloads

LAYERS = ("words", "heaps", "tableaux", "homomesy", "posets", "cli")

# Spans read this thread's CPU clock: ``run.py`` stops the process between
# slices, and a wall clock would count the stopped time.  The workload is
# single-threaded and never waits, so its CPU time is its running time.
CLOCK = time.thread_time_ns

# Results kept for the probes that run after the workload.
KEEP = ("words.all_reduced_words", "words.commutation_class", "tableaux.standard_tableaux")


class Node:
    """The spans of one call path, folded together."""

    __slots__ = ("name", "calls", "total_ns", "child_ns", "items", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = self.total_ns = self.child_ns = self.items = 0
        self.children: dict[str, Node] = {}

    def walk(self, ancestors=()):
        """Yield (node, names of its ancestors) depth first."""
        for child in self.children.values():
            yield child, ancestors
            yield from child.walk(ancestors + (child.name,))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total_ns / 1e9,
            "self_s": (self.total_ns - self.child_ns) / 1e9,
            "items": self.items,
            "children": [c.to_json() for c in self.children.values()],
        }


class Tracer:
    """Wraps the public functions of the layers; restores them on exit."""

    def __init__(self):
        self.root = Node("run")
        self.current = self.root
        self.kept: dict[str, list] = {name: [] for name in KEEP}
        self.posets: set = set()  # distinct Poset objects given to linear_extensions
        self.states = 0  # carrier elements closed by dihedral_orbits
        self.generator_steps = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"braidhooks.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "braidhooks" or n.startswith("braidhooks.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        keep = self.kept.get(name)
        after = {
            "homomesy.dihedral_orbits": self._count_orbit_states,
            "posets.linear_extensions": lambda args, kwargs, result: self.posets.add(args[0]),
        }.get(name)
        clock = CLOCK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name)
            self.current = node
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                node.calls += 1
                node.total_ns += elapsed
                parent.child_ns += elapsed
                self.current = parent
            if type(result) is list:
                node.items += len(result)
            if keep is not None:
                keep.append(result)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count_orbit_states(self, args, kwargs, result) -> None:
        from braidhooks import homomesy

        mode = args[1] if len(args) > 1 else kwargs.get("mode", "dihedral")
        states = sum(orbit.size for orbit in result)
        self.states += states
        self.generator_steps += states * len(homomesy._generators(mode))

    def totals(self) -> dict[str, list[int]]:
        """Per function: [calls, time inside, items returned], counting a
        recursive call's time once."""
        out: dict[str, list[int]] = {}
        for node, ancestors in self.root.walk():
            row = out.setdefault(node.name, [0, 0, 0])
            row[0] += node.calls
            row[2] += node.items
            if node.name not in ancestors:
                row[1] += node.total_ns
        return out

    def self_ns(self, layer: str) -> int:
        """Time inside the layer's spans less the time in their child spans."""
        return sum(node.total_ns - node.child_ns for node, _ in self.root.walk()
                   if node.name.startswith(layer + "."))


def run_workload(args: list[str] | None) -> tuple[int, bytes]:
    """Run a workload in this process: the ``braidhooks`` command with these
    arguments, or the library script for None.  Return the exit code and output."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        if args is None:
            import class_transport

            class_transport.main()
            code = 0
        else:
            from braidhooks import cli

            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    return code, buffer.getvalue().encode()


def layer_metrics(tracer: Tracer, output: bytes) -> dict[str, float]:
    """The per-layer metrics, including the probes that run after the workload."""
    from braidhooks import words

    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def seconds(name):
        return totals.get(name, (0, 0, 0))[1] / 1e9

    def items(name):
        return totals.get(name, (0, 0, 0))[2]

    def per(value, count, scale=1e6):
        return value * scale / count if count else 0.0

    m: dict[str, float] = {}
    found = [w for name in ("words.all_reduced_words", "words.commutation_class")
             for result in tracer.kept[name] for w in result]
    bfs_s = seconds("words.all_reduced_words") + seconds("words.commutation_class")
    move_sites = sum(len(words.list_moves(w)) for w in found)
    m["words.all_reduced_words.s"] = seconds("words.all_reduced_words")
    m["words.commutation_class.s"] = seconds("words.commutation_class")
    m["words.braid_move_stats.s"] = seconds("words.braid_move_stats")
    m["words.states"] = len(found)
    m["words.us_per_state"] = per(bfs_s, len(found))
    m["words.move_sites"] = move_sites
    m["words.bfs_yield"] = per(len(found) - 1, move_sites, 1) if found else 0.0

    for name in ("nu", "nu_inverse"):
        m[f"heaps.{name}.s"] = seconds(f"heaps.{name}")
        m[f"heaps.{name}.calls"] = calls(f"heaps.{name}")
        m[f"heaps.{name}.us_per_call"] = per(seconds(f"heaps.{name}"), calls(f"heaps.{name}"))

    carrier = [t for result in tracer.kept["tableaux.standard_tableaux"] for t in result]
    m["tableaux.standard_tableaux.s"] = seconds("tableaux.standard_tableaux")
    m["tableaux.objects"] = len(carrier)
    m["tableaux.enum_us_per_object"] = per(m["tableaux.standard_tableaux.s"], len(carrier))
    m["tableaux.sort_us_per_object"] = sort_probe(carrier)
    m["tableaux.bytes_per_object"] = bytes_probe(carrier)

    m["homomesy.dihedral_orbits.s"] = seconds("homomesy.dihedral_orbits")
    m["homomesy.orbit_average.s"] = seconds("homomesy.orbit_average")
    m["homomesy.orbits"] = items("homomesy.dihedral_orbits")
    m["homomesy.generator_steps"] = tracer.generator_steps
    m["homomesy.closure_us_per_state"] = per(m["homomesy.dihedral_orbits.s"], tracer.states)

    m["posets.verify_edges.s"] = seconds("posets.verify_edges")
    m["posets.linear_extensions.s"] = seconds("posets.linear_extensions")
    m["posets.linear_extensions.calls"] = calls("posets.linear_extensions")
    m["posets.extensions"] = items("posets.linear_extensions")
    m["posets.extension_reuse"] = per(len(tracer.posets),
                                      calls("posets.linear_extensions"), 1)
    m["posets.descents.s"] = seconds("posets.descents")

    m["cli.self_s"] = tracer.self_ns("cli") / 1e9
    m["cli.output_bytes"] = len(output) if calls("cli.main") else 0
    return m


def sort_probe(carrier: list) -> float:
    """Microseconds per object to sort fresh, shuffled copies of the carrier.

    Fresh copies carry no cached sort key, like the tableaux that orbit
    closure makes and sorts.
    """
    if not carrier:
        return 0.0
    from braidhooks.tableaux import Tableau

    fresh = [Tableau(t.shape, t.pos, _checked=True) for t in carrier]
    random.Random(0).shuffle(fresh)
    start = CLOCK()
    sorted(fresh)
    return (CLOCK() - start) / 1e3 / len(fresh)


def bytes_probe(carrier: list) -> float:
    """Bytes per tableau held by a fresh ``standard_tableaux`` of the same shape."""
    if not carrier:
        return 0.0
    from braidhooks.tableaux import standard_tableaux

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        again = standard_tableaux(carrier[0].shape)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / len(again)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    import braidhooks.cli  # noqa: F401  load every layer before wrapping

    cli_args = workload.cli_args(args.seed)  # plans poset-edges outside the trace
    with Tracer() as tracer:
        start, cpu_start = time.monotonic(), CLOCK()
        code, output = run_workload(cli_args)
        end, cpu_end = time.monotonic(), CLOCK()
    tracer.root.calls, tracer.root.total_ns = 1, cpu_end - cpu_start
    metrics = layer_metrics(tracer, output)
    out_dir = Path(".perfbench")
    out_dir.mkdir(exist_ok=True)
    tree_file = out_dir / f"spans-{workload.name}-seed{args.seed}.json"
    tree_file.write_text(json.dumps(tracer.root.to_json(), indent=1))
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "exit_code": code,
        "output_sha256": hashlib.sha256(output).hexdigest(),
        "workload_end": end,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
