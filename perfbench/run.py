"""braidhooks benchmark: exhaustive checks timed end to end, and a traced run per layer.

Run from the repository root, with no installation step:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds 120     # every workload, one table
    python3 perfbench/run.py --workload all --self-test       # check the traced run

Untraced (``--trace 0``): this process only generates load and probes the
host.  Each run of the workload is a fresh single-threaded ``python`` child
(started through ``boot.py``) that imports the package from ``src/``; runs
follow each other, one at a time, until ``--seconds`` is used up (at least
one).  This process and its children are pinned to one CPU.  Every
``SLICE_S`` seconds the child is stopped, this process runs the reference
probe (``reference.py``) and one set-up sample, and the child is continued.
Every run is checked against exact golden values (``workloads.py``); only
runs that pass enter the metrics, which are medians over the runs:

- ``wall_ref``: the child's running time, spawn to exit less the stopped
  time, in probe units: each slice divided by the mean of the probes just
  before and after it.  The host's speed drifts by up to a factor of two,
  each CPU on its own, and the probe cancels that drift.
- ``cpu_ref``: the child's CPU time (``os.wait4`` on its pid), scaled by the
  same factor.
- ``objects_per_ref``: exact objects settled per probe unit.
- ``peak_rss_mb``: the child's own peak resident size (``boot.py``).
- ``setup_s``: seconds for a fresh interpreter to import ``braidhooks.cli``
  and build its parser, median of the set-up samples, each scaled by the
  probe just before it to the speed at which the probe takes
  ``reference.SECONDS``.

The raw figures (``wall_s``, ``cpu_s``, ``objects_per_s``, probe and set-up
seconds) are printed and recorded beside them, with the ``wall_s`` tail
percentile once 11 runs have passed.

Traced (``--trace 1``): one untraced run, then one traced run of the same
workload (``tracing.py``), both sliced by probes, which reports the
per-layer metrics.  Its output must be byte-identical to the untraced
run's, and the exact counts of the layers the workload exercises must equal
their golden values.  ``trace.overhead_s`` is the traced running time, from
spawn to the end of the workload, less the untraced one, both in probe units
and then converted to seconds at the run's median probe time.

The seed reaches only ``poset-edges``; the other workloads have fixed inputs.
Every run appends a record (workload, seed, exact object count, samples,
metrics, machine, load average at start and end) to
``.perfbench/records.jsonl``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit status is 1 if any run failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no byte code in the checkout

import reference  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SLICE_S = 1.5  # a sliced workload child runs this long between probes
SETUP_CODE = "import braidhooks.cli; braidhooks.cli.build_parser()"
HERE = Path(__file__).resolve().parent

# Exact counts that two traced runs of the same code must agree on.
EXACT_COUNTS = (
    "words.states", "words.move_sites", "heaps.nu.calls", "heaps.nu_inverse.calls",
    "tableaux.objects", "homomesy.orbits", "homomesy.generator_steps",
    "posets.linear_extensions.calls", "posets.extensions",
)


def units() -> dict[str, str]:
    """The unit of every metric, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class Child:
    """One finished child process: exit code, output and its own resource use.

    With a ``sampler``, the child is stopped every SLICE_S seconds while the
    sampler probes the host's speed, then continued.  ``slices`` holds, for
    each stretch the child ran, (start, end, probe seconds just before,
    probe seconds just after), and ``wall_s`` counts only the running time.
    Output goes to a file, so a stopped child never waits on a full pipe.
    """

    def __init__(self, argv: list[str], sampler: Sampler | None = None):
        # Byte code is cached under .perfbench/, so children import the way an
        # installed package does, whatever __pycache__ the checkout holds.
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                   PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        with tempfile.TemporaryFile(dir=OUT) as out, \
                tempfile.NamedTemporaryFile(dir=OUT) as peak:
            env["PERFBENCH_PEAK_FILE"] = peak.name  # written by boot.py
            self.start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, env=env, cwd=ROOT)
            try:
                status, usage = self._wait(proc.pid, sampler)
            except BaseException:
                proc.kill()  # also ends a stopped child
                proc.wait()
                raise
            proc.returncode = 0  # reaped by os.wait4, not by Popen
            out.seek(0)
            self.out = out.read()
            peak_kib = peak.read()
        self.code = os.waitstatus_to_exitcode(status)
        self.wall_s = sum(end - began for began, end, _, _ in self.slices)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        # The child's own peak (see boot.py), or None for a child not started by it.
        self.peak_rss_mb = int(peak_kib) / 1024 if peak_kib else None

    def _wait(self, pid: int, sampler: Sampler | None):
        self.slices = []
        if sampler is None:
            _, status, usage = os.wait4(pid, 0)
            self.end = time.monotonic()
            self.slices.append((self.start, self.end, None, None))
            return status, usage
        began, before = self.start, sampler.last
        exited = os.pidfd_open(pid)
        try:
            while True:
                if select.select([exited], [], [], SLICE_S)[0]:
                    _, status, usage = os.wait4(pid, 0)
                    self.end = time.monotonic()
                else:
                    os.kill(pid, signal.SIGSTOP)
                    self.end = time.monotonic()
                    _, status, usage = os.wait4(pid, os.WUNTRACED)
                after = sampler.sample()
                self.slices.append((began, self.end, before, after))
                if not os.WIFSTOPPED(status):
                    return status, usage
                began, before = time.monotonic(), after
                os.kill(pid, signal.SIGCONT)
        finally:
            os.close(exited)


class Sampler:
    """Probes the host's speed between slices of workload runs, and takes a
    set-up sample each time."""

    def __init__(self):
        self.probes: list[float] = []
        self.setup_samples: list[float] = []
        self.run_setup()  # unrecorded: fills the page cache and the byte-code cache
        self.sample()

    def run_setup(self) -> float:
        child = Child([sys.executable, "-c", SETUP_CODE])
        if child.code != 0:
            raise SystemExit(f"perfbench: importing braidhooks.cli failed (exit {child.code})")
        return child.wall_s

    def setup_s(self) -> float:
        """Median set-up seconds, each sample scaled by the probe just before
        it to the speed at which the probe takes ``reference.SECONDS``."""
        return statistics.median(s / p * reference.SECONDS
                                 for s, p in zip(self.setup_samples, self.probes))

    def sample(self) -> float:
        """Run the probe once in this process; return its seconds."""
        start = time.perf_counter()
        result = reference.probe()
        self.last = time.perf_counter() - start
        if result != reference.CHECKSUM:
            raise SystemExit(f"perfbench: the reference probe returned {result}")
        self.probes.append(self.last)
        self.setup_samples.append(self.run_setup())
        return self.last


def machine(load_at_start: tuple[float, ...]) -> dict:
    """The machine a record was measured on."""
    info = {
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": platform.processor() or platform.machine(),
        "load_avg_start": load_at_start,
        "load_avg_end": os.getloadavg(),
    }
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}_cache"] = (index / "size").read_text().strip()
    except OSError:
        pass  # not Linux: the record keeps what the platform module knows
    return info


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it, or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    rank = len(ordered) - 10
    return {"percentile": round(100 * rank / len(ordered), 1),
            "value": ordered[rank - 1], "samples": len(ordered)}


def in_probes(child: Child, until: float = float("inf")) -> float:
    """The child's running time, up to the monotonic time ``until``, in probe
    units: each slice divided by the mean of the probes just before and
    just after it."""
    return sum(max(0.0, min(end, until) - began) / ((before + after) / 2)
               for began, end, before, after in child.slices)


class Measure:
    """Untraced runs of one workload, checked against its golden values.

    Only runs that pass enter the metrics; the others count in ``failed``.
    """

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.samples: list[Child] = []
        self.failed = 0
        self.objects = workloads.objects(workload, seed)

    def run_once(self, sampler: Sampler) -> None:
        child = Child(self.workload.argv(sys.executable, self.seed), sampler)
        problems = workloads.check(self.workload, self.seed, child.code, child.out)
        if child.peak_rss_mb is None:
            problems.append("the child recorded no peak resident size")
        if problems:
            self.failed += 1
            print(f"FAIL {self.workload.name} seed {self.seed}: {'; '.join(problems)}",
                  file=sys.stderr)
        else:
            self.samples.append(child)

    def metrics(self, sampler: Sampler) -> dict[str, float]:
        """Medians over the passing runs, their times in probe units."""
        wall = [in_probes(c) for c in self.samples]
        wall_ref = statistics.median(wall)
        return {
            "wall_ref": wall_ref,
            "cpu_ref": statistics.median(c.cpu_s * w / c.wall_s
                                         for c, w in zip(self.samples, wall)),
            "objects_per_ref": self.objects / wall_ref,
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in self.samples),
            "setup_s": sampler.setup_s(),
        }

    def record(self, sampler: Sampler) -> dict:
        walls = [c.wall_s for c in self.samples]
        rec = {
            "workload": self.workload.name,
            "seed": self.seed,
            "objects": self.objects,
            "objects_are": self.workload.objects,
            "attempted": len(self.samples) + self.failed,
            "failed": self.failed,
            "wall_s_samples": walls,
            "wall_ref_samples": [in_probes(c) for c in self.samples],
            "cpu_s_samples": [c.cpu_s for c in self.samples],
            "peak_rss_mb_samples": [c.peak_rss_mb for c in self.samples],
            "probe_s_samples": sampler.probes,
            "setup_s_samples": sampler.setup_samples,
        }
        if self.samples:
            wall = statistics.median(walls)
            rec["raw"] = {"wall_s": wall, "cpu_s": statistics.median(rec["cpu_s_samples"]),
                          "objects_per_s": self.objects / wall,
                          "probe_s": statistics.median(sampler.probes),
                          "setup_s": statistics.median(sampler.setup_samples)}
            rec["wall_s_tail"] = tail(walls)
            rec["metrics"] = self.metrics(sampler)
        return rec


def run_untraced(names: list[str], seed: int, seconds: float) -> tuple[list[dict], int, int]:
    """Run the workloads in turn, each run sliced by probes, until
    ``seconds`` is used up.

    With several workloads, each round runs every one once, and the order
    alternates between rounds, so that the host's noise falls on all alike.
    """
    measures = [Measure(workloads.WORKLOADS[n], seed) for n in names]
    start = time.monotonic()
    sampler = Sampler()
    round_no = 0
    while True:
        for m in measures if round_no % 2 == 0 else reversed(measures):
            m.run_once(sampler)
        round_no += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / round_no > seconds:
            break
    records = [m.record(sampler) for m in measures]
    return records, sum(r["attempted"] for r in records), sum(r["failed"] for r in records)


def traced_child(workload: workloads.Workload, seed: int,
                 sampler: Sampler) -> tuple[Child, dict]:
    child = Child([sys.executable, str(HERE / "tracing.py"),
                   "--workload", workload.name, "--seed", str(seed)], sampler)
    if child.code != 0:
        return child, {}
    return child, json.loads(child.out)


def run_traced(names: list[str], seed: int, repeats: int = 1) -> tuple[list[dict], int, int]:
    """One untraced and ``repeats`` traced runs of each workload.

    A traced run fails if its output differs from the untraced run's, or if
    an exact count of a layer the workload exercises differs from its
    golden value (``workloads.traced_golden``).
    """
    records, attempted, failed = [], 0, 0
    sampler = Sampler()
    for name in names:
        workload = workloads.WORKLOADS[name]
        plain = Child(workload.argv(sys.executable, seed), sampler)
        problems = workloads.check(workload, seed, plain.code, plain.out)
        if problems:
            print(f"FAIL {name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
        attempted += 1
        failed += bool(problems)
        digest = hashlib.sha256(plain.out).hexdigest()
        golden = workloads.traced_golden(workload, seed)
        traced = []
        for _ in range(repeats):
            child, report = traced_child(workload, seed, sampler)
            problems = []
            if child.code != 0:
                problems.append(f"traced run exited {child.code}")
            elif report["exit_code"] != plain.code or report["output_sha256"] != digest:
                problems.append("traced output differs from the untraced run")
            else:
                metrics = report["metrics"]
                problems += [f"{key} = {metrics[key]}, expected {value}"
                             for key, value in golden.items() if metrics[key] != value]
                # In probe units, like wall_ref, then in seconds at this run's median probe.
                extra = in_probes(child, report["workload_end"]) - in_probes(plain)
                metrics["trace.overhead_s"] = extra * statistics.median(sampler.probes)
                traced.append(metrics)
            if problems:
                print(f"FAIL traced {name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
            attempted += 1
            failed += bool(problems)
        records.append({"workload": name, "seed": seed, "objects": workloads.objects(workload, seed),
                        "objects_are": workload.objects,
                        "untraced_wall_s": plain.wall_s,
                        "untraced_wall_ref": in_probes(plain), "traced": traced})
    return records, attempted, failed


def self_test(records: list[dict]) -> list[str]:
    """Problems found by comparing two traced runs of each workload."""
    problems = []
    for rec in records:
        runs = rec["traced"]
        if len(runs) != 2:
            problems.append(f"{rec['workload']}: a traced run failed")
            continue
        for key in EXACT_COUNTS:
            if runs[0][key] != runs[1][key]:
                problems.append(f"{rec['workload']}: {key} {runs[0][key]} != {runs[1][key]}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (poset-edges)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time for untraced runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run each traced workload twice and compare exact counts")
    args = parser.parse_args(argv)

    if not (SRC / "braidhooks" / "cli.py").is_file():
        print(f"perfbench: no braidhooks sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    load_at_start = os.getloadavg()
    # One CPU for this process and every child, so that the probe and the
    # workload it scales run on the same CPU: on a shared host, each CPU
    # slows down on its own.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.self_test:
        records, attempted, failed = run_traced(names, args.seed, repeats=2)
        problems = self_test(records)
        for line in problems:
            print(f"FAIL self-test {line}", file=sys.stderr)
        if not problems and not failed:
            print("self-test: two traced runs agree on every exact count, and their"
                  " output is byte-identical to the untraced run's")
        failed += len(problems)
        metrics = {}
    elif args.trace:
        records, attempted, failed = run_traced(names, args.seed)
        metrics = {}
        for rec in records:
            for name, value in (rec["traced"][0] if rec["traced"] else {}).items():
                metrics[name if len(names) == 1 else f"{rec['workload']}.{name}"] = (name, value)
    else:
        records, attempted, failed = run_untraced(names, args.seed, args.seconds)
        metrics = {}
        for rec in records:
            for name, value in rec.get("metrics", {}).items():
                metrics[name if len(names) == 1 else f"{rec['workload']}.{name}"] = (name, value)
    unit = units()
    metrics = {key: {"value": value, "unit": unit[name]} for key, (name, value) in metrics.items()}

    info = machine(load_at_start)
    with open(OUT / "records.jsonl", "a") as handle:
        for rec in records:
            handle.write(json.dumps(dict(rec, trace=args.trace, machine=info)) + "\n")
    print_table(records, info, args.trace or args.self_test, unit)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def print_table(records: list[dict], info: dict, traced: bool, unit: dict[str, str]) -> None:
    print(f"machine: {info}")
    for rec in records:
        head = (f"{rec['workload']}  seed {rec['seed']}  objects {rec['objects']} "
                f"{rec['objects_are']}")
        if traced:
            print(f"{head}  untraced wall {rec['untraced_wall_s']:.3f} s"
                  f" ({rec['untraced_wall_ref']:.2f} ref)")
            for metrics in rec["traced"]:
                for name, value in metrics.items():
                    print(f"  {name:34s} {value:.6g} {unit[name]}")
            continue
        print(f"{head}  runs {rec['attempted']}  failed {rec['failed']} "
              f"(fail_rate {rec['failed'] / rec['attempted']:.3g})")
        if "metrics" not in rec:
            continue
        for name, value in rec["metrics"].items():
            print(f"  {name:16s} {value:.6g} {unit[name]}")
        raw = rec["raw"]
        print(f"  raw: wall_s {raw['wall_s']:.6g} s  cpu_s {raw['cpu_s']:.6g} s  objects_per_s"
              f" {raw['objects_per_s']:.6g} 1/s  probe {raw['probe_s']:.6g} s"
              f"  setup_s {raw['setup_s']:.6g} s")
        spot = rec["wall_s_tail"]
        print("  wall_s tail     " + (
            f"p{spot['percentile']} {spot['value']:.6g} s of {spot['samples']} runs" if spot
            else f"needs 11 passing runs, have {len(rec['wall_s_samples'])}"))


if __name__ == "__main__":
    sys.exit(main())
