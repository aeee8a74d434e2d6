"""Start one workload child and record its own peak resident size.

On Linux, ``os.wait4`` reports a child's ``ru_maxrss`` as at least the peak
of the process that spawned it, because the peak carries over through
``exec``; the generator's own size would then set a floor under every
workload's figure.  So the child reads its own ``VmHWM`` from
``/proc/self/status`` as it exits and writes it, in KiB, to the file named by
``PERFBENCH_PEAK_FILE``.

    python perfbench/boot.py cli ARGS...     # the braidhooks command line
    python perfbench/boot.py script PATH     # a library script, as __main__
"""

import atexit
import os
import runpy
import sys


def record_peak() -> None:
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.environ["PERFBENCH_PEAK_FILE"], "w") as out:
        out.write(peak)


if __name__ == "__main__":
    atexit.register(record_peak)
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "script":
        sys.argv = args
        runpy.run_path(args[0], run_name="__main__")
    else:
        from braidhooks.cli import main

        sys.exit(main(args))
