"""Time one set-up of a workload in a fresh process and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

A set-up is what a run does before its first timed pass: import quiverdeg
(from source; no bytecode is written), build the inputs from the seed, load
the references and warm up. ``run.py`` starts several probes and reports the
median as ``setup_s``, so its own process imports once and its peak RSS is
not inflated by repeated imports.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    name, seed, work = argv[1], int(argv[2]), Path(argv[3])
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    t0 = perf_counter()
    importlib.import_module("quiverdeg.cli")
    workloads.WORKLOADS[name]().prepare(seed, work)
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
