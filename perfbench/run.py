"""quiverdeg benchmark: three workloads, end-to-end metrics and a traced run.

Usage, from the root of a checkout (no install needed; ``src/`` is put on
the path):

    python3 perfbench/run.py --workload scan|hasse|cli \\
        --seed N --seconds S --trace 0|1

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. The line before it
records the run's environment, its fail ratio, its op latency
percentiles (no bound is set on them) and the first failures.
METRICS.md says what each metric means and which layer metric should move
which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # nothing written into src/ or perfbench/
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120

# Spans each workload must reach in the traced run; a zero count there means
# the tracer missed a call site or the command stopped doing its work.
REQUIRED_SPANS = {
    "scan": ["singularity.classify", "degeneration.enumerate_nilpotent",
             "degeneration.degenerates", "degeneration.codim",
             "windows.multiset_hom_dim", "windows.window_hom_dim", "cli.scan_rows"],
    "hasse": ["degeneration.hasse", "degeneration.enumerate_nilpotent",
              "degeneration.serialize", "singularity.classify",
              "windows.multiset_hom_dim", "formats.canonical_dumps"],
    "cli": ["formats.load", "formats.canonical_dumps", "singularity.classify",
            "degeneration.degenerates", "degeneration.codim", "degeneration.hasse",
            "reps.hom_dim", "reps.ext1_dim", "windows.realize", "windows.is_nilpotent",
            "windows.decompose_nilpotent", "linalg.rank", "linalg.matmul"],
}


def tail_quantile(samples: int) -> float:
    """0.9, or the highest quantile with ten samples beyond it (at least 0.5)."""
    return max(0.5, min(0.9, 1 - 10 / samples))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_seconds(name: str, seed: int, work: Path) -> float:
    """Median of ``SETUP_REPEATS`` set-ups, each in a fresh process."""
    times = []
    for k in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), name,
             str(seed), str(work / f"probe{k}")],
            capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S)
        times.append(float(probe.stdout.split()[-1]))
    return statistics.median(times)


def more_time(start: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, as long as the mean round so far, fits in ``seconds``.

    A run never starts a round it expects to finish late, so a run of 15 s
    passes does not overshoot ``seconds`` by most of a pass.
    """
    elapsed = perf_counter() - start
    return rounds == 0 or elapsed + elapsed / rounds <= seconds


def timed_passes(run_pass, ops, seconds: float) -> list[float]:
    """Passes while ``more_time`` allows (at least one); pass wall times."""
    walls = []
    start = perf_counter()
    while more_time(start, len(walls), seconds):
        gc.collect()
        t0 = perf_counter()
        run_pass(ops)
        walls.append(perf_counter() - t0)
    return walls


def end_to_end(workload, ops, seed: int, seconds: float, work: Path):
    setup_s = setup_seconds(workload.name, seed, work)
    workload.prepare(seed, work / "main")
    walls = timed_passes(workload.run_pass, ops, seconds)
    decided = ops.decided / ops.classified if ops.classified else 0.0
    return len(walls), {
        "setup_s": (setup_s, "s"),
        # The mean, not the median: the host's speed switches between a fast
        # and a slow state, and a median of passes jumps between the two.
        "wall_s": (statistics.fmean(walls), "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        "decided_ratio": (decided, "ratio"),
    }


def traced(workload, ops, seed: int, seconds: float, work: Path):
    """Alternate untraced and traced passes; per-pass medians of the spans.

    Returns the pass count, the per-layer metrics and the required spans
    that recorded no call.
    """
    workload.prepare(seed, work / "main")
    plain_ops = workloads.Ops()
    plain_walls, traced_walls, tracers = [], [], []
    start = perf_counter()
    while more_time(start, len(tracers), seconds):
        plain_walls += timed_passes(workload.replay_pass, plain_ops, 0)
        t = tracer.Tracer()
        t.install()
        try:
            traced_walls += timed_passes(workload.replay_pass, ops, 0)
        finally:
            t.uninstall()
        tracers.append(t)
    per_pass = [t.metrics() for t in tracers]
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(
        plain_walls)
    interpreter = importer = command = 0.0
    if workload.name == "cli":
        interpreter, importer = workload.startup_ms()
        command = statistics.median(plain_ops.latencies_ms)
    metrics.update({"cli.interpreter_ms": interpreter, "cli.import_ms": importer,
                    "cli.command_ms": command})
    ops.attempted += plain_ops.attempted
    ops.failed += plain_ops.failed
    ops.errors += plain_ops.errors
    silent = sorted({span for t in tracers for span in REQUIRED_SPANS[workload.name]
                     if span in t.installed and not t.calls[span]})
    return len(tracers), {k: (v, _unit(k)) for k, v in metrics.items()}, silent


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quiverdeg" / "__init__.py").is_file():
        print(f"error: no quiverdeg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    importlib.import_module("quiverdeg.cli")

    workload = workloads.WORKLOADS[args.workload]()
    ops = workloads.Ops()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    silent = []
    try:
        if args.trace:
            passes, metrics, silent = traced(workload, ops, args.seed, args.seconds, work)
        else:
            passes, metrics = end_to_end(workload, ops, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()  # only when no other run is using it

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "ops": ops.attempted,
        "op_p90_quantile": tail_quantile(ops.attempted),
        "op_latency_ms": None if args.trace else {
            "p50": percentile(ops.latencies_ms, 0.5),
            "p90": percentile(ops.latencies_ms, tail_quantile(ops.attempted)),
        },
        "fail_ratio": {"value": ops.failed / ops.attempted, "unit": "ratio"},
        "silent_spans": silent,
        "errors": ops.errors,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "env": {
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "cli_subprocess": "PYTHONDONTWRITEBYTECODE unset, PYTHONPYCACHEPREFIX "
                              "set to a fresh directory under .perfbench_tmp",
        },
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": ops.failed == 0 and not silent,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
