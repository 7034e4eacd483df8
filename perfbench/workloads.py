"""The three workloads and the checks on their outputs.

Each workload runs as a closed loop with one client in one process. A pass
runs the workload's fixed inputs once; ``prepare`` builds those inputs from
the seed, loads the references and warms up. Outputs are checked against
references recorded by ``make_refs.py`` or against independent oracles; an
op fails on an exception, a nonzero exit or a wrong output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import inputs

ROOT = Path(__file__).resolve().parents[1]
REFS = ROOT / "perfbench" / "refs"
SUBPROCESS_TIMEOUT_S = 120


def load_ref(name: str):
    with open(REFS / name, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Ops:
    """Per-op latencies, failures and the classify verdict tally of a run."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.classified = 0
        self.decided = 0
        self.errors: list[str] = []

    def record(self, ms: float, problems: list[str]) -> None:
        self.attempted += 1
        self.latencies_ms.append(ms)
        if problems:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("; ".join(problems))

    def verdicts(self, classified: int, decided: int) -> None:
        self.classified += classified
        self.decided += decided


class Workload:
    """A pass runs in this process; the traced run replays the same pass."""

    def replay_pass(self, ops: Ops) -> None:
        self.run_pass(ops)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB


def run_inprocess(args: list[str]) -> tuple[int, str, str]:
    """Call the click group ``quiverdeg.cli.main`` with stdout captured."""
    from quiverdeg import cli

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=list(args), prog_name="quiverdeg", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # any crash is a failed op, not a benchmark crash
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def _timed_inprocess(args):
    t0 = perf_counter()
    code, out, err = run_inprocess(args)
    return (perf_counter() - t0) * 1000, code, out, err


def _exit_problems(code: int, err: str) -> list[str]:
    return [] if code == 0 else [f"exit {code}: {err.strip()[-300:]}"]


# ---------------------------------------------------------------- scan

_ROW = re.compile(r"^\s*(\d+) (\(\S*\))\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)$")
_TOTAL = re.compile(r"^\s+TOTAL\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)$")


def parse_scan(text: str) -> dict:
    """Rows, totals and unresolved pairs of the ``scan`` table."""
    lines = text.splitlines()
    rows, unresolved, totals = [], [], None
    for line in lines[1:]:
        if m := _ROW.match(line):
            n, dim, *counts = m.groups()
            rows.append([int(n), dim, *map(int, counts)])
        elif m := _TOTAL.match(line):
            totals = list(map(int, m.groups()))
        elif line.startswith("  n="):
            unresolved.append(line.strip())
    return {
        "rows": rows,
        "totals": totals,
        "unresolved": unresolved,
        "no_c_line": bool(lines) and lines[-1] == "no C-type labels emitted",
    }


def check_scan(got: dict, ref: dict) -> list[str]:
    """Counts match the reference; Unresolved may only shrink into Reg/A.

    Row fields: n, dim, classes, codim2, Reg, A_r, Unres.
    """
    problems = []
    if not got["no_c_line"]:
        problems.append("line 'no C-type labels emitted' missing")
    if [r[:4] for r in got["rows"]] != [r[:4] for r in ref["rows"]]:
        problems.append("per-row n/dim/classes/codim2 differ from the reference")
    for row, ref_row in zip(got["rows"], ref["rows"]):
        _, dim, _, codim2, reg, a, unres = row
        if reg + a + unres != codim2:
            problems.append(f"row {dim}: Reg + A + Unres != codim2")
        if unres > ref_row[6] or reg < ref_row[4] or a < ref_row[5]:
            problems.append(f"row {dim}: verdict counts moved away from Reg/A")
    if not set(got["unresolved"]) <= set(ref["unresolved"]):
        problems.append("an Unresolved pair is not in the reference set")
    totals = got["totals"]
    if totals is None or len(got["unresolved"]) != totals[4]:
        problems.append("TOTAL line missing or unresolved list length differs")
    elif totals != [sum(r[k] for r in got["rows"]) for k in range(2, 7)]:
        problems.append("TOTAL line does not add up")
    return problems


class Scan(Workload):
    """``scan --max-n 3 --max-dim 8`` in-process; fixed input, seed unused."""

    name = "scan"
    args = ["scan", "--max-n", "3", "--max-dim", "8"]

    def prepare(self, seed: int, work: Path) -> None:
        self.ref = load_ref("scan.json")
        code, _, err = run_inprocess(["scan", "--max-n", "2", "--max-dim", "3"])
        if code != 0:
            raise RuntimeError(f"warm-up scan failed: {err}")

    def run_pass(self, ops: Ops) -> None:
        ms, code, out, err = _timed_inprocess(self.args)
        problems = _exit_problems(code, err)
        if not problems:
            got = parse_scan(out)
            problems = check_scan(got, self.ref)
            if got["totals"]:
                _, codim2, reg, a, _ = got["totals"]
                ops.verdicts(codim2, reg + a)
        ops.record(ms, problems)


# --------------------------------------------------------------- hasse


class Hasse(Workload):
    """Annotated ``hasse`` on (4,4,4); fixed input, seed unused.

    A pass is one command, JSON and DOT in turn, JSON first. A pass of both
    formats takes 12 to 19 s on a 2-core shared host, so a 35 s run fitted
    one or two of them; one command per pass gives the run's mean four or
    five samples. The traced run replays both formats per pass, so each
    traced pass reaches the serializers of both.
    """

    name = "hasse"
    FORMATS = ("json", "dot")

    @staticmethod
    def _args(dim: str, fmt: str) -> list[str]:
        return ["hasse", "--n", "3", "--dim", dim, "--annotate", "--jobs", "1",
                "--format", fmt]

    def prepare(self, seed: int, work: Path) -> None:
        self.ref = load_ref("hasse.json")
        self.formats = itertools.cycle(self.FORMATS)
        for fmt in self.FORMATS:
            code, _, err = run_inprocess(self._args("2,2,2", fmt))
            if code != 0:
                raise RuntimeError(f"warm-up hasse failed: {err}")

    def _command(self, fmt: str, ops: Ops) -> None:
        ms, code, out, err = _timed_inprocess(self._args(self.ref["dim"], fmt))
        problems = _exit_problems(code, err)
        if not problems and sha256(out) != self.ref[fmt]["sha256"]:
            problems.append(f"{fmt} output differs from the reference bytes")
        if not problems and fmt == "json":
            codim2 = [e for e in json.loads(out)["edges"] if e["codim"] == 2]
            decided = sum(e["label"] == "Reg" or e["label"].startswith("A")
                          for e in codim2)
            ops.verdicts(len(codim2), decided)
        ops.record(ms, problems)

    def run_pass(self, ops: Ops) -> None:
        self._command(next(self.formats), ops)

    def replay_pass(self, ops: Ops) -> None:
        for fmt in self.FORMATS:
            self._command(fmt, ops)


# ----------------------------------------------------------------- cli

# Ops per pass by command; classify takes one pair from the Unresolved part
# of the pool and the rest from the decided part, so decided_ratio does not
# depend on the seed (7/8 at the commit that recorded the references).
CLASSIFY_DECIDED, CLASSIFY_UNRESOLVED = 7, 1
PER_COMMAND = {"codim": 2, "degenerates": 2, "hom": 2, "ext": 2, "decompose": 2,
               "realize": 1, "hasse": 1}
STARTUP_REPEATS = 7
PEAK_MARK = "perfbench-peak-rss-kib"

# Runs quiverdeg.cli as __main__ the way ``python -m`` does, then reports the
# process's own peak RSS. getrusage cannot: on Linux a child's ru_maxrss starts
# at its parent's peak, because exec records the old address space's mark.
CLI_MAIN = f"""\
import runpy, sys
try:
    runpy.run_module("quiverdeg.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{PEAK_MARK} " + peak + "\\n")
"""


def subprocess_env(pycache: Path) -> dict:
    """Users' warm install: bytecode cached, but outside ``src/``."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Cli(Workload):
    """One quiverdeg.cli process at a time over a seeded mix of commands."""

    name = "cli"
    peak_kib = 0

    def prepare(self, seed: int, work: Path) -> None:
        from quiverdeg import formats, windows

        work.mkdir(parents=True)
        self.env = subprocess_env(work / "pycache")
        rng = random.Random(seed)
        pool = load_ref("pairs.json")
        hasse_refs = load_ref("hasse_small.json")
        decided = [p for p in pool if p["verdict"] != "Unresolved"]
        unresolved = [p for p in pool if p["verdict"] == "Unresolved"]
        self.commands = []
        counter = itertools.count()

        def write(obj) -> str:
            path = work / f"in{next(counter)}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            return str(path)

        def pair_files(p):
            return write(inputs.windows_obj(p["n"], p["m"])), write(
                inputs.windows_obj(p["n"], p["nn"]))

        def add(args, expected=None, sha=None, trace=None):
            self.commands.append({"args": args, "expected": expected, "sha": sha,
                                  "trace": trace})

        for p in rng.sample(decided, CLASSIFY_DECIDED) + rng.sample(
                unresolved, CLASSIFY_UNRESOLVED):
            trace = str(work / f"trace{next(counter)}.json")
            add(["classify", *pair_files(p), "--trace", trace], p["verdict"] + "\n",
                trace=trace)
        for p in rng.sample(decided, PER_COMMAND["codim"]):
            add(["codim", *pair_files(p)], "2\n")
        p, q = rng.sample(pool, PER_COMMAND["degenerates"])
        add(["degenerates", *pair_files(p)], "true\n")
        add(["degenerates", *reversed(pair_files(q))], "false\n")
        for kind in ("hom", "ext"):
            for p in rng.sample(pool, PER_COMMAND[kind]):
                m = formats.windows_from_obj(inputs.windows_obj(p["n"], p["m"]))
                nn = formats.windows_from_obj(inputs.windows_obj(p["n"], p["nn"]))
                hom = windows.multiset_hom_dim(m, nn)
                if kind == "ext":
                    hom -= inputs.euler_form(p["n"], inputs.dim_vector(p["n"], p["m"]),
                                             inputs.dim_vector(p["n"], p["nn"]))
                add([kind, *pair_files(p)], f"{hom}\n")
        for p in rng.sample(pool, PER_COMMAND["decompose"]):
            cls = p[rng.choice(("m", "nn"))]
            rep = inputs.change_basis(rng, inputs.realization(p["n"], cls))
            add(["decompose", write(rep)],
                inputs.canonical_dumps(inputs.windows_obj(p["n"], cls)))
        for p in rng.sample(pool, PER_COMMAND["realize"]):
            add(["realize", write(inputs.windows_obj(p["n"], p["m"]))],
                inputs.canonical_dumps(inputs.realization(p["n"], p["m"])))
        for ref in rng.sample(hasse_refs, PER_COMMAND["hasse"]):
            add(["hasse", "--n", str(ref["n"]), "--dim", ref["dim"], "--annotate",
                 "--format", "json"], sha=ref["sha256"])
        rng.shuffle(self.commands)
        # The first call compiles the bytecode into the fresh cache.
        first = Ops()
        self._op(self.commands[0], first, self._spawn)
        if first.failed:
            raise RuntimeError(f"first CLI call failed: {first.errors}")

    def _spawn(self, args):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_MAIN, *args], env=self.env,
            cwd=ROOT, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S)
        ms = (perf_counter() - t0) * 1000
        err, _, peak = proc.stderr.rstrip("\n").rpartition(f"\n{PEAK_MARK} ")
        self.peak_kib = max(self.peak_kib, int(peak) if peak.isdigit() else 0)
        return ms, proc.returncode, proc.stdout, err

    def peak_rss_mb(self) -> float:
        return self.peak_kib / 1024

    def _op(self, cmd: dict, ops: Ops, call) -> None:
        if cmd["trace"]:
            Path(cmd["trace"]).unlink(missing_ok=True)
        ms, code, out, err = call(cmd["args"])
        problems = _exit_problems(code, err)
        if not problems:
            if cmd["sha"] is not None and sha256(out) != cmd["sha"]:
                problems.append(f"{cmd['args'][0]}: output differs from the reference")
            if cmd["expected"] is not None and out != cmd["expected"]:
                problems.append(
                    f"{cmd['args'][0]}: got {out[:80]!r}, want {cmd['expected'][:80]!r}")
        if cmd["trace"]:
            verdict = out.strip()
            ops.verdicts(1, verdict == "Reg" or verdict.startswith("A"))
            problems += self._trace_problems(cmd["trace"], out)
        ops.record(ms, problems)

    @staticmethod
    def _trace_problems(path: str, out: str) -> list[str]:
        try:
            with open(path, encoding="utf-8") as fh:
                result = json.load(fh)["result"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"classify --trace file unreadable: {exc!r}"]
        return [] if result == out.strip() else [f"trace result {result!r} != stdout"]

    def run_pass(self, ops: Ops) -> None:
        for cmd in self.commands:
            self._op(cmd, ops, self._spawn)

    def replay_pass(self, ops: Ops) -> None:
        """The same commands in-process, for the traced run."""
        for cmd in self.commands:
            self._op(cmd, ops, _timed_inprocess)

    def startup_ms(self) -> tuple[float, float]:
        """Median bare interpreter start, and ``import quiverdeg.cli`` on top.

        The two are measured alternately so that drift in the host's speed
        does not land on one of them only.
        """
        times = {"pass": [], "import quiverdeg.cli": []}
        for _ in range(STARTUP_REPEATS):
            for code, samples in times.items():
                t0 = perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                               check=True, timeout=SUBPROCESS_TIMEOUT_S)
                samples.append((perf_counter() - t0) * 1000)
        bare, loaded = (statistics.median(v) for v in times.values())
        return bare, loaded - bare


WORKLOADS = {"scan": Scan, "hasse": Hasse, "cli": Cli}
