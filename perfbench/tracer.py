"""Outside-in tracing of quiverdeg's public functions.

The tracer replaces each traced function in every ``quiverdeg`` module
namespace that holds it, because the package binds names at import time
(``from .windows import window_hom_dim`` in ``degeneration``, ``from
.singularity import classify`` in ``cli``): patching only the defining module
would leave those call sites untraced. Methods of ``RatMatrix`` are patched on
the class. Nothing inside ``src/`` is edited; ``uninstall`` puts every
original object back.

A timed span records calls and self time: its wall time minus the time of
the traced spans it called. A counted span records calls only, because
timing a leaf called a million times per pass inflates the run several-fold
and charges the timer to its caller.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (span name, module, attribute, kind). kind is "time", "count" or "gen"
# (a generator function, timed across each resumption). Several attributes
# may feed one span; their calls and self times add up.
SPANS = [
    ("linalg.rank", "quiverdeg.linalg", "RatMatrix.rank", "time"),
    ("linalg.matmul", "quiverdeg.linalg", "RatMatrix.__matmul__", "time"),
    ("reps.hom_dim", "quiverdeg.reps", "hom_dim", "time"),
    ("reps.ext1_dim", "quiverdeg.reps", "ext1_dim", "time"),
    ("windows.window_hom_dim", "quiverdeg.windows", "window_hom_dim", "count"),
    ("windows.multiset_hom_dim", "quiverdeg.windows", "multiset_hom_dim", "time"),
    ("windows.realize", "quiverdeg.windows", "realize", "time"),
    ("windows.decompose_nilpotent", "quiverdeg.windows", "decompose_nilpotent", "time"),
    ("windows.is_nilpotent", "quiverdeg.windows", "is_nilpotent", "time"),
    ("degeneration.enumerate_nilpotent", "quiverdeg.degeneration", "enumerate_nilpotent", "time"),
    ("degeneration.hom_profile", "quiverdeg.degeneration", "hom_profile", "time"),
    ("degeneration.degenerates", "quiverdeg.degeneration", "degenerates", "time"),
    ("degeneration.codim", "quiverdeg.degeneration", "codim", "count"),
    ("degeneration.hasse", "quiverdeg.degeneration", "hasse", "time"),
    ("degeneration.serialize", "quiverdeg.degeneration", "to_dot", "time"),
    ("degeneration.serialize", "quiverdeg.degeneration", "to_json_obj", "time"),
    ("singularity.classify", "quiverdeg.singularity", "classify", "time"),
    ("formats.load", "quiverdeg.formats", "load_json", "time"),
    ("formats.load", "quiverdeg.formats", "load_windows", "time"),
    ("formats.load", "quiverdeg.formats", "load_rep", "time"),
    ("formats.load", "quiverdeg.formats", "load_rep_or_windows", "time"),
    ("formats.load", "quiverdeg.formats", "load_quiver", "time"),
    ("formats.canonical_dumps", "quiverdeg.formats", "canonical_dumps", "time"),
    ("cli.scan_rows", "quiverdeg.cli", "scan_rows", "gen"),
]

# Spans whose attribute may legitimately disappear (ROADMAP item 3 moves the
# scan loop out of cli.py); every other attribute must exist.
OPTIONAL = {("quiverdeg.cli", "scan_rows")}

STEP_KINDS = ("cancel", "socle", "top", "terminal")


def _rank_cells(args, result, extra):
    m = args[0]
    extra["linalg.rank.cells"] += m.rows * m.cols


def _classes(args, result, extra):
    extra["degeneration.enumerate_nilpotent.classes"] += len(result)


def _true(args, result, extra):
    extra["degeneration.degenerates.true"] += bool(result)


def _edges(args, result, extra):
    extra["degeneration.hasse.edges"] += len(result.edges)


def _steps(args, result, extra):
    verdict, trace = result
    for step in trace.steps:
        extra[f"singularity.steps.{step.kind}"] += 1
    extra["singularity.unresolved"] += verdict.kind == "Unresolved"


# Counts read off the arguments or the result of a call, outside its timing.
HOOKS = {
    "linalg.rank": _rank_cells,
    "degeneration.enumerate_nilpotent": _classes,
    "degeneration.degenerates": _true,
    "degeneration.hasse": _edges,
    "singularity.classify": _steps,
}


class Tracer:
    """Installs the wrappers, accumulates counts, restores the originals."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.extra: Counter = Counter()
        self.installed: set[str] = set()
        self._stack = [0.0]  # per open span: time spent in traced children
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, name, fn):
        calls, self_s, extra, stack = self.calls, self.self_s, self.extra, self._stack
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = stack.pop()
                calls[name] += 1
                self_s[name] += t1 - t0 - child
            if hook is not None:
                hook(args, result, extra)
            # The caller is charged neither this span nor the hook.
            stack[-1] += perf_counter() - t0
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - t0
                    self_s[name] += elapsed - stack.pop()
                    stack[-1] += elapsed
                yield item

        return wrapper

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "quiverdeg" or key.startswith("quiverdeg."))
        ]
        make = {"time": self._timed, "count": self._counted, "gen": self._generator}
        for name, module_name, attr, kind in SPANS:
            owner = sys.modules[module_name]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                attr = method
            original = getattr(owner, attr, None)
            if original is None:
                if (module_name, attr) in OPTIONAL:
                    continue
                raise AttributeError(f"{module_name} has no attribute {attr!r}")
            wrapper = make[kind](name, original)
            self.installed.add(name)
            if cls_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since construction."""
        calls, self_s, extra = self.calls, self.self_s, self.extra
        out = {
            "linalg.rank.calls": calls["linalg.rank"],
            "linalg.rank.self_s": self_s["linalg.rank"],
            "linalg.rank.cells": extra["linalg.rank.cells"],
            "linalg.matmul.calls": calls["linalg.matmul"],
            "linalg.matmul.self_s": self_s["linalg.matmul"],
            "reps.hom_dim.calls": calls["reps.hom_dim"],
            "reps.hom_dim.self_s": self_s["reps.hom_dim"],
            "reps.ext1_dim.self_s": self_s["reps.ext1_dim"],
            "windows.window_hom_dim.calls": calls["windows.window_hom_dim"],
            "windows.multiset_hom_dim.calls": calls["windows.multiset_hom_dim"],
            "windows.multiset_hom_dim.self_s": self_s["windows.multiset_hom_dim"],
            "windows.realize.self_s": self_s["windows.realize"],
            "windows.decompose_nilpotent.self_s": self_s["windows.decompose_nilpotent"],
            "windows.is_nilpotent.self_s": self_s["windows.is_nilpotent"],
            "degeneration.enumerate_nilpotent.self_s": self_s["degeneration.enumerate_nilpotent"],
            "degeneration.enumerate_nilpotent.classes": extra["degeneration.enumerate_nilpotent.classes"],
            "degeneration.hom_profile.calls": calls["degeneration.hom_profile"],
            "degeneration.hom_profile.self_s": self_s["degeneration.hom_profile"],
            "degeneration.degenerates.calls": calls["degeneration.degenerates"],
            "degeneration.degenerates.self_s": self_s["degeneration.degenerates"],
            "degeneration.degenerates.true_ratio": _ratio(
                extra["degeneration.degenerates.true"], calls["degeneration.degenerates"]
            ),
            "degeneration.codim.calls": calls["degeneration.codim"],
            "degeneration.hasse.self_s": self_s["degeneration.hasse"],
            "degeneration.hasse.edges": extra["degeneration.hasse.edges"],
            "degeneration.serialize.self_s": self_s["degeneration.serialize"],
            "singularity.classify.calls": calls["singularity.classify"],
            "singularity.classify.self_s": self_s["singularity.classify"],
        }
        for kind in STEP_KINDS:
            out[f"singularity.steps.{kind}"] = extra[f"singularity.steps.{kind}"]
        out["singularity.unresolved_ratio"] = _ratio(
            extra["singularity.unresolved"], calls["singularity.classify"]
        )
        out["formats.load.self_s"] = self_s["formats.load"]
        out["formats.canonical_dumps.self_s"] = self_s["formats.canonical_dumps"]
        out["cli.scan_rows.self_s"] = self_s["cli.scan_rows"]
        return out


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
