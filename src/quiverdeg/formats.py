"""JSON interchange formats for representations and window multisets.

Two file kinds exist. A representation file:

    {"quiver": {"vertex_count": 2,
                "arrows": [{"id": "a", "source": 1, "target": 2}]},
     "dims": [2, 3],
     "matrices": {"a": [[0, 1], ["1/2", 0], [0, 0]]}}

Matrix entries are integers or "p/q" strings (never floats), row-major as a
list of rows of shape dims[target] x dims[source]. A windows file:

    {"n": 2, "windows": [[1, 2], [2, 3]]}

with repeats encoding multiplicity; windows are accepted in any shift and
emitted canonical and sorted. Serialization is canonical (sorted keys, fixed
separators) so identical data round-trips byte for byte.

Sizes are checked against the caps of `reps` before anything is built from
a file: windows.n against MAX_RANK, and the total dimension (every window's
length, their sum, the sum of a representation's dims) against
MAX_TOTAL_DIM. Dense matrices, composite ranks and Hom systems grow with
these sizes, so an unchecked one-window file could exhaust memory. The
number of arrows is not capped, so `reps.hom_dim` and `reps.ext1_dim` check
the size of the Hom system themselves.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ParseError
from .linalg import RatMatrix, format_rational, parse_rational
from .reps import MAX_RANK, MAX_TOTAL_DIM, Arrow, Quiver, Representation, check_cap
from .windows import WindowMultiset, realize


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise ParseError(f"{context}: missing field {key!r}")
    return obj[key]


def _is_int(value) -> bool:
    """An int that is not a bool (JSON true/false must not read as 1/0)."""
    return isinstance(value, int) and not isinstance(value, bool)


def quiver_from_obj(obj: dict) -> Quiver:
    if not isinstance(obj, dict):
        raise ParseError("quiver: expected an object")
    count = _require(obj, "vertex_count", "quiver")
    if not _is_int(count) or count < 0:
        raise ParseError("quiver.vertex_count: expected a nonnegative integer")
    arrows_obj = _require(obj, "arrows", "quiver")
    if not isinstance(arrows_obj, list):
        raise ParseError("quiver.arrows: expected a list")
    arrows = []
    for idx, a in enumerate(arrows_obj):
        ctx = f"quiver.arrows[{idx}]"
        if not isinstance(a, dict):
            raise ParseError(f"{ctx}: expected an object")
        name = _require(a, "id", ctx)
        source = _require(a, "source", ctx)
        target = _require(a, "target", ctx)
        if not isinstance(name, str):
            raise ParseError(f"{ctx}.id: expected a string")
        if not _is_int(source) or not _is_int(target):
            raise ParseError(f"{ctx}: source and target must be integers")
        arrows.append(Arrow(name, source, target))
    try:
        return Quiver(count, tuple(arrows))
    except ParseError as exc:
        raise ParseError(f"quiver: {exc}") from exc


def quiver_to_obj(q: Quiver) -> dict:
    return {
        "vertex_count": q.vertex_count,
        "arrows": [
            {"id": a.name, "source": a.source, "target": a.target} for a in q.arrows
        ],
    }


def _matrix_from_obj(rows_obj, rows: int, cols: int, context: str) -> RatMatrix:
    if not isinstance(rows_obj, list) or len(rows_obj) != rows:
        raise ParseError(f"{context}: expected {rows} rows")
    entries = []
    for r, row in enumerate(rows_obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{context}: row {r} must have {cols} entries")
        for c, value in enumerate(row):
            try:
                entries.append(parse_rational(value))
            except ParseError as exc:
                raise ParseError(f"{context}[{r}][{c}]: {exc}") from exc
    return RatMatrix(rows, cols, entries)


def rep_from_obj(obj: dict) -> Representation:
    if not isinstance(obj, dict):
        raise ParseError("representation: expected an object")
    quiver = quiver_from_obj(_require(obj, "quiver", "representation"))
    dims_obj = _require(obj, "dims", "representation")
    if not isinstance(dims_obj, list) or not all(
        _is_int(d) and d >= 0 for d in dims_obj
    ):
        raise ParseError("dims: expected a list of nonnegative integers")
    if len(dims_obj) != quiver.vertex_count:
        raise ParseError(f"dims: expected {quiver.vertex_count} entries, one per vertex")
    check_cap("dims: total dimension", sum(dims_obj), MAX_TOTAL_DIM)
    matrices_obj = _require(obj, "matrices", "representation")
    if not isinstance(matrices_obj, dict):
        raise ParseError("matrices: expected an object keyed by arrow id")
    mats = []
    for a in quiver.arrows:
        if a.name not in matrices_obj:
            raise ParseError(f"matrices.{a.name}: missing")
        rows = dims_obj[a.target - 1]
        cols = dims_obj[a.source - 1]
        mats.append(
            _matrix_from_obj(matrices_obj[a.name], rows, cols, f"matrices.{a.name}")
        )
    extra = set(matrices_obj) - {a.name for a in quiver.arrows}
    if extra:
        raise ParseError(f"matrices: unknown arrow id {sorted(extra)[0]!r}")
    return Representation(quiver, dims_obj, mats)


def rep_to_obj(rep: Representation) -> dict:
    matrices = {}
    for a, m in zip(rep.quiver.arrows, rep.matrices):
        matrices[a.name] = [
            [format_rational(m.at(r, c)) for c in range(m.cols)]
            for r in range(m.rows)
        ]
    return {
        "quiver": quiver_to_obj(rep.quiver),
        "dims": list(rep.dims),
        "matrices": matrices,
    }


def windows_from_obj(obj: dict) -> WindowMultiset:
    if not isinstance(obj, dict):
        raise ParseError("windows: expected an object")
    n = _require(obj, "n", "windows")
    if not _is_int(n) or n < 1:
        raise ParseError("windows.n: expected a positive integer")
    check_cap("windows.n:", n, MAX_RANK)
    wins = _require(obj, "windows", "windows")
    if not isinstance(wins, list):
        raise ParseError("windows.windows: expected a list")
    pairs = []
    total = 0
    for idx, w in enumerate(wins):
        if (
            not isinstance(w, list)
            or len(w) != 2
            or not all(_is_int(x) for x in w)
        ):
            raise ParseError(f"windows.windows[{idx}]: expected a pair [i, j]")
        if w[0] > w[1]:
            raise ParseError(f"windows.windows[{idx}]: i > j")
        length = w[1] - w[0] + 1
        check_cap(f"windows.windows[{idx}]: length", length, MAX_TOTAL_DIM)
        total += length
        check_cap("windows.windows: total dimension", total, MAX_TOTAL_DIM)
        pairs.append((w[0], w[1]))
    return WindowMultiset(n, pairs)


def windows_to_obj(ms: WindowMultiset) -> dict:
    return {"n": ms.n, "windows": [[w.i, w.j] for w in ms.windows]}


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, undecodable bytes and integer
        # literals past the interpreter's digit limit; RecursionError deep nesting.
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def load_windows(path: str) -> WindowMultiset:
    return windows_from_obj(load_json(path))


def load_rep(path: str) -> Representation:
    return rep_from_obj(load_json(path))


def load_rep_or_windows(path: str):
    """Return a Representation from either file kind (windows are realized)."""
    obj = load_json(path)
    if isinstance(obj, dict) and "windows" in obj and "quiver" not in obj:
        return realize(windows_from_obj(obj))
    return rep_from_obj(obj)


def load_quiver(path: str) -> Quiver:
    """Accept a bare quiver object or any file with a 'quiver' field."""
    obj = load_json(path)
    if isinstance(obj, dict) and "quiver" in obj:
        return quiver_from_obj(obj["quiver"])
    return quiver_from_obj(obj)
