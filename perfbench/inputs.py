"""Seeded inputs built in benchmark code, independently of quiverdeg.

Window classes are lists of canonical windows ``(i, j)`` with ``1 <= i <= n``,
sorted. ``realization`` writes the documented standard shift basis of a class
(README, "File formats"; ``windows.realize``) without calling the package, so
it serves as an oracle for ``realize``. ``change_basis`` conjugates every
vertex space by a seeded unit-triangular integer matrix whose inverse comes
from forward substitution here, so elimination sees entries other than 0/1.
"""

from __future__ import annotations

import json
import random


def residue(value: int, n: int) -> int:
    return (value - 1) % n + 1


def canonical_dumps(obj) -> str:
    """The documented canonical JSON: sorted keys, fixed separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def canonical_class(n: int, windows) -> list[tuple[int, int]]:
    out = []
    for i, j in windows:
        shift = residue(i, n) - i
        out.append((i + shift, j + shift))
    return sorted(out)


def windows_obj(n: int, windows) -> dict:
    return {"n": n, "windows": [[i, j] for i, j in windows]}


def dim_vector(n: int, windows) -> list[int]:
    dims = [0] * n
    for i, j in windows:
        for index in range(i, j + 1):
            dims[residue(index, n) - 1] += 1
    return dims


def euler_form(n: int, d, e) -> int:
    """sum_v d_v e_v minus, per arrow v -> v-1, d_v e_(v-1)."""
    value = sum(a * b for a, b in zip(d, e))
    for v in range(1, n + 1):
        value -= d[v - 1] * e[residue(v - 1, n) - 1]
    return value


def _quiver_obj(n: int) -> dict:
    return {
        "vertex_count": n,
        "arrows": [
            {"id": f"a{v}", "source": v, "target": residue(v - 1, n)}
            for v in range(1, n + 1)
        ],
    }


def realization(n: int, windows) -> dict:
    """Representation file of a class in the standard shift basis.

    Basis vectors are the integers inside each window, numbered per vertex in
    window order; the arrow out of vertex v sends index l to l-1 and kills
    each window's bottom index.
    """
    counts = [0] * (n + 1)
    position = {}
    for idx, (i, j) in enumerate(windows):
        for index in range(i, j + 1):
            v = residue(index, n)
            position[idx, index] = counts[v]
            counts[v] += 1
    dims = counts[1:]
    matrices = {}
    for v in range(1, n + 1):
        target = residue(v - 1, n)
        rows, cols = dims[target - 1], dims[v - 1]
        mat = [[0] * cols for _ in range(rows)]
        for idx, (i, j) in enumerate(windows):
            for index in range(i + 1, j + 1):
                if residue(index, n) == v:
                    mat[position[idx, index - 1]][position[idx, index]] = 1
        matrices[f"a{v}"] = mat
    return {"quiver": _quiver_obj(n), "dims": dims, "matrices": matrices}


def _unit_lower(rng: random.Random, size: int) -> list[list[int]]:
    return [
        [1 if a == b else (rng.randint(-2, 2) if b < a else 0) for b in range(size)]
        for a in range(size)
    ]


def _inverse_unit_lower(p: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unit lower-triangular integer matrix."""
    size = len(p)
    inv = [[0] * size for _ in range(size)]
    for col in range(size):
        for row in range(size):
            acc = 1 if row == col else 0
            for k in range(row):
                acc -= p[row][k] * inv[k][col]
            inv[row][col] = acc
    return inv


def _matmul(a, b, rows: int, inner: int, cols: int):
    return [
        [sum(a[r][k] * b[k][c] for k in range(inner)) for c in range(cols)]
        for r in range(rows)
    ]


def change_basis(rng: random.Random, rep: dict) -> dict:
    """Conjugate each arrow matrix: P_target * M * P_source^-1."""
    n = rep["quiver"]["vertex_count"]
    dims = rep["dims"]
    p = [_unit_lower(rng, d) for d in dims]
    p_inv = [_inverse_unit_lower(m) for m in p]
    matrices = {}
    for v in range(1, n + 1):
        t = residue(v - 1, n)
        rows, cols = dims[t - 1], dims[v - 1]
        mat = rep["matrices"][f"a{v}"]
        left = _matmul(p[t - 1], mat, rows, rows, cols)
        matrices[f"a{v}"] = _matmul(left, p_inv[v - 1], rows, cols, cols)
    return {"quiver": rep["quiver"], "dims": list(dims), "matrices": matrices}

