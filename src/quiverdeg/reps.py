"""Quivers, rational representations and their homological invariants.

Vertices are the integers 1..n. A representation assigns a dimension to each
vertex and a matrix to each arrow, with the matrix for an arrow s -> t of
shape dims[t] x dims[s]. Hom and Ext^1 dimensions come from the intertwining
linear system of the pair, read as a two-term complex; this is valid because
path algebras are hereditary.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import ParseError, as_int
from .linalg import RatMatrix

_ZERO = Fraction(0)


class Arrow(NamedTuple):
    name: str
    source: int
    target: int


class Quiver(namedtuple("Quiver", "vertex_count arrows")):
    """Finite directed multigraph; multi-arrows and loops are permitted."""

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = None  # no tuple concatenation or repetition

    def __new__(cls, vertex_count: int, arrows: Sequence[Arrow]) -> "Quiver":
        count = _index(vertex_count)
        if count is None or count < 0:
            raise ParseError(f"vertex count {vertex_count!r} is not a nonnegative integer")
        checked, seen = [], set()
        for a in arrows:
            ends = _index(a.source), _index(a.target)
            for end, v, x in zip(("source", "target"), (a.source, a.target), ends):
                if x is None or not 1 <= x <= count:
                    raise ParseError(f"arrow {a.name!r} has {end} {v!r} out of range")
            if a.name in seen:
                raise ParseError(f"duplicate arrow id {a.name!r}")
            seen.add(a.name)
            checked.append(Arrow(a.name, *ends))
        return tuple.__new__(cls, (count, tuple(checked)))


def _index(value) -> int | None:
    """value by operator.index, as in errors.as_int, or None (Quiver's messages
    name the range as well)."""
    try:
        return operator.index(value)
    except TypeError:
        return None


class Representation(namedtuple("Representation", "quiver dims matrices")):
    """Per-vertex dimensions plus one rational matrix per arrow, in arrow order."""

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = None  # no tuple concatenation or repetition

    def __new__(
        cls, quiver: Quiver, dims: Sequence[int], matrices: Sequence[RatMatrix]
    ) -> "Representation":
        dims = tuple(as_int("dimension", d) for d in dims)
        if len(dims) != quiver.vertex_count:
            raise ParseError(
                f"expected {quiver.vertex_count} dimensions, got {len(dims)}"
            )
        if any(d < 0 for d in dims):
            raise ParseError("dimensions must be nonnegative")
        mats = tuple(matrices)
        if len(mats) != len(quiver.arrows):
            raise ParseError(
                f"expected {len(quiver.arrows)} matrices, got {len(mats)}"
            )
        for a, m in zip(quiver.arrows, mats):
            want = (dims[a.target - 1], dims[a.source - 1])
            if (m.rows, m.cols) != want:
                raise ParseError(
                    f"arrow {a.name!r} ({a.source}->{a.target}) needs a "
                    f"{want[0]}x{want[1]} matrix, got {m.rows}x{m.cols}"
                )
        return tuple.__new__(cls, (quiver, dims, mats))

    def total_dim(self) -> int:
        return sum(self.dims)

    def __repr__(self) -> str:
        return f"Representation(dims={self.dims})"


# The size caps of the whole library, declared here because every module that
# checks one (formats, degeneration, cli) imports this one.
MAX_RANK = 40
MAX_TOTAL_DIM = 40
MAX_HOM_ENTRIES = MAX_TOTAL_DIM**4


def check_cap(field: str, value: int, cap: int) -> None:
    """Reject a size above its cap before anything is built from it."""
    if value > cap:
        raise ParseError(f"{field} {value} exceeds the cap of {cap}")


def _check_hom_pair(v: Representation, w: Representation) -> None:
    """Same quiver, and at most MAX_HOM_ENTRIES entries (equations x unknowns)
    in the Hom system, whose arrow count no other cap bounds."""
    if v.quiver != w.quiver:
        raise ParseError("representations live over different quivers")
    dv, dw = v.dims, w.dims
    equations = sum(dw[a.target - 1] * dv[a.source - 1] for a in v.quiver.arrows)
    entries = equations * sum(x * y for x, y in zip(dv, dw))
    check_cap("Hom system entries", entries, MAX_HOM_ENTRIES)


def _hom_system(v: Representation, w: Representation) -> RatMatrix:
    """Intertwining system f(t) V(a) = W(a) f(s) over all arrows.

    Unknowns (the columns) are the entries of the vertex blocks f(i), ordered
    by vertex and then row-major; each row is one equation.
    """
    dv, dw = v.dims, w.dims
    offsets = []
    total = 0
    for i in range(len(dv)):
        offsets.append(total)
        total += dv[i] * dw[i]
    rows: list[list[Fraction]] = []
    for a, va, wa in zip(v.quiver.arrows, v.matrices, w.matrices):
        s, t = a.source - 1, a.target - 1
        for p in range(dw[t]):
            for q in range(dv[s]):
                row = [_ZERO] * total
                # f(t) V(a) contribution: coefficient of f(t)[p, r] is V(a)[r, q]
                for r in range(dv[t]):
                    c = va.at(r, q)
                    if c:
                        row[offsets[t] + p * dv[t] + r] += c
                # W(a) f(s) contribution: coefficient of f(s)[r, q] is -W(a)[p, r]
                for r in range(dw[s]):
                    c = wa.at(p, r)
                    if c:
                        row[offsets[s] + r * dv[s] + q] -= c
                rows.append(row)
    return RatMatrix(len(rows), total, (x for row in rows for x in row))


def hom_dim(v: Representation, w: Representation) -> int:
    """Dimension of the space of morphisms v -> w."""
    _check_hom_pair(v, w)
    sysmat = _hom_system(v, w)
    return sysmat.cols - sysmat.rank()


def ext1_dim(v: Representation, w: Representation) -> int:
    """Dimension of the first extension space of v by w."""
    _check_hom_pair(v, w)
    sysmat = _hom_system(v, w)
    return sysmat.rows - sysmat.rank()


def euler_form(quiver: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """Bilinear form sum_i d_i e_i - sum_arrows d_source e_target.

    Equals hom_dim - ext1_dim for representations with these dimension
    vectors, since the path algebra is hereditary.
    """
    if len(d) != quiver.vertex_count or len(e) != quiver.vertex_count:
        raise ParseError(
            f"dimension vectors must have length {quiver.vertex_count}"
        )
    d = [as_int("dimension vector entry", x) for x in d]
    e = [as_int("dimension vector entry", x) for x in e]
    value = sum(a * b for a, b in zip(d, e))
    for arrow in quiver.arrows:
        value -= d[arrow.source - 1] * e[arrow.target - 1]
    return value


def orbit_dim(v: Representation) -> int:
    """Dimension of the isomorphism-class orbit: sum dims^2 - hom_dim(v, v)."""
    return sum(d * d for d in v.dims) - hom_dim(v, v)
