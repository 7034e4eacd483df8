"""Quivers, rational representations and their homological invariants.

Vertices are the integers 1..n. A representation assigns a dimension to each
vertex and a matrix to each arrow, with the matrix for an arrow s -> t of
shape dims[t] x dims[s]. Hom and Ext^1 dimensions come from the intertwining
linear system of the pair, read as a two-term complex; this is valid because
path algebras are hereditary.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import ParseError
from .linalg import RatMatrix

_ZERO = Fraction(0)


class Arrow(NamedTuple):
    name: str
    source: int
    target: int


class Quiver(namedtuple("Quiver", "vertex_count arrows")):
    """Finite directed multigraph; multi-arrows and loops are permitted."""

    __slots__ = ()

    def __new__(cls, vertex_count: int, arrows: Sequence[Arrow]) -> "Quiver":
        if vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        arrows = tuple(arrows)
        seen = set()
        for a in arrows:
            if not (1 <= a.source <= vertex_count):
                raise ValueError(f"arrow {a.name!r} has source {a.source} out of range")
            if not (1 <= a.target <= vertex_count):
                raise ValueError(f"arrow {a.name!r} has target {a.target} out of range")
            if a.name in seen:
                raise ValueError(f"duplicate arrow id {a.name!r}")
            seen.add(a.name)
        return tuple.__new__(cls, (vertex_count, arrows))


class Representation:
    """Per-vertex dimensions plus one rational matrix per arrow, in arrow order."""

    __slots__ = ("quiver", "dims", "matrices")

    def __init__(
        self,
        quiver: Quiver,
        dims: Sequence[int],
        matrices: Sequence[RatMatrix],
    ) -> None:
        dims = tuple(int(d) for d in dims)
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
        self.quiver = quiver
        self.dims = dims
        self.matrices = mats

    def total_dim(self) -> int:
        return sum(self.dims)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Representation):
            return NotImplemented
        return (
            self.quiver == other.quiver
            and self.dims == other.dims
            and self.matrices == other.matrices
        )

    def __hash__(self) -> int:
        return hash((self.quiver, self.dims, self.matrices))

    def __repr__(self) -> str:
        return f"Representation(dims={self.dims})"


def _require_same_quiver(v: Representation, w: Representation) -> None:
    if v.quiver != w.quiver:
        raise ParseError("representations live over different quivers")


def _hom_system(v: Representation, w: Representation) -> tuple[int, int, RatMatrix]:
    """Intertwining system f(t) V(a) = W(a) f(s) over all arrows.

    Unknowns are the entries of the vertex blocks f(i), ordered by vertex and
    then row-major; returns (unknowns, equations, system matrix).
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
    sysmat = RatMatrix(len(rows), total, (x for row in rows for x in row))
    return total, len(rows), sysmat


def hom_dim(v: Representation, w: Representation) -> int:
    """Dimension of the space of morphisms v -> w."""
    _require_same_quiver(v, w)
    unknowns, _, sysmat = _hom_system(v, w)
    return unknowns - sysmat.rank()


def ext1_dim(v: Representation, w: Representation) -> int:
    """Dimension of the first extension space of v by w."""
    _require_same_quiver(v, w)
    _, equations, sysmat = _hom_system(v, w)
    return equations - sysmat.rank()


def euler_form(quiver: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """Bilinear form sum_i d_i e_i - sum_arrows d_source e_target.

    Equals hom_dim - ext1_dim for representations with these dimension
    vectors, since the path algebra is hereditary.
    """
    if len(d) != quiver.vertex_count or len(e) != quiver.vertex_count:
        raise ParseError(
            f"dimension vectors must have length {quiver.vertex_count}"
        )
    value = sum(int(a) * int(b) for a, b in zip(d, e))
    for arrow in quiver.arrows:
        value -= int(d[arrow.source - 1]) * int(e[arrow.target - 1])
    return value


def orbit_dim(v: Representation) -> int:
    """Dimension of the isomorphism-class orbit: sum dims^2 - hom_dim(v, v)."""
    return sum(d * d for d in v.dims) - hom_dim(v, v)
