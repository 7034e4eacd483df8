"""Exact linear algebra over arbitrary-precision rationals.

Matrices are dense with `fractions.Fraction` entries and every result is
exact; no tolerance parameters exist anywhere in this module. Ranks are
computed by fraction-free (Bareiss) elimination with deterministic pivoting
(first nonzero entry in column order), so outputs are reproducible bit for
bit and intermediate values stay integral on integral input.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import ParseError, as_int

_ZERO = Fraction(0)
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int, a Fraction or a "p" or "p/q" string.

    Floats would silently lose exactness, so they are rejected. So are the
    decimals and exponents Fraction reads: "1e3000000" has 3,000,001 digits.
    """
    if isinstance(value, bool):
        raise ParseError(f"cannot interpret {value!r} as a rational")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if _RATIONAL.fullmatch(value.strip()):
                return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse rational from {value!r}") from exc
        raise ParseError(f"cannot parse rational from {value!r}")
    if isinstance(value, float):
        raise ParseError('floats are not accepted, use "p/q"')
    raise ParseError(f"cannot interpret {value!r} as a rational")


def format_rational(value: Fraction):
    """Emit an int for integral values, otherwise a "p/q" string."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


class RatMatrix(namedtuple("RatMatrix", "rows cols entries")):
    """A rows x cols matrix of rationals stored row-major.

    0 x m and m x 0 matrices are legal (and have rank 0).
    """

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = None  # no tuple concatenation or repetition

    def __new__(cls, rows: int, cols: int, entries: Iterable) -> "RatMatrix":
        rows, cols = as_int("matrix rows", rows), as_int("matrix cols", cols)
        if rows < 0 or cols < 0:
            raise ParseError("matrix dimensions must be nonnegative")
        ent = tuple(
            e if isinstance(e, Fraction) else parse_rational(e) for e in entries
        )
        if len(ent) != rows * cols:
            raise ParseError(f"expected {rows * cols} entries, got {len(ent)}")
        return tuple.__new__(cls, (rows, cols, ent))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row_list(self) -> list[list[Fraction]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ParseError("shape mismatch in matrix product")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [_ZERO] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            base = i * m
            for t, av in enumerate(arow):
                if av:
                    brow = b[t * m : (t + 1) * m]
                    for j in range(m):
                        bv = brow[j]
                        if bv:
                            out[base + j] += av * bv
        return RatMatrix(n, m, out)

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols}, {self.row_list()!r})"

    def _int_rows(self) -> list[list[int]]:
        # Clear denominators row by row; scaling a row does not change rank.
        out = []
        c = self.cols
        for i in range(self.rows):
            row = self.entries[i * c : (i + 1) * c]
            mult = lcm(*(e.denominator for e in row)) if row else 1
            out.append([e.numerator * (mult // e.denominator) for e in row])
        return out

    def rank(self) -> int:
        """Rank over the rationals via fraction-free elimination."""
        if self.rows == 0 or self.cols == 0:
            return 0
        return _bareiss_rank(self._int_rows(), self.cols)


def _bareiss_rank(rows: list[list[int]], ncols: int) -> int:
    """One-step Bareiss elimination on integer rows; returns the rank.

    The pivot is always the first nonzero entry scanning columns left to
    right and remaining rows top to bottom, so the computation (not just
    the result) is deterministic.
    """
    rank = 0
    prev = 1
    nrows = len(rows)
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
        piv_row = rows[rank]
        p = piv_row[col]
        for r in range(rank + 1, nrows):
            row = rows[r]
            x = row[col]
            if x:
                for c in range(col + 1, ncols):
                    row[c] = (p * row[c] - x * piv_row[c]) // prev
                row[col] = 0
            elif p != prev:
                for c in range(col + 1, ncols):
                    row[c] = (p * row[c]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank
