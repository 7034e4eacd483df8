"""Nilpotent representation classes of cyclic quivers as window multisets.

The cyclic quiver of rank n has vertices 1..n and one arrow out of each
vertex v into v-1 (1 wraps to n). Up to isomorphism the indecomposable
nilpotent representations are uniserial and labelled by integer intervals
[i, j] ("windows"): basis vectors sit at the residues of i..j and the arrow
maps shift each basis vector down by one, killing the bottom one. Shifting
both endpoints by a multiple of n does not change the class, so windows
are stored as their canonical representative with 1 <= i <= n. Windows and
their multisets are named tuples of canonical fields, so equal classes are
equal values, with the tuple's hash and order.

A finite multiset of windows is exactly an isomorphism class of nilpotent
representations (Krull-Schmidt), which makes socle, top and quotient
calculus pure bookkeeping on the endpoints: the socle of [i, j] is the
simple at the residue of i, the top the simple at the residue of j, and the
quotient by the socle is [i+1, j] (empty when i = j). The duality
Hom_k(-, k) takes the cyclic quiver to its opposite, which is the cyclic
quiver again, and [i, j] to [-j, -i]; it swaps socle and top, so the top
and the radical are read off the dual.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Sequence

from .errors import Inconsistent, NotNilpotent, ParseError, as_int, as_positive
from .linalg import RatMatrix
from .reps import MAX_RANK, MAX_TOTAL_DIM, Arrow, Quiver, Representation, check_cap


def residue(value: int, n: int) -> int:
    """The vertex in 1..n congruent to value mod n."""
    return (value - 1) % n + 1


def _count_congruent(lo: int, hi: int, rem: int, n: int) -> int:
    # integers m in [lo, hi] with m = rem (mod n)
    if hi < lo:
        return 0
    return (hi - rem) // n - (lo - 1 - rem) // n


def _canonical(n: int, i: int, j: int) -> tuple[int, int, int]:
    """(n, i, j) shifted by the multiple of n that puts i in 1..n; no checks."""
    shift = residue(i, n) - i
    return n, i + shift, j + shift


def _remapped(n: int, ends: Iterable[tuple[int, int]]) -> "WindowMultiset":
    """The rank-n class of the (i, j) pairs in ends, each mapped from a window
    of a checked class: shifted by _canonical, sorted and built with _make."""
    out = sorted(Window._make(_canonical(n, i, j)) for i, j in ends)
    return WindowMultiset._make((n, tuple(out)))


class Window(namedtuple("Window", "n i j")):
    """An interval [i, j] naming a uniserial nilpotent class of rank n.

    Both endpoints are shifted on construction by the multiple of n that
    gives the canonical representative, 1 <= i <= n, so two windows are equal
    iff they name the same class, and those of one rank sort in (i, j) order.
    """

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = None  # no tuple concatenation or repetition

    def __new__(cls, n: int, i: int, j: int) -> "Window":
        n = as_positive("cyclic rank", n)
        i, j = as_int("window endpoint", i), as_int("window endpoint", j)
        if i > j:
            raise ParseError(f"window ({i},{j}) has i > j")
        return tuple.__new__(cls, _canonical(n, i, j))

    @property
    def length(self) -> int:
        return self.j - self.i + 1

    def __repr__(self) -> str:
        return f"({self.i},{self.j})"


class SimpleMultiset(namedtuple("SimpleMultiset", "n counts")):
    """Multiset of simple classes, stored as per-residue multiplicities."""

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = None  # no tuple concatenation or repetition

    def __new__(cls, n: int, counts: Sequence[int]) -> "SimpleMultiset":
        n = as_positive("cyclic rank", n)
        counts = tuple(as_int("multiplicity", c) for c in counts)
        if len(counts) != n:
            raise ParseError(f"expected {n} residue counts, got {len(counts)}")
        if any(c < 0 for c in counts):
            raise ParseError("multiplicities must be nonnegative")
        return tuple.__new__(cls, (n, counts))

    # Test oracle: the socle round-trip checks quotient at these residues.
    def residues(self) -> set[int]:
        return {r + 1 for r, c in enumerate(self.counts) if c}


class WindowMultiset(namedtuple("WindowMultiset", "n windows")):
    """Multiset of windows: the isomorphism class of a nilpotent representation.

    Entries are kept sorted, so equal classes are equal values.
    """

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = None  # no tuple concatenation or repetition

    def __new__(cls, n: int, windows: Iterable = ()) -> "WindowMultiset":
        n = as_positive("cyclic rank", n)
        items: list[Window] = []
        for w in windows:
            if not isinstance(w, Window):
                try:
                    w = Window(n, *w)
                except TypeError:  # w is not an iterable of two endpoints
                    raise ParseError(f"window entry {w!r} is not a pair (i, j)") from None
            elif w.n != n:
                raise ParseError(f"window of rank {w.n} in a rank-{n} multiset")
            items.append(w)
        # Every window has rank n, so tuple order is (i, j) order.
        items.sort()
        return tuple.__new__(cls, (n, tuple(items)))

    def summand_count(self) -> int:
        return len(self.windows)

    def total_dim(self) -> int:
        return sum(w.length for w in self.windows)

    def socle(self) -> SimpleMultiset:
        counts = [0] * self.n
        for w in self.windows:
            counts[w.i - 1] += 1
        return SimpleMultiset._make((self.n, tuple(counts)))

    def quotient_by_socle(self, selected_residues: Iterable[int]) -> "WindowMultiset":
        """Quotient by the socle summands at the selected residues.

        Each window whose socle residue is selected becomes (i+1, j), or is
        deleted when i = j; other windows are untouched.
        """
        sel = set(selected_residues)
        present = {w.i for w in self.windows}
        if not sel <= present:
            raise ParseError(f"residues {sorted(sel - present)} not present in socle")
        kept = [(i, j) for _, i, j in self.windows if i not in sel]
        cut = [(i + 1, j) for _, i, j in self.windows if i in sel and i < j]
        return _remapped(self.n, kept + cut)

    def dual(self) -> "WindowMultiset":
        """Class of the dual representation: each window (i, j) becomes (-j, -i)."""
        return _remapped(self.n, ((-j, -i) for _, i, j in self.windows))

    def rotated(self, s: int) -> "WindowMultiset":
        """Class under the rotation v -> v + s: (i, j) becomes (i + s, j + s)."""
        s = as_int("rotation", s)
        return _remapped(self.n, ((i + s, j + s) for _, i, j in self.windows))

    def __repr__(self) -> str:
        inner = ",".join(repr(w) for w in self.windows)
        return "{" + inner + "}"


def cyclic_quiver(n: int) -> Quiver:
    """The rank-n cyclic quiver: arrow a<v> from vertex v to v-1 (1 wraps to n)."""
    n = as_positive("cyclic rank", n)
    arrows = tuple(
        Arrow(f"a{v}", v, residue(v - 1, n)) for v in range(1, n + 1)
    )
    return Quiver(n, arrows)


def require_cyclic(q: Quiver) -> int:
    """Rank of the cyclic quiver, or ParseError when q is not one."""
    n = q.vertex_count
    # Sorted sources equal to 1..n already mean n arrows.
    sources = sorted(a.source for a in q.arrows)
    if (
        n < 1
        or sources != list(range(1, n + 1))
        or any(a.target != residue(a.source - 1, n) for a in q.arrows)
    ):
        raise ParseError(
            "expected the cyclic quiver with one arrow from each vertex v to v-1"
        )
    return n


def realize(ms: WindowMultiset) -> Representation:
    """Matrix model of a window multiset in the standard shift basis.

    Basis vectors are indexed by the integers inside each window; the arrow
    out of vertex v sends the vector for index l to the vector for l-1 and
    kills each window's bottom index. All matrices are 0/1 block shifts.
    """
    check_cap("rank", ms.n, MAX_RANK)
    check_cap("total dimension", ms.total_dim(), MAX_TOTAL_DIM)
    n = ms.n
    dims = [0] * n
    place = {}  # (summand, index l) -> its place among the vectors at l's vertex
    for idx, (_, i, j) in enumerate(ms.windows):
        for l in range(i, j + 1):
            place[idx, l] = dims[(l - 1) % n]
            dims[(l - 1) % n] += 1
    # The arrow out of vertex s + 1 is a dims[s - 1] x dims[s] matrix.
    ents = [[0] * (dims[s - 1] * dims[s]) for s in range(n)]
    for idx, (_, i, j) in enumerate(ms.windows):
        for l in range(i + 1, j + 1):
            s = (l - 1) % n
            ents[s][place[idx, l - 1] * dims[s] + place[idx, l]] = 1
    mats = [RatMatrix(dims[s - 1], dims[s], ent) for s, ent in enumerate(ents)]
    return Representation(cyclic_quiver(n), dims, mats)


def _composite_ranks(rep: Representation, steps: int) -> list[list[int]]:
    """ranks[v-1][t] = rank of the composite of t arrow maps starting at vertex v.

    A vertex's chain stops at its first zero composite and the rest of its
    row is padded with zeros: every longer composite factors through it.
    """
    n = rep.quiver.vertex_count
    out = {a.source: m for a, m in zip(rep.quiver.arrows, rep.matrices)}
    ranks = []
    for v in range(1, n + 1):
        current = None
        row = [rep.dims[v - 1]]
        while row[-1] and len(row) <= steps:
            step = out[residue(v - len(row) + 1, n)]
            current = step if current is None else step @ current
            row.append(current.rank())
        ranks.append(row + [0] * (steps + 1 - len(row)))
    return ranks


def rank_key(ms: WindowMultiset, steps: int) -> int:
    """Closed form of _composite_ranks(realize(ms), steps), one rank per byte.

    Byte (v - 1) * (steps + 1) + t is the rank of the composite of t arrow
    maps from v. It sends index l = v (mod n) of a window [i, j] to l - t,
    or to zero when l - t < i, so l adds a run of 0x01 bytes, t = 0 ..
    min(l - i, steps), to its residue's row. A byte is at most the total,
    which every caller caps at MAX_TOTAL_DIM = 40, so none carries. The
    rank and steps are checked against their caps (steps is at most the
    total plus one) before the key is built: it spans n * (steps + 1) bytes.
    """
    check_cap("rank", ms.n, MAX_RANK)
    check_cap("steps", steps, MAX_TOTAL_DIM + 1)
    key = 0
    for _, i, j in ms.windows:
        run = 0
        for l in range(i, j + 1):
            if l - i <= steps:
                run = run << 8 | 1
            key += run << 8 * (steps + 1) * ((l - 1) % ms.n)
    return key


def is_nilpotent(rep: Representation) -> bool:
    """True iff all around-the-cycle composites of length total-dim vanish."""
    require_cyclic(rep.quiver)
    total = rep.total_dim()
    return not any(row[total] for row in _composite_ranks(rep, total))


def decompose_nilpotent(rep: Representation) -> WindowMultiset:
    """Krull-Schmidt class of a nilpotent representation of a cyclic quiver.

    The multiplicity of the window ending at residue j with length L is
    read off ranks of iterated arrow composites:

        rank p(j, L-1) - rank p(j, L) - rank p(j+1, L) + rank p(j+1, L+1)

    where p(v, t) composes t arrow maps starting at vertex v. For n = 1 this
    is the classical Jordan block count r_{L-1} - 2 r_L + r_{L+1}.
    """
    n = require_cyclic(rep.quiver)
    total = rep.total_dim()
    check_cap("total dimension", total, MAX_TOTAL_DIM)
    if not is_nilpotent(rep):
        raise NotNilpotent("the representation is not nilpotent")
    ranks = _composite_ranks(rep, total + 1)
    entries: list[Window] = []
    for jr in range(1, n + 1):
        nxt = residue(jr + 1, n)
        for length in range(1, total + 1):
            mult = (
                ranks[jr - 1][length - 1]
                - ranks[jr - 1][length]
                - ranks[nxt - 1][length]
                + ranks[nxt - 1][length + 1]
            )
            if mult < 0:
                raise Inconsistent(
                    f"negative multiplicity for window ending at {jr} of length {length}"
                )
            if mult:
                entries.extend([Window(n, jr - length + 1, jr)] * mult)
    ms = WindowMultiset(n, entries)
    packed = int.from_bytes(bytes(r for row in ranks for r in row), "little")
    if rank_key(ms, total + 1) != packed:
        raise Inconsistent("decomposition does not match the composite ranks")
    return ms


def window_hom_dim(a: Window, b: Window) -> int:
    """Dimension of the morphism space between two windows.

    A morphism is a shift: it is determined by where the top index of `a`
    lands in `b`. Admissible landing spots m are congruent to j_a mod n, lie
    inside [i_b, j_b], and leave no overhang below the bottom of b, i.e.
    m <= i_b + (j_a - i_a). The count is invariant under shifting either
    window by a multiple of n. For n = 1 it reduces to min(length a, length b).
    """
    if a.n != b.n:
        raise ParseError(f"windows of different ranks {a.n} and {b.n}")
    hi = min(b.j, b.i + (a.j - a.i))
    return _count_congruent(b.i, hi, a.j % a.n, a.n)


def multiset_hom_dim(x: WindowMultiset, y: WindowMultiset) -> int:
    """Hom dimension between two classes; biadditive over entries."""
    if x.n != y.n:
        raise ParseError("multisets have different ranks")
    return sum(window_hom_dim(a, b) for a in x.windows for b in y.windows)


def reconstruct_from_socle_quotient(
    u: SimpleMultiset, t: WindowMultiset
) -> WindowMultiset:
    """The unique nilpotent class with socle u and socle-quotient t.

    Every window (p, q) of the quotient grows back to (p-1, q); whatever is
    left of the prescribed socle becomes simple summands. Negative leftovers
    mean no such class exists.
    """
    if u.n != t.n:
        raise ParseError("socle and quotient have different ranks")
    n = u.n
    entries: list[Window] = []
    used = [0] * n
    for w in t.windows:
        grown = Window(n, w.i - 1, w.j)
        entries.append(grown)
        used[grown.i - 1] += 1
    for r in range(1, n + 1):
        remaining = u.counts[r - 1] - used[r - 1]
        if remaining < 0:
            raise Inconsistent(
                f"socle multiplicity at residue {r} is too small for the quotient"
            )
        entries.extend([Window(n, r, r)] * remaining)
    return WindowMultiset(n, entries)
