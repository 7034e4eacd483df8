"""Degeneration order, codimension and Hasse diagrams for nilpotent classes.

For nilpotent representations of the cyclic quiver the degeneration order
is the rank order on arrow composites (G. Kempken, Bonner Math. Schriften
137, 1982): M degenerates to N (same dimension vector) iff, for every
vertex v and length t, the composite of t arrow maps starting at v has rank
at least as large in M as in N. windows.rank_key packs those ranks in closed
form on windows, n * (total + 1) of them per class, with no matrices.
Codimension of a degeneration is the difference of self-Hom dimensions, so
codim2_pairs reads the pairs of codimension 2 straight off the two tests,
from each self-Hom layer to the one two above; hasse peels the covers.

The Hom order (Bongartz, Adv. Math. 121, 1996; Zwara, Compositio Math. 121,
2000) decides the same relation: M degenerates to N iff its Hom profile
against every window up to the total dimension is componentwise smaller.
TestSet and hom_profile keep that definition as the reference the tests
compare the rank order against.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_, getitem, itemgetter
from typing import NamedTuple, Sequence

from .errors import NotADegeneration, ParseError, as_int
from .reps import MAX_RANK, MAX_TOTAL_DIM, check_cap
from .windows import (
    Window,
    WindowMultiset,
    multiset_hom_dim,
    rank_key,
    window_hom_dim,
)


# Test oracle: the Hom order the rank order is checked against.
class TestSet(NamedTuple):
    """All windows of rank n with lengths 1..max_length, as test objects."""

    n: int
    max_length: int
    windows: tuple[Window, ...]

    @classmethod
    def up_to(cls, n: int, max_length: int) -> "TestSet":
        wins = tuple(
            Window(n, i, i + length - 1)
            for i in range(1, n + 1)
            for length in range(1, max_length + 1)
        )
        return cls(n, max_length, wins)


# Test oracle: the Hom order the rank order is checked against.
def hom_profile(ms: WindowMultiset, ts: TestSet) -> tuple[int, ...]:
    """Hom dimensions from ms to every test window, in test-set order."""
    if ms.n != ts.n:
        raise ParseError("multiset and test set have different ranks")
    return tuple(
        sum(window_hom_dim(entry, y) for entry in ms.windows) for y in ts.windows
    )


def degenerates(m: WindowMultiset, nn: WindowMultiset) -> bool:
    """True iff m degenerates to nn: same dimension vector, dominating ranks.

    The rank order (Kempken 1982; see the module docstring) on keys built
    alone, not off _tables, whose one cached total a lone class would evict.
    guards has 0x80 in each byte. A rank is at most total <= 40 < 128, so
    byte by byte the subtraction gives 0x80 + a - b, never borrows, and
    keeps the guard iff a >= b. Bytes t = 0 hold the dimension vectors:
    entries no smaller in m with equal totals are equal.
    """
    if m.n != nn.n:
        raise ParseError("multisets have different ranks")
    total = m.total_dim()
    check_cap("total dimension", total, MAX_TOTAL_DIM)
    if total != nn.total_dim():
        return False
    guards = int.from_bytes(b"\x80" * (m.n * (total + 1)), "little")
    return ((rank_key(m, total) | guards) - rank_key(nn, total)) & guards == guards


def codim(m: WindowMultiset, nn: WindowMultiset) -> int:
    """Codimension of the degeneration: self-hom of nn minus self-hom of m."""
    if not degenerates(m, nn):
        raise NotADegeneration(f"{m!r} does not degenerate to {nn!r}")
    return multiset_hom_dim(nn, nn) - multiset_hom_dim(m, m)


def _moves(needs, total, guards, state, moves) -> bool:
    """Fill moves[state] for state = (c, remaining); True iff it is nonempty.

    moves[(c, remaining)] lists the steps (c2, rest) with c2 >= c, window
    c2 fitting in remaining and rest = remaining - needs[c2], that lead to a
    full class: rest is zero or has moves of its own. The completions of a
    state depend only on the state, so each state is explored once however
    many prefixes reach it. Windows come in (i, j) order, total per start,
    so a window that does not fit has no longer window with the same start
    that fits: the loop jumps to the first window with the next start.

    Vectors are bytes as in _Tables, and the remaining vector keeps every
    guard bit 0x80 set: an entry is at most MAX_TOTAL_DIM = 40 < 128, so
    subtracting a window's vector clears a guard iff an entry goes below 0,
    and the difference is zero iff it equals guards.
    """
    steps = moves.get(state)
    if steps is None:
        c, remaining = state
        steps = []
        while c < len(needs):
            rest = remaining - needs[c]
            if rest & guards != guards:
                c = (c // total + 1) * total
                continue
            if rest == guards or _moves(needs, total, guards, (c, rest), moves):
                steps.append((c, rest))
            c += 1
        moves[state] = steps
    return bool(steps)


def _walk(n, windows, guards, moves, state, chosen, results) -> None:
    """Append every class that completes chosen from state to results, in order.

    Module-level functions rather than closures: a recursive closure refers
    to itself and keeps its whole frame alive until a cyclic collection.
    """
    for c, rest in moves[state]:
        chosen.append(windows[c])
        if rest == guards:
            results.append(WindowMultiset._make((n, tuple(chosen))))
        else:
            _walk(n, windows, guards, moves, (c, rest), chosen, results)
        chosen.pop()


class _Tables(NamedTuple):
    """What every dimension vector of rank n and one total shares.

    windows lists the windows of rank n and length at most total, in (i, j)
    order, so [i, j] sits at (i - 1) * total + j - i. Every table holds one
    value per byte, little-endian: no entry exceeds MAX_TOTAL_DIM = 40 < 128.
    needs[c] is the dimension vector of windows[c], byte v - 1 its entry at
    v, and guards has the top bit 0x80 of each of those n bytes set. moves
    is the table of _moves; a state (c, remaining) has the same completions
    whichever vector reached it. ranks[c] is rank_key of windows[c] alone
    with total steps.
    """

    windows: tuple[Window, ...]
    guards: int
    needs: list[int]
    moves: dict
    ranks: list


@lru_cache(maxsize=1)
def _tables(n: int, total: int) -> _Tables:
    """The shared tables of rank n and total; one entry serves a whole total.

    Callers that visit the vectors of one total together (scan does) build
    them once, and memory stays bounded to one total's tables. n and total
    come checked from _dim_vector and every i is in 1..n, so the windows and
    their one-window classes are canonical as built, with _make.
    """
    windows, needs = [], []
    for i in range(1, n + 1):
        need = 0
        for j in range(i, i + total):
            # [i, j] is [i, j - 1] plus one basis vector at the residue of j.
            need += 1 << 8 * ((j - 1) % n)
            windows.append(Window._make((n, i, j)))
            needs.append(need)
    ranks = [rank_key(WindowMultiset._make((n, (w,))), total) for w in windows]
    guards = int.from_bytes(b"\x80" * n, "little")
    return _Tables(tuple(windows), guards, needs, {}, ranks)


def _dim_vector(n: int, d: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(n, d) as an int and a tuple of n nonnegative integers within the caps
    of reps.

    The rank and each entry go through errors.as_int, so a float or a string is
    rejected and True reads as 1. The rank is checked first, at least 1 and
    within its cap, and the total last.
    """
    n = as_int("rank", n)
    if n < 1:
        raise ParseError("cyclic rank must be at least 1")
    check_cap("rank", n, MAX_RANK)
    entries = [as_int("dimension vector entry", x) for x in d]
    if len(entries) != n:
        raise ParseError(f"dimension vector must have length {n}")
    if any(x < 0 for x in entries):
        raise ParseError("dimension vector entries must be nonnegative")
    check_cap("total dimension", sum(entries), MAX_TOTAL_DIM)
    return n, tuple(entries)


def enumerate_nilpotent(n: int, d: Sequence[int]) -> list[WindowMultiset]:
    """All window multisets with dimension vector d, in lexicographic order of
    their (i, j) lists: windows come in (i, j) order, each class takes
    their indices in non-decreasing order, and no class is a prefix of another.

    The move table of _moves is filled first and then walked; it has no dead
    ends, so every step of the walk leads to a class. Every vector of the
    same total shares the table, so a state already filled for one is walked
    as it stands for the next. Both recurse once per summand. The rank and
    the total are checked against the caps of reps first, which bound that
    depth and every table that _tables builds.
    """
    n, d = _dim_vector(n, d)
    total = sum(d)
    if not total:
        return [WindowMultiset(n, ())]
    t = _tables(n, total)
    start = (0, t.guards + int.from_bytes(bytes(d), "little"))
    _moves(t.needs, total, t.guards, start, t.moves)
    results: list[WindowMultiset] = []
    _walk(n, t.windows, t.guards, t.moves, start, [], results)
    return results


class HasseEdge(NamedTuple):
    upper: int
    lower: int
    codim: int
    label: str | None = None


class HasseDiagram(NamedTuple):
    n: int
    dim: tuple[int, ...]
    nodes: tuple[WindowMultiset, ...]
    edges: tuple[HasseEdge, ...]


# _AT_MOST[v] maps the bytes <= v to b"1" and every other byte to b"0", for
# bytes.translate; a rank key byte is at most MAX_TOTAL_DIM, so v stops there.
_AT_MOST = [b"1" * (v + 1) + b"0" * (255 - v) for v in range(MAX_TOTAL_DIM + 1)]


# _below_masks tests each pair directly up to this many pairs. Timed call by
# call on the tables of scan (n <= 4, dim <= 12; n <= 3, dim <= 16) and of
# codim2_pairs(3, (8,8,8)) on a 2-core x86 host, the pairwise kernel costs
# about 1 us plus 0.1 us a pair, O(rows * cols), and the column kernel's
# O(width) Python steps 21 us on a 1 x 1 table: 119 us against 95 us at
# 512 to 1,023 pairs, 158 us against 173 us at 1,024 to 2,047.
_PAIRWISE_MAX = 1024


def _below_masks(rows: Sequence[bytes], cols: Sequence[bytes]) -> list[int]:
    """bit b set in mask[a] iff rows[a] >= cols[b] byte by byte.

    The rows and cols are bytes of one width with every byte at most
    MAX_TOTAL_DIM < 0x80, as the rank keys of hasse and codim2_pairs are;
    the pairwise kernel's subtraction relies on that bound. Tables of at
    most _PAIRWISE_MAX pairs take _pairwise_masks, larger ones _column_masks.
    """
    if len(rows) * len(cols) <= _PAIRWISE_MAX:
        return _pairwise_masks(rows, cols)
    return _column_masks(rows, cols)


def _pairwise_masks(rows, cols):
    """_below_masks by one guarded subtraction per pair, as degenerates
    tests: no byte reaches 0x80, so no byte borrows and each keeps its
    guard iff the row's byte is at least the col's."""
    guards = int.from_bytes(b"\x80" * len(rows[0]), "little") if rows else 0
    lows = [int.from_bytes(col, "little") for col in cols]
    masks = []
    for row in rows:
        high = int.from_bytes(row, "little") | guards
        mask, bit = 0, 1
        for low in lows:
            if (high - low) & guards == guards:
                mask |= bit
            bit <<= 1
        masks.append(mask)
    return masks


def _column_masks(rows, cols):
    """_below_masks by threshold bitsets, one byte column at a time.

    cols joined in reverse order give column c as the slice [c::width], one
    byte per col with the last first, so translating it through _AT_MOST[v]
    spells in binary the bitset of the cols whose byte there is at most v. A
    column where no col byte exceeds the smallest row byte sets every bit and
    is skipped. Each mask is then the AND of one such bitset per column left,
    the one of its own byte there, in one pass per row.
    """
    full = (1 << len(cols)) - 1
    if not rows or not cols:
        return [full] * len(rows)
    width = len(rows[0])
    joined = b"".join(reversed(cols))
    varying, tables = [], []
    for c, values in enumerate(map(set, zip(*rows))):
        column = joined[c::width]
        if max(column) <= min(values):
            continue
        table = [0] * (max(values) + 1)
        for v in values:
            # int(_, 2) runs in linear time, and a power-of-two base is exempt
            # from the limit on the digits of a str converted to int (4,300).
            table[v] = int(column.translate(_AT_MOST[v]), 2)
        varying.append(c)
        tables.append(table)
    if not tables:
        return [full] * len(rows)
    # itemgetter of a single index returns the item itself, not a 1-tuple.
    pick = itemgetter(*varying) if len(varying) > 1 else lambda key: (key[varying[0]],)
    return [reduce(and_, map(getitem, tables, pick(key))) for key in rows]


def _covers(below):
    """The covering pairs (g, h) of reflexive masks in a graded numbering.

    In a graded numbering every node strictly below g has a larger number
    than g, so the lowest remaining strict successor h of g is a cover: a
    node strictly between g and h has a smaller number than h, so it was
    peeled first and took h along. Each cover is peeled together with
    everything below it, so the loop runs once per edge rather than once per
    comparable pair. Pairs come sorted by g, then h.
    """
    for g, mask in enumerate(below):
        rem = mask & ~(1 << g)
        while rem:
            h = (rem & -rem).bit_length() - 1
            yield g, h
            rem &= ~below[h]


def _keyed_classes(n: int, d: tuple[int, ...]):
    """The classes of d, as _dim_vector reads it, their keys and self-Homs."""
    nodes = enumerate_nilpotent(n, d)
    total = sum(d)
    # A composite's rank adds over summands, so a class's key, its rank_key,
    # sums its windows' rows; no rank exceeds total, so no sum carries. A
    # morphism out of [i, j] is fixed by where its top vector goes: any vector
    # at the residue v of j that the composite of j - i + 1 <= total arrows
    # from v kills. So hom([i, j], X) = rank_X(v, 0) - rank_X(v, j - i + 1).
    ranks = _tables(n, total).ranks
    stride = total + 1
    width = n * stride
    self_hom, keys = [], []
    for node in nodes:
        ids = [(i - 1) * total + j - i for _, i, j in node.windows]
        key = sum(map(ranks.__getitem__, ids)).to_bytes(width, "little")
        hom = 0
        for _, i, j in node.windows:
            r = (j - 1) % n * stride
            hom += key[r] - key[r + j - i + 1]
        self_hom.append(hom)
        keys.append(key)
    return nodes, keys, self_hom


def hasse(n: int, d: Sequence[int]) -> HasseDiagram:
    """Covering relations of the degeneration order on classes with vector d.

    Edges run from the bigger orbit (upper) to the smaller one, sorted by
    (upper, lower) in enumeration order, and carry the codimension,
    unlabelled; singularity.annotate adds the labels. The covers are the
    transitive reduction of the order (Aho, Garey and Ullman, SIAM J.
    Comput. 1, 1972), peeled by _covers off masks over the classes sorted
    by self-Hom dimension, which grows strictly along a degeneration. A
    class's key is its rank table, so mask[a] holds the classes whose ranks
    a dominates.
    """
    n, d = _dim_vector(n, d)
    nodes, keys, self_hom = _keyed_classes(n, d)
    order = sorted(range(len(nodes)), key=self_hom.__getitem__)
    ordered = [keys[e] for e in order]
    below = _below_masks(ordered, ordered)
    pairs = sorted((order[g], order[h]) for g, h in _covers(below))
    edges = tuple(HasseEdge(a, b, self_hom[b] - self_hom[a]) for a, b in pairs)
    return HasseDiagram(n, d, tuple(nodes), edges)


def codim2_pairs(n: int, d: Sequence[int]):
    """The classes of d and the sorted (upper, lower) indices of their pairs
    of codimension 2: lower's rank key at most upper's byte by byte, and
    self-Hom two more. Each self-Hom layer h takes _below_masks of its keys
    against those of layer h + 2."""
    n, d = _dim_vector(n, d)
    nodes, keys, self_hom = _keyed_classes(n, d)
    layers: dict[int, list[int]] = {}
    for e, h in enumerate(self_hom):
        layers.setdefault(h, []).append(e)
    pairs = []
    for h, upper in layers.items():
        lower = layers.get(h + 2)
        if lower is None:
            continue
        masks = _below_masks([keys[e] for e in upper], [keys[e] for e in lower])
        for a, mask in zip(upper, masks):
            while mask:
                low = mask & -mask
                pairs.append((a, lower[low.bit_length() - 1]))
                mask ^= low
    pairs.sort()
    return nodes, pairs


def _node_label(ms: WindowMultiset) -> str:
    if ms.is_empty():
        return "0"
    return "+".join(f"[{w.i},{w.j}]" for w in ms.windows)


def to_dot(diagram: HasseDiagram) -> str:
    """Deterministic DOT rendering, one node per class, edges top-down."""
    lines = ["digraph degenerations {", "  rankdir=TB;"]
    for idx, node in enumerate(diagram.nodes):
        lines.append(f'  n{idx} [label="{_node_label(node)}"];')
    for e in diagram.edges:
        label = f"c={e.codim}" + (f", {e.label}" if e.label else "")
        lines.append(f'  n{e.upper} -> n{e.lower} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_obj(diagram: HasseDiagram) -> dict:
    """JSON-ready dict mirroring the diagram fields."""
    return {
        "n": diagram.n,
        "dim": list(diagram.dim),
        "nodes": [[[w.i, w.j] for w in node.windows] for node in diagram.nodes],
        "edges": [
            {
                "upper": e.upper,
                "lower": e.lower,
                "codim": e.codim,
                "label": e.label,
            }
            for e in diagram.edges
        ],
    }
