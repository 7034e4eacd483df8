"""Reference implementations the tests compare the library against.

Nothing in quiverdeg's commands or classifier reaches these, so they live
with the tests: constructors for zero, identity and row-given matrices and
zero representations, the dimension vectors of a window and of a class, a
second elimination (reduced row echelon form) to check
`RatMatrix.rank` and `decompose_nilpotent` by, the direct sum and duality
constructions whose symmetries Hom, Ext^1 and `classify` must obey, the
top and radical read directly off the window ends, to check `top_reduce`
(the socle move on the dual) by, and the degeneration order as bitsets over
a graded numbering with the codimension-2 pairs searched off it, to check
`degeneration.codim2_pairs` (masks within pairs of self-Hom layers) by, and the
componentwise order of integer rows one coordinate at a time through
dicts, to check `degeneration._below_masks` (one guarded subtraction per
pair on small tables, byte columns through `bytes.translate` on large ones)
by. The plain
depth-first enumeration checks `enumerate_nilpotent` (a walk of a memoized
move table). The list form of the composite ranks, `multiset_ranks`, is
the reference for `windows.rank_key`: flattened, it checks `hasse`'s rank
keys and `degenerates`, and packed one byte per rank it checks `rank_key`
itself and the rows `_tables` builds.
The direct scan, which classifies every pair that the mask search finds
for every vector, checks the rows `scan_rows` shares across each rotation
orbit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Sequence

from quiverdeg.degeneration import _below_masks, enumerate_nilpotent
from quiverdeg.errors import Inconsistent, ParseError
from quiverdeg.linalg import RatMatrix
from quiverdeg.reps import Arrow, Quiver, Representation
from quiverdeg.singularity import _dim_vectors, classify
from quiverdeg.windows import (
    SimpleMultiset,
    Window,
    WindowMultiset,
    multiset_hom_dim,
    residue,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def zero_matrix(rows: int, cols: int) -> RatMatrix:
    return RatMatrix(rows, cols, (_ZERO,) * (rows * cols))


def identity_matrix(n: int) -> RatMatrix:
    ent = [_ZERO] * (n * n)
    for i in range(n):
        ent[i * n + i] = _ONE
    return RatMatrix(n, n, ent)


def matrix_from_rows(data: Sequence[Sequence]) -> RatMatrix:
    rows = len(data)
    cols = len(data[0]) if rows else 0
    if any(len(r) != cols for r in data):
        raise ValueError("rows have unequal lengths")
    return RatMatrix(rows, cols, (x for r in data for x in r))


def zero_rep(quiver: Quiver, dims: Sequence[int]) -> Representation:
    """The representation with every arrow acting as zero."""
    dims = tuple(int(d) for d in dims)
    mats = [zero_matrix(dims[a.target - 1], dims[a.source - 1]) for a in quiver.arrows]
    return Representation(quiver, dims, mats)


def rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """In-place reduced row echelon form; returns the pivot columns."""
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        lead = prow[col]
        if lead != 1:
            rows[r] = prow = [x / lead for x in prow]
        for i in range(nrows):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], prow)]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots


def kernel_basis(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the null space; list length is always cols - rank."""
    rows = m.row_list()
    pivots = rref(rows, m.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * m.cols
        vec[free] = _ONE
        for ridx, pcol in enumerate(pivots):
            vec[pcol] = -rows[ridx][free]
        basis.append(tuple(vec))
    return basis


def transpose(m: RatMatrix) -> RatMatrix:
    ent = [
        m.entries[i * m.cols + j]
        for j in range(m.cols)
        for i in range(m.rows)
    ]
    return RatMatrix(m.cols, m.rows, ent)


def opposite(q: Quiver) -> Quiver:
    return Quiver(
        q.vertex_count,
        tuple(Arrow(a.name, a.target, a.source) for a in q.arrows),
    )


def direct_sum(v: Representation, w: Representation) -> Representation:
    """Blockwise direct sum over the same quiver."""
    if v.quiver != w.quiver:
        raise ParseError("representations live over different quivers")
    dims = tuple(a + b for a, b in zip(v.dims, w.dims))
    mats = []
    for mv, mw in zip(v.matrices, w.matrices):
        rows = mv.rows + mw.rows
        cols = mv.cols + mw.cols
        ent = [_ZERO] * (rows * cols)
        for r in range(mv.rows):
            for c in range(mv.cols):
                ent[r * cols + c] = mv.at(r, c)
        for r in range(mw.rows):
            for c in range(mw.cols):
                ent[(mv.rows + r) * cols + (mv.cols + c)] = mw.at(r, c)
        mats.append(RatMatrix(rows, cols, ent))
    return Representation(v.quiver, dims, mats)


def dual(v: Representation) -> Representation:
    """Vector-space dual over the opposite quiver; all matrices transposed."""
    return Representation(
        opposite(v.quiver), v.dims, tuple(transpose(m) for m in v.matrices)
    )


def window_dim_vector(w: Window) -> tuple[int, ...]:
    """Dimension vector of a window: how many of i..j fall at each residue."""
    counts = [0] * w.n
    for index in range(w.i, w.j + 1):
        counts[residue(index, w.n) - 1] += 1
    return tuple(counts)


def multiset_dim_vector(ms: WindowMultiset) -> tuple[int, ...]:
    """Dimension vector of a class: the sum of its windows' vectors."""
    counts = [0] * ms.n
    for w in ms.windows:
        for v, c in enumerate(window_dim_vector(w)):
            counts[v] += c
    return tuple(counts)


def multiset_dual(ms: WindowMultiset) -> WindowMultiset:
    """Class of the dual representation: each window (i, j) becomes (-j, -i)."""
    return WindowMultiset(ms.n, [Window(ms.n, -w.j, -w.i) for w in ms.windows])


def multiset_top(ms: WindowMultiset) -> SimpleMultiset:
    """The top: one simple at the residue of j for each window (i, j)."""
    counts = [0] * ms.n
    for w in ms.windows:
        counts[residue(w.j, ms.n) - 1] += 1
    return SimpleMultiset(ms.n, counts)


def quotient_to_radical(ms: WindowMultiset, selected_residues) -> WindowMultiset:
    """Pass to the radical at the selected top residues: (i, j) -> (i, j-1)."""
    sel = set(selected_residues)
    present = {residue(w.j, ms.n) for w in ms.windows}
    if not sel <= present:
        raise ParseError(f"residues {sorted(sel - present)} not present in top")
    out = []
    for w in ms.windows:
        if residue(w.j, ms.n) in sel:
            if w.length > 1:
                out.append(Window(ms.n, w.i, w.j - 1))
        else:
            out.append(w)
    return WindowMultiset(ms.n, out)


def top_reduce(m: WindowMultiset, nn: WindowMultiset):
    """top_reduce read directly off the tops, without passing to the dual."""
    if m.n != nn.n:
        raise ParseError("multisets have different ranks")
    counts = list(zip(multiset_top(m).counts, multiset_top(nn).counts))
    if any(a > b for a, b in counts):
        raise Inconsistent("top of the degenerating class exceeds the other top")
    if any(0 < a < b for a, b in counts):
        return None
    residues = tuple(r for r, (a, _) in enumerate(counts, 1) if a)
    return quotient_to_radical(m, residues), quotient_to_radical(nn, residues), residues


def multiset_ranks(ms: WindowMultiset, steps: int) -> list[list[int]]:
    """ranks[v-1][t] = rank of the composite of t arrow maps starting at v.

    The composite sends the basis vector of index l (l = v mod n) in a
    window [i, j] to that of l - t, or to zero when l - t < i. So the window
    adds #{l in [i+t, j] : l = v (mod n)} to ranks[v-1][t]: each index l
    counts once for every t <= l - i.
    """
    n = ms.n
    ranks = [[0] * (steps + 1) for _ in range(n)]
    for w in ms.windows:
        for height in range(w.length):
            ranks[(w.i + height - 1) % n][min(height, steps)] += 1
    for row in ranks:
        for t in range(steps - 1, -1, -1):
            row[t] += row[t + 1]
    return ranks


def flat_ranks(ms: WindowMultiset, total: int) -> list[int]:
    """Composite ranks: the order is componentwise >= on these keys."""
    return [r for row in multiset_ranks(ms, total) for r in row]


def pack_ranks(ranks: list[list[int]]) -> int:
    """A rank table row by row as one integer, one byte per rank, little-endian."""
    return int.from_bytes(bytes(r for row in ranks for r in row), "little")


def _fill(n, candidates, dim_vectors, skip, idx, remaining, chosen, results) -> None:
    """Append every multiset of candidates[idx:] filling remaining to results.

    Each call adds one more window, the next candidate from idx on that fits.
    A window that does not fit has no longer window with the same start that
    fits, so the loop jumps to skip[c], the first candidate with the next
    start.
    """
    if not any(remaining):
        results.append(WindowMultiset(n, list(chosen)))
        return
    c = idx
    while c < len(candidates):
        rest = tuple(rem - need for rem, need in zip(remaining, dim_vectors[c]))
        if min(rest) < 0:
            c = skip[c]
            continue
        chosen.append(candidates[c])
        _fill(n, candidates, dim_vectors, skip, c, rest, chosen, results)
        chosen.pop()
        c += 1


def enumerate_reference(n: int, d: Sequence[int]) -> list[WindowMultiset]:
    """Every class with dimension vector d, by a depth-first search that
    re-explores each state under every prefix that reaches it; lexicographic
    order of the (i, j) lists, as enumerate_nilpotent promises."""
    d = tuple(d)
    candidates = []
    for i in range(1, n + 1):
        for length in range(1, sum(d) + 1):
            w = Window(n, i, i + length - 1)
            if all(a <= b for a, b in zip(window_dim_vector(w), d)):
                candidates.append(w)
    dim_vectors = [window_dim_vector(w) for w in candidates]
    starts = [w.i for w in candidates]
    skip = [bisect_right(starts, i) for i in starts]
    results: list[WindowMultiset] = []
    _fill(n, candidates, dim_vectors, skip, 0, d, [], results)
    return results


def graded_masks(n: int, d: Sequence[int]):
    """The degeneration order on classes with dimension vector d, graded.

    Returns (nodes, self_hom, order, below): the classes in enumeration order
    and their self-Hom dimensions; order, the enumeration indices sorted by
    (self-Hom dimension, enumeration index); and bitsets over that graded
    numbering, with bit h of below[g] set iff node order[g] degenerates to
    node order[h] (reflexive). Self-Hom grows strictly along a degeneration,
    so every node strictly below g has a larger number than g.
    """
    nodes = enumerate_nilpotent(n, d)
    self_hom = [multiset_hom_dim(node, node) for node in nodes]
    order = sorted(range(len(nodes)), key=self_hom.__getitem__)
    total = sum(d)
    keys = [bytes(flat_ranks(nodes[e], total)) for e in order]
    below = _below_masks(keys, keys)
    return nodes, self_hom, order, below


def below_masks(rows, cols) -> list[int]:
    """bit b set in mask[a] iff rows[a] >= cols[b] componentwise, for rows
    and cols of any integers: the reference for degeneration._below_masks.

    Built one coordinate at a time: exact[u] is the bitset of the cols
    whose entry there is u, and each mask keeps the union of exact[u] over
    every u at most its own entry. No coordinate is skipped.
    """
    masks = [(1 << len(cols)) - 1] * len(rows)
    if not rows or not cols:
        return masks
    for row_column, column in zip(zip(*rows), zip(*cols)):
        exact: dict[int, int] = {}
        for b, v in enumerate(column):
            exact[v] = exact.get(v, 0) | (1 << b)
        for a, v in enumerate(row_column):
            masks[a] &= sum(bits for u, bits in exact.items() if u <= v)
    return masks


def codim2_pairs_from_masks(n: int, d: Sequence[int]) -> list[tuple[int, int]]:
    """Every (upper, lower) pair at codimension 2, searched off graded_masks.

    Upper nodes in enumeration order; the nodes whose self-Hom is two more
    form one run of the graded numbering, in enumeration order, and each is
    kept when its bit is set in the upper node's mask.
    """
    _, self_hom, order, below = graded_masks(n, d)
    grades = [self_hom[e] for e in order]
    pairs = []
    for g in sorted(range(len(order)), key=order.__getitem__):
        grade = grades[g] + 2
        for h in range(bisect_left(grades, grade), bisect_right(grades, grade)):
            if (below[g] >> h) & 1:
                pairs.append((order[g], order[h]))
    return pairs


def scan_rows_direct(max_n: int, max_dim: int):
    """scan_rows' rows with no sharing: codim2_pairs_from_masks and classify
    on every pair of every vector, with no verdict memo and no rotation."""
    for n in range(1, max_n + 1):
        for d in _dim_vectors(n, max_dim):
            nodes = enumerate_nilpotent(n, d)
            kinds = {"Reg": 0, "A": 0, "Unresolved": 0}
            unresolved = []
            pairs = codim2_pairs_from_masks(n, d)
            for a, b in pairs:
                kind = classify(nodes[a], nodes[b])[0].kind
                kinds[kind] += 1
                if kind == "Unresolved":
                    unresolved.append((nodes[a], nodes[b]))
            yield n, d, len(nodes), (len(pairs), *kinds.values()), tuple(unresolved)
