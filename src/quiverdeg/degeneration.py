"""Degeneration order, codimension and Hasse diagrams for nilpotent classes.

For nilpotent representations of the cyclic quiver the degeneration order
is the rank order on arrow composites (G. Kempken, Bonner Math. Schriften
137, 1982): M degenerates to N (same dimension vector) iff, for every
vertex v and length t, the composite of t arrow maps starting at v has rank
at least as large in M as in N. windows.multiset_ranks gives those ranks in
closed form on windows, n * (total + 1) of them per class, with no matrices.
Codimension of a degeneration is the difference of self-Hom dimensions.

The Hom order (Bongartz, Adv. Math. 121, 1996; Zwara, Compositio Math. 121,
2000) decides the same relation: M degenerates to N iff its Hom profile
against every window up to the total dimension is componentwise smaller.
TestSet and hom_profile keep that definition as the reference the tests
compare the rank order against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .errors import NotADegeneration, ParseError
from .windows import (
    Window,
    WindowMultiset,
    multiset_hom_dim,
    multiset_ranks,
    window_hom_dim,
)


# Test oracle: the Hom order the rank order is checked against.
@dataclass(frozen=True)
class TestSet:
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


def _rank_key(ms: WindowMultiset, total: int) -> list[int]:
    """Negated composite ranks: the order is componentwise <= on these keys."""
    return [-r for row in multiset_ranks(ms, total) for r in row]


def degenerates(m: WindowMultiset, nn: WindowMultiset) -> bool:
    """True iff m degenerates to nn: same dimension vector, dominating ranks.

    The rank order (Kempken 1982; see the module docstring): every composite
    of arrow maps has rank in m at least its rank in nn.
    """
    if m.n != nn.n:
        raise ParseError("multisets have different ranks")
    if m.dim_vector() != nn.dim_vector():
        return False
    total = m.total_dim()
    return all(a <= b for a, b in zip(_rank_key(m, total), _rank_key(nn, total)))


def codim(m: WindowMultiset, nn: WindowMultiset) -> int:
    """Codimension of the degeneration: self-hom of nn minus self-hom of m."""
    if not degenerates(m, nn):
        raise NotADegeneration(f"{m!r} does not degenerate to {nn!r}")
    return multiset_hom_dim(nn, nn) - multiset_hom_dim(m, m)


def _fill(n, candidates, dim_vectors, skip, idx, remaining, chosen, results) -> None:
    """Append every multiset of candidates[idx:] filling remaining to results.

    Each call adds one more window, the next candidate from idx on that fits.
    Candidates come in (i, j) order, so a window that does not fit has no
    longer window with the same start that fits: the loop jumps to skip[c],
    the first candidate with the next start, instead of recursing into them.
    A module-level function rather than a closure: a recursive closure refers
    to itself and keeps its whole frame alive until a cyclic collection.
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


def enumerate_nilpotent(n: int, d: Sequence[int]) -> list[WindowMultiset]:
    """All window multisets with dimension vector d, in lexicographic order of
    their (i, j) lists: candidates come in (i, j) order, _fill picks their
    indices in non-decreasing order, and no class is a prefix of another."""
    d = tuple(int(x) for x in d)
    if len(d) != n:
        raise ParseError(f"dimension vector must have length {n}")
    if any(x < 0 for x in d):
        raise ParseError("dimension vector entries must be nonnegative")
    total = sum(d)
    if total == 0:
        return [WindowMultiset(n, ())]
    candidates = []
    for i in range(1, n + 1):
        for length in range(1, total + 1):
            w = Window(n, i, i + length - 1)
            if all(a <= b for a, b in zip(w.dim_vector(), d)):
                candidates.append(w)
    dim_vectors = [w.dim_vector() for w in candidates]
    starts = [w.i for w in candidates]
    skip = [bisect_right(starts, i) for i in starts]

    results: list[WindowMultiset] = []
    _fill(n, candidates, dim_vectors, skip, 0, d, [], results)
    return results


@dataclass(frozen=True)
class HasseEdge:
    upper: int
    lower: int
    codim: int
    label: str | None = None


@dataclass(frozen=True)
class HasseDiagram:
    n: int
    dim: tuple[int, ...]
    nodes: tuple[WindowMultiset, ...]
    edges: tuple[HasseEdge, ...]


def _below_masks(profiles) -> list[int]:
    """bit b set in mask[a] iff profiles[a] <= profiles[b] componentwise.

    Built one profile coordinate at a time: at_least[v] is the bitset of the
    nodes whose entry there is at least v, and each mask keeps the nodes in
    at_least of its own entry.
    """
    masks = [(1 << len(profiles)) - 1] * len(profiles)
    for column in zip(*profiles):
        exact: dict[int, int] = {}
        for b, v in enumerate(column):
            exact[v] = exact.get(v, 0) | (1 << b)
        at_least, acc = {}, 0
        for v in sorted(exact, reverse=True):
            acc |= exact[v]
            at_least[v] = acc
        masks = [mask & at_least[v] for mask, v in zip(masks, column)]
    return masks


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


def hasse(n: int, d: Sequence[int]) -> HasseDiagram:
    """Covering relations of the degeneration order on classes with vector d.

    Edges run from the bigger orbit (upper) to the smaller one, sorted by
    (upper, lower) in enumeration order, and carry the codimension,
    unlabelled; singularity.annotate adds the labels. The covers are the
    transitive reduction of the order (Aho, Garey and Ullman, SIAM J.
    Comput. 1, 1972), peeled by _covers off masks over the classes sorted
    by self-Hom dimension, which grows strictly along a degeneration.
    """
    d = tuple(int(x) for x in d)
    nodes = enumerate_nilpotent(n, d)
    self_hom = [multiset_hom_dim(node, node) for node in nodes]
    order = sorted(range(len(nodes)), key=self_hom.__getitem__)
    total = sum(d)
    below = _below_masks([_rank_key(nodes[e], total) for e in order])
    pairs = sorted((order[g], order[h]) for g, h in _covers(below))
    edges = tuple(HasseEdge(a, b, self_hom[b] - self_hom[a]) for a, b in pairs)
    return HasseDiagram(n, d, tuple(nodes), edges)


def codim2_pairs(diagram: HasseDiagram) -> list[tuple[int, int]]:
    """Sorted (upper, lower) node indices of diagram's codimension-2 pairs.

    A proper degeneration has codimension >= 1 and codimension adds along a
    chain, so a maximal chain of covers from upper to lower is one cover of
    codimension 2 or two of codimension 1; conversely each of these gives a
    codimension-2 degeneration. The set merges composites that share their
    ends through different middle classes.
    """
    down: dict[int, list[int]] = {}
    pairs = set()
    for e in diagram.edges:
        if e.codim == 1:
            down.setdefault(e.upper, []).append(e.lower)
        elif e.codim == 2:
            pairs.add((e.upper, e.lower))
    for upper, middles in down.items():
        for middle in middles:
            pairs.update((upper, lower) for lower in down.get(middle, ()))
    return sorted(pairs)


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
