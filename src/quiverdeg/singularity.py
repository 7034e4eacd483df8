"""Singularity types of codimension-2 degenerations of nilpotent classes.

The classifier peels a pair of classes down by three moves that preserve the
singularity type of the orbit-closure point: cancelling common summands,
quotienting by the socle of the degenerating class when that socle is
residue-disjoint from its complement in the other socle, and the dual move
on tops. Codimension never increases along the way and the total dimension
strictly drops at each quotient, so the loop terminates, ending in one of:
a codimension <= 1 pair (regular point), the terminal one-window-versus-two
pattern (an A_r surface singularity), or a stuck pair that is reported as
Unresolved rather than guessed at.

Every run returns a full audit trace. Note one systematic divergence from
reducing all the way to the empty pair: once the running codimension drops
to 1 the answer is already Reg, so the trace stops there instead of
recording further quotient steps.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple, Sequence

from .errors import Inconsistent, NotADegeneration, OutOfScope, ParseError, as_int
from .degeneration import HasseDiagram, HasseEdge, codim, codim2_pairs
from .linalg import parse_rational
from .reps import MAX_RANK, MAX_TOTAL_DIM, check_cap
from .windows import Window, WindowMultiset, _canonical, residue


class SingularityType(NamedTuple):
    """Reg, A(r) or Unresolved: the only answers the classifier gives on
    nilpotent classes of a cyclic quiver."""

    kind: str
    index: int | None = None

    @classmethod
    def reg(cls) -> "SingularityType":
        return cls("Reg")

    @classmethod
    def a_type(cls, r: int) -> "SingularityType":
        r = as_int("A-type index", r)
        if r < 1:
            raise ParseError("A-type index must be at least 1")
        return cls("A", r)

    @classmethod
    def unresolved(cls) -> "SingularityType":
        return cls("Unresolved")

    def __str__(self) -> str:
        if self.kind == "A":
            return f"{self.kind}{self.index}"
        return self.kind


class ReductionStep(NamedTuple):
    """One classifier move together with the pair it produced and its codim."""

    kind: str  # "cancel" | "socle" | "top" | "relabel" | "terminal"
    m: WindowMultiset
    n: WindowMultiset
    codim: int
    residues: tuple[int, ...] = ()
    shift: int | None = None
    lengths: tuple[int, int, int] | None = None

    def to_obj(self) -> dict:
        obj = {
            "kind": self.kind,
            "m": [[w.i, w.j] for w in self.m.windows],
            "n": [[w.i, w.j] for w in self.n.windows],
            "codim": self.codim,
        }
        if self.residues:
            obj["residues"] = list(self.residues)
        if self.shift is not None:
            obj["shift"] = self.shift
        if self.lengths is not None:
            obj["lengths"] = list(self.lengths)
        return obj


class ReductionTrace(NamedTuple):
    """Ordered record of the classifier's moves on one input pair."""

    n: int
    start_m: WindowMultiset
    start_n: WindowMultiset
    start_codim: int
    steps: tuple[ReductionStep, ...]
    result: SingularityType

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "start": {
                "m": [[w.i, w.j] for w in self.start_m.windows],
                "n": [[w.i, w.j] for w in self.start_n.windows],
            },
            "start_codim": self.start_codim,
            "result": str(self.result),
            "steps": [s.to_obj() for s in self.steps],
        }


def cancel_common(
    m: WindowMultiset, nn: WindowMultiset
) -> tuple[WindowMultiset, WindowMultiset]:
    """Remove the multiset intersection from both sides.

    Each window of m is struck from a copy of nn's, or kept if none is left;
    both sides stay in their sorted order.
    """
    if m.n != nn.n:
        raise ParseError("multisets have different ranks")
    keep_a, keep_b = [], list(nn.windows)
    for w in m.windows:
        if w in keep_b:
            keep_b.remove(w)
        else:
            keep_a.append(w)
    make = WindowMultiset._make
    return make((m.n, tuple(keep_a))), make((nn.n, tuple(keep_b)))


def socle_reduce(m: WindowMultiset, nn: WindowMultiset):
    """Quotient both sides by the socle of m, when that is sound.

    Let u = socle(m) and w = socle(nn) - u. When u and w share no residue,
    the unique copy of u inside nn is all of its socle at u's residues, and
    quotienting both sides preserves the singularity type. Returns the
    reduced pair plus the residues used, or None when u and w collide.
    """
    if m.n != nn.n:
        raise ParseError("multisets have different ranks")
    counts = list(zip(m.socle().counts, nn.socle().counts))
    if any(a > b for a, b in counts):
        raise Inconsistent("socle of the degenerating class exceeds the other socle")
    if any(0 < a < b for a, b in counts):
        return None
    residues = tuple(r for r, (a, _) in enumerate(counts, 1) if a)
    return m.quotient_by_socle(residues), nn.quotient_by_socle(residues), residues


def top_reduce(m: WindowMultiset, nn: WindowMultiset):
    """Pass both sides to radicals at the top residues of m, when that is sound.

    This is socle_reduce read through the duality [i, j] -> [-j, -i], which
    sends the socle residue r of the dual to the top residue -r of the class.
    """
    reduced = socle_reduce(m.dual(), nn.dual())
    if reduced is None:
        return None
    dm, dn, residues = reduced
    return dm.dual(), dn.dual(), tuple(sorted(residue(-r, m.n) for r in residues))


def _terminal_lengths(
    m: WindowMultiset, nn: WindowMultiset
) -> tuple[int, int, int]:
    """Validate the terminal one-versus-two pattern; return (a, b, c) in n-units."""
    n = m.n
    if m.summand_count() != 1:
        raise Inconsistent(f"terminal M must be a single window, got {m!r}")
    if nn.summand_count() != 2:
        raise Inconsistent(f"terminal N must have two windows, got {nn!r}")
    w = m.windows[0]
    p, q = nn.windows
    if not (w.i == p.i == q.i):
        raise Inconsistent("terminal windows must share their socle residue")
    if not (residue(w.j, n) == residue(p.j, n) == residue(q.j, n)):
        raise Inconsistent("terminal windows must share their top residue")
    if w.length % n or p.length % n or q.length % n:
        raise Inconsistent("terminal window lengths must be multiples of the rank")
    a, b, c = w.length // n, p.length // n, q.length // n
    if a != b + c:
        raise Inconsistent("terminal lengths must satisfy a = b + c")
    if min(b, c) != 1:
        raise Inconsistent(
            "terminal pattern has codimension 2*min(b,c) > 2; out of contract"
        )
    return a, b, c


def _checked_codim(m: WindowMultiset, nn: WindowMultiset) -> int:
    try:
        return codim(m, nn)
    except NotADegeneration:
        raise Inconsistent(
            f"reduction produced a non-degenerating pair {m!r} -> {nn!r}"
        ) from None


def classify(
    m: WindowMultiset, nn: WindowMultiset
) -> tuple[SingularityType, ReductionTrace]:
    """Singularity type of a codimension <= 2 degeneration, with audit trace.

    The loop: cancel common summands; stop with Reg when the pair empties or
    the codimension drops to <= 1; otherwise socle-reduce, else top-reduce,
    and recurse; when neither applies and the lower class has at most two
    summands, relabel to the terminal pattern and read off A_r; with more
    than two summands the pair is reported Unresolved.
    """
    start = current = codim(m, nn)  # raises ParseError or NotADegeneration
    if current > 2:
        raise OutOfScope(f"codimension {current} exceeds 2")
    steps: list[ReductionStep] = []
    cm, cn = m, nn
    result: SingularityType
    while True:
        rm, rn = cancel_common(cm, cn)
        if (rm, rn) != (cm, cn):
            cm, cn = rm, rn
            current = _checked_codim(cm, cn)
            steps.append(ReductionStep("cancel", cm, cn, current))
        if current <= 1:
            result = SingularityType.reg()
            break
        kind, reduced = "socle", socle_reduce(cm, cn)
        if reduced is None:
            kind, reduced = "top", top_reduce(cm, cn)
        if reduced is not None:
            cm, cn, residues = reduced
            current = _checked_codim(cm, cn)
            steps.append(
                ReductionStep(kind, cm, cn, current, residues=residues)
            )
            continue
        if cn.summand_count() <= 2:
            a, b, c = _terminal_lengths(cm, cn)
            shift = -cm.windows[0].i
            steps.append(
                ReductionStep("relabel", cm, cn, current, shift=shift)
            )
            result = SingularityType.a_type(max(b, c))
            steps.append(
                ReductionStep("terminal", cm, cn, current, lengths=(a, b, c))
            )
            break
        result = SingularityType.unresolved()
        break
    return result, ReductionTrace(m.n, m, nn, start, tuple(steps), result)


def _dim_vectors(n: int, max_total: int):
    """Dimension vectors of rank n, by total 1..max_total, then lexicographically."""
    for total in range(1, max_total + 1):
        yield from _compositions(n, total)


def _compositions(n: int, total: int):
    """The n-tuples of nonnegative integers summing to total, lexicographically."""
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(n - 1, total - head):
            yield (head,) + rest


def _residue_table(ms: WindowMultiset) -> tuple[tuple[int, ...], ...]:
    """For each residue v - 1 in 0..n-1, the ascending j - i of ms's windows [v, j]."""
    table = [()] * ms.n
    for _, i, j in ms.windows:
        table[i - 1] += (j - i,)
    return tuple(table)


def _orbit_key(m: WindowMultiset, nn: WindowMultiset):
    """A key that two pairs share iff one is the other rotated: (n, the least
    over shifts s of the pair's residue tables rotated s places).

    A window [i, j] is fixed by its start's residue and its length, so a
    side's _residue_table names its class, and rotating the class s places
    rotates the table s places. No window is built.
    """
    n = m.n
    a, b = _residue_table(m), _residue_table(nn)
    return n, min((a[s:] + a[:s], b[s:] + b[:s]) for s in range(n))


def _memo_verdict(memo: dict, m: WindowMultiset, nn: WindowMultiset) -> SingularityType:
    """classify's verdict on (m, nn), looked up by the pair left after
    cancelling, then by that pair's rotation orbit.

    classify's first move cancels the common summands, and every later move
    sees only the cancelled pair, so pairs that cancel to the same pair share
    their verdict. Rotating the cycle commutes with cancelling and with every
    later move (proved move by move in scan_rows), so the rotations of a
    cancelled pair share it too. memo maps both keys to verdicts: the
    cancelled pair, and on a miss its _orbit_key (an int first, where a pair
    has a class, so the two never collide). An orbit is classified once, on
    the first pair met in it as that pair stands. memo is owned by the
    caller, one per scan or annotation.
    """
    key = cancel_common(m, nn)
    verdict = memo.get(key)
    if verdict is None:
        orbit = _orbit_key(*key)
        verdict = memo.get(orbit)
        if verdict is None:
            verdict = memo[orbit] = classify(*key)[0]
        memo[key] = verdict
    return verdict


def _scan_row(memo: dict, n: int, d: tuple[int, ...]):
    """classes, (codim2, Reg, A, Unresolved) counts and the Unresolved pairs of d."""
    nodes, pairs = codim2_pairs(n, d)
    kinds = {"Reg": 0, "A": 0, "Unresolved": 0}
    unresolved = []
    for a, b in pairs:
        kind = _memo_verdict(memo, nodes[a], nodes[b]).kind
        kinds[kind] += 1
        if kind == "Unresolved":
            unresolved.append((nodes[a], nodes[b]))
    return len(nodes), (len(pairs), *kinds.values()), tuple(unresolved)


def _rotate(ms: WindowMultiset, s: int) -> WindowMultiset:
    """ms under the rotation v -> v + s of the cycle: [i, j] -> [i + s, j + s]."""
    n = ms.n
    out = sorted(Window._make(_canonical(n, i + s, j + s)) for _, i, j in ms.windows)
    return WindowMultiset._make((n, tuple(out)))


def scan_rows(max_n: int, max_dim: int):
    """The verdicts on all codim-2 pairs, one row per dimension vector.

    For each rank n <= max_n and dimension vector d of total <= max_dim, in
    the order of _dim_vectors, yields (n, d, classes, (codim2, reg, a,
    unres), unresolved): the number of classes, the number of ordered pairs
    of classes with codimension exactly 2 (codim2_pairs, with no Hasse
    diagram) and how many of them classify calls Reg, A_r and Unresolved,
    and a tuple of the Unresolved pairs as (upper, lower) in node order.
    Verdicts are shared across the scan as _memo_verdict says: by the pair
    left after cancelling and by that pair's rotation orbit.

    The row is computed once per rotation orbit. The rotation rho_s: v ->
    v + s is an automorphism of the cycle; on windows it is [i, j] -> [i + s,
    j + s], and it sends the classes of d to those of d rotated s places. It
    relabels vertices, so it keeps the rank of every composite (read at the
    rotated vertex) and every Hom dimension: it preserves the degeneration
    order and codimension and maps the codim-2 pairs of d one to one onto
    those of rho_s d. classify's verdict commutes with it, move by move:

    - cancel_common(rho M, rho N) = rho cancel_common(M, N), since rho is
      one to one on windows.
    - codim is invariant, so the Reg and scope tests agree.
    - The socle counts of rho M are those of M moved s residues on, and
      socle_reduce's tests (exceeding, collision) are per residue. So it
      applies to (rho M, rho N) iff to (M, N), quotients at the residues
      moved s on, and gives the rotated pair.
    - top_reduce is socle_reduce on dual, and dual rho_s = rho_-s dual
      ([i + s, j + s] -> [-j - s, -i - s]), so the same holds for it.
    - Summand counts, window lengths and the equality of socle and of top
      residues are invariant, so the terminal test and its lengths (a, b,
      c) agree.

    By induction on the loop the steps, codims and lengths agree, and so
    does the verdict; only a trace's residues and relabel shift change. The
    reflection (dual) is not used: on a dual pair classify tries the top
    move before the socle move, and no proof that their order leaves the
    verdict unchanged is written yet.

    Within one total the vectors come lexicographically, so the first vector
    of each orbit is its smallest rotation; codim2_pairs and the memo run
    only there. Its row is kept until the total ends, and every later
    rotation rho_s of it reuses the counts and rotates its Unresolved
    pairs. They are then sorted by their windows: the node order of rho_s d,
    since enumerate_nilpotent lists the classes in lexicographic order of
    their (i, j) lists and no class of one vector is a prefix of another.

    Both bounds are checked against their caps before the first row.
    """
    check_cap("rank", max_n, MAX_RANK)
    check_cap("total dimension", max_dim, MAX_TOTAL_DIM)
    memo: dict = {}
    for n in range(1, max_n + 1):
        for _, vectors in groupby(_dim_vectors(n, max_dim), key=sum):
            rows: dict = {}
            for d in vectors:
                # d is its orbit's first vector rotated shift places.
                first, shift = min((d[k:] + d[:k], k) for k in range(n))
                if first not in rows:
                    rows[first] = _scan_row(memo, n, first)
                classes, counts, unresolved = rows[first]
                if shift:
                    unresolved = tuple(sorted(
                        (_rotate(m, shift), _rotate(nn, shift)) for m, nn in unresolved
                    ))
                yield n, d, classes, counts, unresolved


def annotate(diagram: HasseDiagram) -> HasseDiagram:
    """The diagram with its covers labelled by the singularity type.

    Codimension-1 covers are Reg and codimension-2 covers get the verdict of
    classify, shared as _memo_verdict says (by the cancelled pair and its
    rotation orbit); deeper covers stay unlabelled.
    """
    memo: dict = {}
    edges = []
    for e in diagram.edges:
        label = e.label
        if e.codim == 1:
            label = "Reg"
        elif e.codim == 2:
            upper, lower = diagram.nodes[e.upper], diagram.nodes[e.lower]
            label = str(_memo_verdict(memo, upper, lower))
        edges.append(HasseEdge(e.upper, e.lower, e.codim, label))
    return diagram._replace(edges=tuple(edges))


def model_variety_membership(kind: str, r: int, point: Sequence) -> bool:
    """Exact membership test for the two model varieties.

    kind "A": points (x, y, z) with x^r = y z. kind "C": points
    (x_0, ..., x_r) with x_i x_j = x_l x_m whenever i + j = l + m.
    """
    r = as_int("model variety index", r)
    if r < 1:
        raise ParseError("model variety index must be at least 1")
    kind = kind.upper()
    coords = [parse_rational(x) for x in point]
    if kind == "A":
        if len(coords) != 3:
            raise ParseError(f"A({r}) points have 3 coordinates, got {len(coords)}")
        x, y, z = coords
        return x**r == y * z
    if kind == "C":
        if len(coords) != r + 1:
            raise ParseError(
                f"C({r}) points have {r + 1} coordinates, got {len(coords)}"
            )
        for total in range(2 * r + 1):
            products = [
                coords[i] * coords[total - i]
                for i in range(max(0, total - r), min(r, total) + 1)
            ]
            if any(p != products[0] for p in products):
                return False
        return True
    raise ParseError(f"unknown model variety kind {kind!r}")
