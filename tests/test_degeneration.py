import ast
import gc
import itertools
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverdeg import degeneration
from quiverdeg.degeneration import (
    HasseDiagram,
    _below_masks,
    _covers,
    _tables,
    TestSet as ProbeSet,
    codim,
    codim2_pairs,
    degenerates,
    enumerate_nilpotent,
    hasse,
    hom_profile,
    to_dot,
    to_json_obj,
)
from quiverdeg.errors import NotADegeneration, ParseError
from quiverdeg.formats import MAX_RANK, MAX_TOTAL_DIM
from quiverdeg.singularity import _compositions, _dim_vectors, annotate, classify, scan_rows
from quiverdeg.windows import (
    Window,
    WindowMultiset,
    multiset_hom_dim,
    residue,
)

from conftest import random_multiset
from oracles import (
    below_masks,
    codim2_pairs_from_masks,
    enumerate_reference,
    flat_ranks,
    graded_masks,
    multiset_dim_vector,
    multiset_ranks,
    pack_ranks,
)


def partitions(total):
    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    return list(rec(total, total))


def dominates(lam, mu):
    """Independent dominance comparator on partitions of the same size."""
    if sum(lam) != sum(mu):
        return False
    acc_l = acc_m = 0
    for k in range(max(len(lam), len(mu))):
        acc_l += lam[k] if k < len(lam) else 0
        acc_m += mu[k] if k < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def to_partition(ms):
    return tuple(sorted((w.length for w in ms.windows), reverse=True))


def from_partition(parts):
    return WindowMultiset(1, [(1, p) for p in parts])


# ---------------------------------------------------------------- profiles


def test_profile_of_empty_class():
    ts = ProbeSet.up_to(2, 3)
    assert hom_profile(WindowMultiset(2), ts) == (0,) * 6


def test_profile_loop_length_two():
    ts = ProbeSet.up_to(1, 3)
    assert hom_profile(WindowMultiset(1, [(1, 2)]), ts) == (1, 2, 2)


def test_profile_rank_mismatch():
    with pytest.raises(ParseError, match="multiset and test set have different ranks"):
        hom_profile(WindowMultiset(2), ProbeSet.up_to(3, 2))


def test_profile_stabilizes_beyond_total_dim(rng):
    # against windows longer than the class, the profile entry depends only
    # on the test window's residue
    for _ in range(10):
        n = rng.choice([1, 2, 3])
        ms = random_multiset(rng, n)
        total = ms.total_dim()
        ts = ProbeSet.up_to(n, total + 3)
        profile = hom_profile(ms, ts)
        values = dict(zip(ts.windows, profile))
        for y in ts.windows:
            if y.length >= max(total, 1):
                longer = Window(n, y.i, y.j + n)
                if longer in values:
                    assert values[y] == values[longer]


def test_profiles_determine_classes():
    for n in (1, 2, 3):
        for total in range(0, 7):
            for dims in _compositions(n, total):
                classes = enumerate_nilpotent(n, dims)
                ts = ProbeSet.up_to(n, total)
                profiles = [hom_profile(c, ts) for c in classes]
                assert len(set(profiles)) == len(classes)


# ---------------------------------------------------------------- the order


def test_known_pair_degenerates():
    m = WindowMultiset(2, [(1, 4)])
    nn = WindowMultiset(2, [(1, 2), (2, 3)])
    assert degenerates(m, nn)
    assert not degenerates(nn, m)


def test_degenerates_reflexive(rng):
    for _ in range(10):
        ms = random_multiset(rng, rng.choice([1, 2, 3]))
        assert degenerates(ms, ms)


def test_degenerates_needs_same_dim_vector():
    pairs = [
        # Equal totals: simples at two vertices, a long window against
        # simples, and two windows of one length with different starts.
        (WindowMultiset(2, [(1, 1)]), WindowMultiset(2, [(2, 2)])),
        (WindowMultiset(3, [(1, 3)]), WindowMultiset(3, [(1, 1), (1, 1), (2, 2)])),
        (WindowMultiset(3, [(1, 2)]), WindowMultiset(3, [(2, 3)])),
        # Unequal totals, where the larger class's ranks dominate on every
        # composite.
        (WindowMultiset(2, [(1, 4)]), WindowMultiset(2, [(1, 2)])),
        (WindowMultiset(1, [(1, 3)]), WindowMultiset(1)),
    ]
    for m, nn in pairs:
        assert multiset_dim_vector(m) != multiset_dim_vector(nn)
        assert not degenerates(m, nn), (m, nn)
        assert not degenerates(nn, m), (nn, m)


def test_degenerates_rank_mismatch():
    with pytest.raises(ParseError, match="multisets have different ranks"):
        degenerates(WindowMultiset(1), WindowMultiset(2))


def _rank_order(m, nn, total):
    """The oracle's order: componentwise >= on the list ranks."""
    return all(map(int.__ge__, flat_ranks(m, total), flat_ranks(nn, total)))


def test_degenerates_is_the_componentwise_rank_order():
    # degenerates is one guarded subtraction of rank keys. Against the list
    # ranks: every ordered pair of classes with one vector for n <= 3,
    # total <= 9, and every pair of distinct vectors of one total, where it
    # must be False, for n <= 3, total <= 6. Total 0 adds its three empty
    # pairs to the 217,405 of totals 1 to 9.
    same = distinct = 0
    for n in (1, 2, 3):
        for total in range(10):
            classes = {d: enumerate_nilpotent(n, d) for d in _compositions(n, total)}
            ranks = {ms: flat_ranks(ms, total) for c in classes.values() for ms in c}
            for c in classes.values():
                for m, nn in itertools.product(c, repeat=2):
                    expected = all(map(int.__ge__, ranks[m], ranks[nn]))
                    assert degenerates(m, nn) == expected, (m, nn)
                    same += 1
            if total > 6:
                continue
            for c, e in itertools.permutations(classes.values(), 2):
                for m, nn in itertools.product(c, e):
                    assert not degenerates(m, nn), (m, nn)
                    distinct += 1
    assert (same, distinct) == (217_408, 62_542)


def _split(rnd, ms):
    """ms with its longest window cut in two at a random point: a class that
    ms degenerates to, with the same vector."""
    *rest, (_, i, j) = sorted(ms.windows, key=lambda w: w.length)
    k = rnd.randrange(i, j)
    return WindowMultiset(ms.n, rest + [(i, k), (k + 1, j)])


def test_degenerates_at_the_caps():
    # The largest rank a key holds is 40, at rank 1 and total 40. Fixed
    # pairs put 40 against 0 in one byte: a window of length 40 against 40
    # simples (t >= 1), and 40 simples at vertex 1 against 40 at vertex 2
    # (t = 0). Seeded random pairs with one vector at rank 1 and at rank 40,
    # each class also against a split of itself, both ways round.
    simples = [WindowMultiset(2, [(v, v)] * 40) for v in (1, 2)]
    cases = [
        (WindowMultiset(1, [(1, 40)]), WindowMultiset(1, [(1, 1)] * 40)),
        tuple(simples),
    ]
    rnd = random.Random(26)
    for n in (1, MAX_RANK):
        for _ in range(50):
            dims = [0] * n
            for _ in range(MAX_TOTAL_DIM):
                dims[rnd.randrange(n)] += 1
            a, b = _random_class(rnd, n, dims), _random_class(rnd, n, dims)
            if max(w.length for w in a.windows) > 1:
                cases.append((a, _split(rnd, a)))
            cases.append((a, b))
    verdicts = []
    for a, b in cases:
        for m, nn in ((a, b), (b, a)):
            expected = _rank_order(m, nn, MAX_TOTAL_DIM)
            assert degenerates(m, nn) == expected, (m, nn)
            verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)


def test_degenerates_and_codim_check_the_total_cap():
    # The keys hold one rank per byte under a 0x80 guard, so a total past
    # MAX_TOTAL_DIM = 40 is refused before either key is built.
    big = WindowMultiset(1, [(1, 41)])
    for call in (degenerates, codim):
        for nn in (big, WindowMultiset(1, [(1, 1)] * 41)):
            with pytest.raises(ParseError) as caught:
                call(big, nn)
            assert str(caught.value) == "total dimension 41 exceeds the cap of 40"
    assert not degenerates(WindowMultiset(1, [(1, 40)]), big)


def test_lone_classes_leave_the_shared_tables_alone():
    # _tables keeps one (rank, total) entry, which scan shares across a
    # total. degenerates, codim and classify build each class's key alone,
    # so pairs of another total neither hit nor miss that cache.
    diagram = hasse(3, (2, 2, 1))
    nodes = diagram.nodes
    pairs = [(nodes[e.upper], nodes[e.lower]) for e in diagram.edges if e.codim <= 2]
    pairs += [(nodes[a], nodes[b]) for a, b in codim2_pairs(3, (2, 2, 1))[1]]
    enumerate_nilpotent(3, (2, 2, 2))
    before = _tables.cache_info()
    for m, nn in pairs:
        assert degenerates(m, nn)
        codim(m, nn)
        classify(m, nn)
    assert _tables.cache_info() == before
    assert len(pairs) > 10


def test_codim_known_values():
    assert codim(WindowMultiset(2, [(1, 4)]), WindowMultiset(2, [(1, 2), (2, 3)])) == 2
    assert codim(WindowMultiset(2, [(2, 4)]), WindowMultiset(2, [(2, 2), (2, 3)])) == 1
    ms = WindowMultiset(2, [(1, 3)])
    assert codim(ms, ms) == 0
    assert codim(WindowMultiset(1, [(1, 5)]), WindowMultiset(1, [(1, 2), (1, 3)])) == 4


def test_codim_rejects_incomparable():
    with pytest.raises(NotADegeneration):
        codim(WindowMultiset(2, [(1, 2), (2, 3)]), WindowMultiset(2, [(1, 4)]))


def test_loop_codim_is_twice_min():
    for b in range(1, 5):
        for c in range(b, 5):
            m = WindowMultiset(1, [(1, b + c)])
            nn = WindowMultiset(1, [(1, b), (1, c)])
            assert codim(m, nn) == 2 * min(b, c)


# ---------------------------------------------------------------- enumeration


def test_enumerate_loop_counts_partitions():
    assert len(enumerate_nilpotent(1, (3,))) == 3
    assert len(enumerate_nilpotent(1, (5,))) == 7


def test_enumerate_two_vertex_unit_vector():
    classes = enumerate_nilpotent(2, (1, 1))
    assert classes == sorted(classes, key=lambda ms: [(w.i, w.j) for w in ms.windows])
    assert set(classes) == {
        WindowMultiset(2, [(1, 2)]),
        WindowMultiset(2, [(2, 3)]),
        WindowMultiset(2, [(1, 1), (2, 2)]),
    }


def test_enumerate_zero_vector():
    assert enumerate_nilpotent(2, (0, 0)) == [WindowMultiset(2)]


def test_enumerate_negative_entry_rejected():
    with pytest.raises(ParseError, match="dimension vector entries must be nonnegative"):
        enumerate_nilpotent(2, (1, -1))


def test_dimension_vector_entries_must_be_integers():
    # A float or a string was read with int(): (1.5, 0) gave the classes of
    # (1, 0), and hasse of (1.9, 0.2) the diagram of (1, 0).
    for build, n, d, entry in (
        (enumerate_nilpotent, 2, (1.5, 0), "1.5"),
        (hasse, 2, (1.9, 0.2), "1.9"),
        (enumerate_nilpotent, 1, ("3",), "'3'"),
        (hasse, 2, (1, "0"), "'0'"),
    ):
        with pytest.raises(ParseError) as caught:
            build(n, d)
        assert str(caught.value) == f"dimension vector entry {entry} is not an integer"
    # Integers in any sequence still give the classes of their tuple.
    assert enumerate_nilpotent(3, [2, 1, 0]) == enumerate_reference(3, (2, 1, 0))
    assert enumerate_nilpotent(2, iter((1, 1))) == enumerate_nilpotent(2, (1, 1))
    assert hasse(2, [2, 1]) == hasse(2, (2, 1))
    assert hasse(2, [2, 1]).dim == (2, 1)


def test_enumerate_nilpotent_equals_the_reference_search():
    vectors = [
        (n, d)
        for n, max_total in ((1, 16), (2, 10), (3, 8), (4, 7))
        for d in _dim_vectors(n, max_total)
    ] + [(3, (5, 5, 5))]
    assert len(vectors) == 575
    for n, d in vectors:
        assert enumerate_nilpotent(n, d) == enumerate_reference(n, d), (n, d)


def test_enumerate_dim_vectors_match(rng):
    for _ in range(5):
        n = rng.choice([1, 2, 3])
        dims = tuple(rng.randint(0, 3) for _ in range(n))
        for ms in enumerate_nilpotent(n, dims):
            assert multiset_dim_vector(ms) == dims


def _brute_force_classes(n, total):
    """Every class of rank n and the given total: lengths from a partition of
    the total, and any start residue for each part."""
    found = set()
    for parts in partitions(total):
        for starts in itertools.product(range(1, n + 1), repeat=len(parts)):
            found.add(WindowMultiset(n, [(i, i + p - 1) for i, p in zip(starts, parts)]))
    return found


def test_enumeration_matches_brute_force():
    for n in (1, 2, 3):
        for total in range(0, 7):
            got = []
            for dims in _compositions(n, total):
                classes = enumerate_nilpotent(n, dims)
                assert classes == sorted(
                    set(classes), key=lambda ms: [(w.i, w.j) for w in ms.windows])
                assert all(multiset_dim_vector(ms) == dims for ms in classes)
                got.extend(classes)
            assert set(got) == _brute_force_classes(n, total), (n, total)


# ---------------------------------------------------------------- oracle


def test_rank_order_equals_hom_order_exhaustively():
    # Kempken's rank order (graded_masks) against the Hom order, on every
    # ordered pair of classes for n = 1 to total 14 and n = 2, 3 to total 8.
    pairs = 0
    for n, max_total in ((1, 14), (2, 8), (3, 8)):
        for total in range(1, max_total + 1):
            for dims in _compositions(n, total):
                nodes, _, order, below = graded_masks(n, dims)
                ts = ProbeSet.up_to(n, total)
                # rank_a >= rank_b iff hom_a <= hom_b: negate the Hom profiles.
                negated = [[-h for h in hom_profile(nodes[e], ts)] for e in order]
                hom_order = below_masks(negated, negated)
                assert below == hom_order, (n, dims)
                pairs += len(nodes) ** 2
    assert pairs == 113_355


def _random_class(rnd, n, dims):
    """A class with dimension vector dims, grown one window at a time."""
    remaining = list(dims)
    windows = []
    while any(remaining):
        i = rnd.choice([v for v in range(1, n + 1) if remaining[v - 1]])
        remaining[i - 1] -= 1
        j = i
        while remaining[j % n] and rnd.random() < 0.7:
            remaining[j % n] -= 1
            j += 1
        windows.append((i, j))
    return WindowMultiset(n, windows)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(9, 16), st.randoms(use_true_random=False))
def test_rank_order_equals_hom_order_beyond_the_exhaustive_range(n, total, rnd):
    dims = [0] * n
    for _ in range(total):
        dims[rnd.randrange(n)] += 1
    a, b = _random_class(rnd, n, dims), _random_class(rnd, n, dims)
    ts = ProbeSet.up_to(n, total)
    pa, pb = hom_profile(a, ts), hom_profile(b, ts)
    assert degenerates(a, b) == all(x <= y for x, y in zip(pa, pb))
    assert degenerates(b, a) == all(y <= x for x, y in zip(pa, pb))


def test_dominance_oracle_small():
    # full d <= 7 sweep runs in the acceptance suite
    for total in range(1, 6):
        classes = {to_partition(ms): ms for ms in enumerate_nilpotent(1, (total,))}
        for lam, mu in itertools.product(classes, repeat=2):
            expected = dominates(lam, mu)
            assert degenerates(classes[lam], classes[mu]) == expected


def test_test_set_stability(rng):
    for _ in range(8):
        n = rng.choice([1, 2, 3])
        a = random_multiset(rng, n)
        b = random_multiset(rng, n)
        if multiset_dim_vector(a) != multiset_dim_vector(b):
            continue
        total = a.total_dim()
        small = ProbeSet.up_to(n, total)
        big = ProbeSet.up_to(n, total + n)
        verdict_small = all(
            x <= y for x, y in zip(hom_profile(a, small), hom_profile(b, small))
        )
        verdict_big = all(
            x <= y for x, y in zip(hom_profile(a, big), hom_profile(b, big))
        )
        assert verdict_small == verdict_big


def test_right_hom_profiles_follow_by_duality(rng):
    # degeneration also dominates profiles of homs FROM test objects,
    # seen through the dual classes
    for _ in range(10):
        n = rng.choice([1, 2])
        a = random_multiset(rng, n)
        b = random_multiset(rng, n)
        if multiset_dim_vector(a) != multiset_dim_vector(b) or not degenerates(a, b):
            continue
        ts = ProbeSet.up_to(n, a.total_dim())
        for y in ts.windows:
            ym = WindowMultiset(n, [y])
            assert multiset_hom_dim(ym, a) <= multiset_hom_dim(ym, b)


# ---------------------------------------------------------------- hasse


def test_hasse_loop_dim_two():
    diagram = annotate(hasse(1, (2,)))
    assert len(diagram.nodes) == 2
    (edge,) = diagram.edges
    assert edge.codim == 2
    assert edge.label == "A1"
    assert diagram.nodes[edge.upper] == WindowMultiset(1, [(1, 2)])
    assert diagram.nodes[edge.lower] == WindowMultiset(1, [(1, 1), (1, 1)])


def test_hasse_loop_dim_three_chain():
    diagram = hasse(1, (3,))
    assert len(diagram.nodes) == 3
    codims = sorted(e.codim for e in diagram.edges)
    assert codims == [2, 4]


def test_hasse_singleton():
    diagram = hasse(1, (1,))
    assert len(diagram.nodes) == 1
    assert diagram.edges == ()


def test_hasse_edges_are_covers_with_positive_codim():
    diagram = hasse(2, (2, 2))
    for e in diagram.edges:
        assert e.codim >= 1
        upper, lower = diagram.nodes[e.upper], diagram.nodes[e.lower]
        assert degenerates(upper, lower)
        for mid in diagram.nodes:
            if mid in (upper, lower):
                continue
            assert not (degenerates(upper, mid) and degenerates(mid, lower))


def test_partial_order_axioms_small():
    for n, dims in ((1, (4,)), (2, (2, 1)), (2, (2, 2))):
        classes = enumerate_nilpotent(n, dims)
        for a in classes:
            assert degenerates(a, a)
        for a, b in itertools.product(classes, repeat=2):
            if degenerates(a, b) and degenerates(b, a):
                assert a == b
        for a, b, c in itertools.product(classes, repeat=3):
            if degenerates(a, b) and degenerates(b, c):
                assert degenerates(a, c)


def test_codim_telescopes_along_chains():
    classes = enumerate_nilpotent(2, (2, 2))
    for a, b, c in itertools.product(classes, repeat=3):
        if a == b or b == c:
            continue
        if degenerates(a, b) and degenerates(b, c):
            assert codim(a, c) == codim(a, b) + codim(b, c)


def test_dot_output_deterministic():
    one = to_dot(annotate(hasse(1, (3,))))
    two = to_dot(annotate(hasse(1, (3,))))
    assert one == two
    assert "c=2, A2" in one
    assert "c=4" in one
    assert one.startswith("digraph degenerations {")


def test_json_output_round_trips():
    diagram = annotate(hasse(2, (1, 1)))
    obj = to_json_obj(diagram)
    text = json.dumps(obj, sort_keys=True)
    assert json.loads(text) == obj
    assert len(obj["nodes"]) == 3


def _both_kernels(rows, cols):
    """_below_masks of rows and cols with every table sent to the column
    kernel (a crossover of -1), then to the pairwise one (1 << 30): the
    property tests below draw small tables, which reach only the pairwise
    kernel as it stands."""
    masks = []
    for crossover in (-1, 1 << 30):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(degeneration, "_PAIRWISE_MAX", crossover)
            masks.append(_below_masks(rows, cols))
    return masks


def _sized_tables(pairs):
    """Seeded rows and cols of width 5, bytes 0 to 40, with len(rows) *
    len(cols) == pairs: as square as pairs's divisors allow."""
    rnd = random.Random(pairs)
    k = max(d for d in range(1, int(pairs**0.5) + 1) if pairs % d == 0)
    entries = (0, 1, 2, 39, 40)
    table = [bytes(rnd.choice(entries) for _ in range(5)) for _ in range(pairs // k + k)]
    return table[:k], table[k:]


@st.composite
def _profile_tables(draw):
    """rows and cols of one width, cols either rows itself or drawn apart.
    Small entries and short rows make ties and duplicate rows common. Up to
    two columns are then made constant, as the dimension-vector and
    all-zero columns of hasse's rank keys are, which _below_masks skips."""
    width = draw(st.integers(0, 4))
    row = st.lists(st.integers(0, 3), min_size=width, max_size=width).map(bytes)
    rows = draw(st.lists(row, max_size=12))
    cols = draw(st.one_of(st.just(rows), st.lists(row, max_size=12)))
    for value in draw(st.lists(st.integers(0, 3), max_size=2)):
        at = draw(st.integers(0, width))
        rows, cols = ([r[:at] + bytes([value]) + r[at:] for r in t] for t in (rows, cols))
        width += 1
    return rows, cols


@settings(max_examples=300, deadline=None)
@given(_profile_tables())
@example(([], []))
@example(([b""], [b""]))
@example(([b"", b"", b""], [b"", b"", b""]))
@example(([bytes([2, 1])], [bytes([2, 1])]))
@example(([bytes(r) for r in ((1, 2), (1, 2), (0, 3), (1, 3))],) * 2)
@example(([bytes(r) for r in ((3, 1, 0), (3, 0, 0), (3, 2, 0))],) * 2)
@example(([bytes([1, 1]), bytes([1, 1])],) * 2)
@example(([bytes([1, 2])], []))
@example(([], [bytes([1, 2])]))
@example(([bytes([2, 0]), bytes([3, 1])], [bytes([2, 1]), bytes([1, 0])]))
@example(([bytes([2, 2])], [bytes([0, 2]), bytes([1, 3])]))
def test_below_masks_match_componentwise_order(tables):
    rows, cols = tables
    expected = [
        sum(
            1 << b
            for b, other in enumerate(cols)
            if all(x >= y for x, y in zip(row, other))
        )
        for row in rows
    ]
    assert _both_kernels(rows, cols) == [expected, expected]


# Distinct rows: a row strictly below another in the order >= has a strictly
# smaller sum, so sorting by the sum descending gives a graded numbering, and
# small entries make equal sums common.
_distinct_rows = st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(0, 3), min_size=width, max_size=width).map(bytes),
        unique=True,
        max_size=16,
    )
)


@settings(max_examples=300, deadline=None)
@given(_distinct_rows)
@example([])
@example([bytes(r) for r in ((0, 0), (0, 1), (1, 0), (1, 1))])
@example([bytes(r) for r in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 2, 2))])
def test_peeled_covers_are_the_naive_covers(rows):
    rows = sorted(rows, key=sum, reverse=True)
    k = range(len(rows))
    ge = [[all(x >= y for x, y in zip(rows[a], rows[b])) for b in k] for a in k]
    naive = [
        (a, b)
        for a in k
        for b in k
        if a != b
        and ge[a][b]
        and not any(c not in (a, b) and ge[a][c] and ge[c][b] for c in k)
    ]
    assert [list(_covers(masks)) for masks in _both_kernels(rows, rows)] == [naive, naive]


@st.composite
def _byte_tables(draw):
    """Rows of one width 0 to 6 with bytes 0 to 40, the cap a rank key byte
    reaches, drawn often from the two ends so that ties are common; then
    duplicate rows, and up to two columns made constant. Returns them as
    both rows and cols, or split in two as codim2_pairs splits two layers."""
    width = draw(st.integers(0, 6))
    entry = st.one_of(st.integers(0, 2), st.integers(38, 40), st.integers(0, 40))
    row = st.lists(entry, min_size=width, max_size=width).map(bytes)
    rows = draw(st.lists(row, max_size=20))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
        rows = draw(st.permutations(rows))
    for at in draw(st.lists(st.integers(0, width - 1), max_size=2)) if width else ():
        value = bytes([draw(entry)])
        rows = [row[:at] + value + row[at + 1:] for row in rows]
    split = draw(st.one_of(st.none(), st.integers(0, len(rows))))
    return (rows, rows) if split is None else (rows[:split], rows[split:])


@settings(max_examples=300, deadline=None)
@given(_byte_tables())
@example(([], []))
@example(([b""], [b""]))
@example(([bytes([40, 0, 40])],) * 2)
@example(([bytes([40, 0]), bytes([0, 40]), bytes([40, 40]), bytes([40, 40])],) * 2)
@example(([bytes([40, 0]), bytes([39, 1])], [bytes([38, 40]), bytes([0, 0])]))
@example(([], [bytes([1, 2])]))
@example(([b""] * 2, [b""] * 3))
@example(_sized_tables(degeneration._PAIRWISE_MAX))
@example(_sized_tables(degeneration._PAIRWISE_MAX + 1))
def test_below_masks_equal_the_dict_reference(tables):
    rows, cols = tables
    expected = below_masks(rows, cols)
    assert _both_kernels(rows, cols) == [expected, expected]


def _count_kernels(monkeypatch):
    """The rows x cols size of each table each _below_masks kernel is given."""
    sizes = {}
    for name in ("_pairwise_masks", "_column_masks"):
        kernel, sizes[name] = getattr(degeneration, name), []
        monkeypatch.setattr(
            degeneration,
            name,
            lambda rows, cols, kernel=kernel, log=sizes[name]:
                log.append(len(rows) * len(cols)) or kernel(rows, cols),
        )
    return sizes


@pytest.mark.parametrize(
    "extra, pairwise, column", [(0, [1024], []), (1, [], [1025])], ids=["at", "past"]
)
def test_below_masks_switch_kernels_past_the_crossover(monkeypatch, extra, pairwise, column):
    sizes = _count_kernels(monkeypatch)
    rows, cols = _sized_tables(degeneration._PAIRWISE_MAX + extra)
    assert _below_masks(rows, cols) == below_masks(rows, cols)
    assert sizes == {"_pairwise_masks": pairwise, "_column_masks": column}


def test_benchmark_workloads_land_on_both_kernels(monkeypatch):
    # One scan --max-n 3 --max-dim 8 pass compares self-Hom layers of at
    # most 11 classes; annotated hasse (4,4,4) compares its 788 classes
    # with each other once.
    sizes = _count_kernels(monkeypatch)
    assert sum(1 for _ in scan_rows(3, 8)) == 216
    pairwise = sizes["_pairwise_masks"]
    assert (len(pairwise), sum(pairwise), max(pairwise)) == (222, 2205, 121)
    assert sizes["_column_masks"] == []
    pairwise.clear()
    annotate(hasse(3, (4, 4, 4)))
    assert sizes == {"_pairwise_masks": [], "_column_masks": [788 * 788]}


def test_below_masks_past_the_str_to_int_digit_limit():
    # 5,000 rows make each column a 5,000-digit binary string, past the
    # 4,300-digit limit on str to int conversions; base 2 is exempt.
    rnd = random.Random(27)
    rows = [bytes(rnd.choice((0, 1, 2, 39, 40)) for _ in range(5)) + b"\x07"
            for _ in range(5_000)]
    assert _below_masks(rows, rows) == below_masks(rows, rows)


def test_below_masks_hold_one_mask_list_at_a_time(monkeypatch):
    # The keys hasse passes for (5,5,5), 2,899 classes: building the masks
    # column by column would hold two lists of 2,899-bit masks at once, a
    # traced peak about twice the result; one pass per node stays near the
    # result's size.
    passed, kernel = [], degeneration._below_masks
    monkeypatch.setattr(
        degeneration,
        "_below_masks",
        lambda rows, cols: passed.append(rows) or kernel(rows, cols),
    )
    hasse(3, (5, 5, 5))
    (keys,) = passed
    tracemalloc.start()
    try:
        masks = _below_masks(keys, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sys.getsizeof(masks) + sum(map(sys.getsizeof, masks))
    assert peak <= 1.3 * size, (peak, size)


def test_hasse_edges_are_the_naive_covers():
    # The last three sit at the total dimension cap: the rank at (1, 0) is
    # 40, 39 and 38, the largest a rank key byte holds for any caller,
    # with 1, 4 and 14 classes of up to 40 summands.
    cases = [
        (n, dims)
        for n in (1, 2, 3)
        for total in range(1, 6)
        for dims in _compositions(n, total)
    ]
    for n, dims in cases + [(2, (40, 0)), (2, (39, 1)), (2, (38, 2))]:
        nodes = enumerate_nilpotent(n, dims)
        k = range(len(nodes))
        below = [[a != b and degenerates(nodes[a], nodes[b]) for b in k] for a in k]
        covers = [
            (a, b, codim(nodes[a], nodes[b]))
            for a in k
            for b in k
            if below[a][b] and not any(below[a][c] and below[c][b] for c in k)
        ]
        diagram = hasse(n, dims)
        assert list(diagram.nodes) == nodes
        got = [(e.upper, e.lower, e.codim) for e in diagram.edges]
        assert got == covers, (n, dims)


def test_window_hom_is_a_kernel_of_the_rank_table():
    # hasse reads self-Hom off the rank key: Hom out of [i, j] is the kernel
    # of the composite of j - i + 1 arrows at the residue v of j, so
    # hom([i, j], N) = r[v - 1][0] - r[v - 1][j - i + 1]. Taking v from i
    # instead gives other counts, so the check tells the two residues apart.
    mismatches_at_i = 0
    for n in range(1, 5):
        for nn in (c for d in _dim_vectors(n, 6) for c in enumerate_nilpotent(n, d)):
            for length in range(1, 11):
                r = multiset_ranks(nn, length)
                for i in range(1, n + 1):
                    a = Window(n, i, i + length - 1)
                    hom = multiset_hom_dim(WindowMultiset(n, [a]), nn)
                    v, u = residue(a.j, n), residue(a.i, n)
                    assert hom == r[v - 1][0] - r[v - 1][length], (a, nn)
                    mismatches_at_i += hom != r[u - 1][0] - r[u - 1][length]
    assert mismatches_at_i


def test_hasse_codims_equal_codim():
    # hasse reads each class's self-Hom off its rank key; codim takes
    # multiset_hom_dim of the two classes.
    vectors = [(n, d) for n in (1, 2, 3) for d in _dim_vectors(n, 7)]
    for n, d in vectors + [(3, (4, 4, 4))]:
        diagram = hasse(n, d)
        nodes = diagram.nodes
        for e in diagram.edges:
            assert e.codim == codim(nodes[e.upper], nodes[e.lower]), (n, d, e)


def test_library_calls_past_a_size_cap_raise_before_any_table_is_built():
    # enumerate_nilpotent holds the CLI's caps for every caller, hasse
    # through it. Past them, _tables would build 109 MB of rank rows for
    # (40, (255, 0, ...)) and 43.5 MB for (200, (40, 0, ...)), and 2,000
    # summands would recurse past Python's limit.
    past = [
        (40, (255,) + (0,) * 39, "total dimension 255"),
        (200, (40,) + (0,) * 199, "rank 200"),
        (2, (2000, 0), "total dimension 2000"),
        (2, (41, 0), "total dimension 41"),
        (41, (1,) * 41, "rank 41"),
    ]
    for build in (enumerate_nilpotent, hasse):
        for n, d, field in past:
            before = _tables.cache_info()
            tracemalloc.start()
            try:
                with pytest.raises(ParseError) as caught:
                    build(n, d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(caught.value) == f"{field} exceeds the cap of 40"
            assert _tables.cache_info() == before, (build, n)
            assert peak < 1_000_000, (build, n, peak)
    assert enumerate_nilpotent(2, (40, 0)) == [WindowMultiset(2, [(1, 1)] * 40)]


@pytest.mark.parametrize(
    "build, n, d",
    [(enumerate_nilpotent, 2.0, (1, 1)), (hasse, "2", (1, 1))],
    ids=["enumerate-float", "hasse-str"],
)
def test_library_rank_must_be_an_integer(build, n, d):
    # The rank goes through reps.as_int like the entries of d, so a float
    # or a string is a ParseError rather than a TypeError from the tables.
    with pytest.raises(ParseError, match=f"rank {n!r} is not an integer"):
        build(n, d)


def test_library_rank_true_reads_as_one():
    diagram = hasse(True, (1,))
    assert type(diagram.n) is int
    assert json.dumps(to_json_obj(diagram)).startswith('{"n": 1,')


def test_codim2_pairs_equal_the_mask_search():
    # The layer-to-layer finder against every pair two self-Hom grades apart
    # that the whole-order masks order. Each row's pairs split into the
    # covers of codimension 2 and the composites of two codimension-1
    # covers. Rank 1 has no composites: its orbit dimensions are all even.
    vectors = [
        (n, d)
        for n, max_total in ((1, 16), (2, 10), (3, 8), (4, 7))
        for d in _dim_vectors(n, max_total)
    ]
    assert len(vectors) == 574
    counts = {}
    for n, d in vectors + [(3, (5, 5, 5))]:
        nodes, pairs = codim2_pairs(n, d)
        assert nodes == enumerate_nilpotent(n, d), (n, d)
        assert pairs == codim2_pairs_from_masks(n, d), (n, d)
        covers = sum(e.codim == 2 for e in hasse(n, d).edges)
        counts[n, d] = (covers, len(pairs) - covers)
    assert counts.pop((3, (5, 5, 5))) == (2865, 10209)
    assert sum(c for (n, _), (_, c) in counts.items() if n == 1) == 0
    assert [sum(col) for col in zip(*counts.values())] == [3321, 2931]


def test_codim2_pairs_of_8_8_8(monkeypatch):
    # 92,464 classes: whole-order masks would take 1.07 GB, the layers
    # about 100 MB. Of its 134 layer pairs, 33 are small enough for the
    # pairwise kernel and 101 take the column kernel.
    sizes = _count_kernels(monkeypatch)
    nodes, pairs = codim2_pairs(3, (8, 8, 8))
    assert (len(nodes), len(pairs)) == (92464, 559119)
    assert [len(sizes["_pairwise_masks"]), len(sizes["_column_masks"])] == [33, 101]


def test_enumerate_nilpotent_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        enumerate_nilpotent(3, (3, 3, 3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shared_tables_do_not_change_an_answer():
    # Each call must give what it gives on fresh tables, whatever vectors of
    # its own or another (rank, total) filled the cache before it: once in a
    # shuffled order that interleaves the keys, once grouped by key as scan
    # visits them, so that one entry serves every vector of a total. Only
    # the move table fills as calls come; every other field stays as built.
    vectors = [
        (n, d)
        for n, max_total in ((1, 7), (2, 7), (3, 7), (4, 6))
        for total in range(max_total + 1)
        for d in _compositions(n, total)
    ]
    fresh = {}
    for n, d in vectors:
        _tables.cache_clear()
        classes = enumerate_nilpotent(n, d)
        _tables.cache_clear()
        fresh[n, d] = (classes, hasse(n, d))
    shuffled = vectors.copy()
    random.Random(18).shuffle(shuffled)
    for n, d in shuffled + vectors:
        assert (enumerate_nilpotent(n, d), hasse(n, d)) == fresh[n, d], (n, d)
        shared = _tables(n, sum(d))._replace(moves=None)
        assert shared == _tables.__wrapped__(n, sum(d))._replace(moves=None), (n, d)


def test_rank_rows_are_the_packed_rank_tables():
    # _tables builds each window's row with rank_key; the oracle packs the
    # list ranks of the window alone. (40, 40) is the widest key within the
    # caps.
    keys = [(n, total) for n in range(1, 6) for total in range(13)]
    for n, total in keys + [(40, 40)]:
        t = _tables.__wrapped__(n, total)
        assert t.ranks == [
            pack_ranks(multiset_ranks(WindowMultiset(n, [w]), total)) for w in t.windows
        ], (n, total)


def test_rank_rows_within_the_cli_caps_stay_under_3_mb():
    # _tables packs rank rows for every window of its key, also for callers
    # that never read them. At the widest key the caps admit that is 1,600
    # rows and 2,143,480 bytes; a change to the row layout or to the caps
    # must not grow it unseen.
    t = _tables.__wrapped__(MAX_RANK, MAX_TOTAL_DIM)
    assert len(t.ranks) == MAX_RANK * MAX_TOTAL_DIM
    assert sum((row.bit_length() + 7) // 8 for row in t.ranks) < 3_000_000


def test_vectors_at_the_caps_stay_below_their_guard_bits():
    # _tables holds a vector one byte per vertex under a 0x80 guard, which
    # works because no entry exceeds MAX_TOTAL_DIM = 40 < 0x80. The largest
    # entry is 40 at rank 1 (a window of length 40) and 1 at the widest rank.
    assert MAX_TOTAL_DIM < 0x80
    for n, top in ((1, MAX_TOTAL_DIM), (MAX_RANK, 1)):
        t = _tables.__wrapped__(n, MAX_TOTAL_DIM)
        assert t.guards == int.from_bytes(b"\x80" * n, "little")
        assert max(max(need.to_bytes(n, "little")) for need in t.needs) == top


def test_degeneration_imports_neither_the_classifier_nor_a_pool():
    path = Path(degeneration.__file__)
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
            names.extend(alias.name for alias in node.names)
    assert names
    forbidden = {"singularity", "concurrent"}
    assert not [name for name in names if forbidden & set(name.split("."))]
