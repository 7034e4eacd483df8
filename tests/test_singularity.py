import itertools
import random
import re
from fractions import Fraction

import pytest

from quiverdeg import degeneration, singularity
from quiverdeg.degeneration import codim, codim2_pairs, degenerates, enumerate_nilpotent, hasse
from quiverdeg.errors import Inconsistent, NotADegeneration, OutOfScope, ParseError
from quiverdeg.singularity import (
    SingularityType,
    _checked_codim,
    _dim_vectors,
    _orbit_key,
    _terminal_lengths,
    annotate,
    cancel_common,
    classify,
    model_variety_membership,
    scan_rows,
    socle_reduce,
    top_reduce,
)
from quiverdeg.windows import SimpleMultiset, Window, WindowMultiset, rank_key, residue

import oracles
from oracles import multiset_dual


def ws(n, *pairs):
    return WindowMultiset(n, pairs)


# ---------------------------------------------------------------- types


def test_singularity_type_normalization():
    assert str(SingularityType.reg()) == "Reg"
    assert str(SingularityType.a_type(4)) == "A4"
    assert str(SingularityType.unresolved()) == "Unresolved"
    with pytest.raises(ParseError):
        SingularityType.a_type(0)


# ---------------------------------------------------------------- cancel


def test_cancel_identical_pair():
    m = ws(2, (1, 2), (2, 3))
    assert cancel_common(m, m) == (ws(2), ws(2))


def test_cancel_disjoint_pair_unchanged():
    m = ws(1, (1, 2))
    nn = ws(1, (1, 1), (1, 1))
    assert cancel_common(m, nn) == (m, nn)


def test_cancel_shared_summand_drops_codim():
    m = ws(1, (1, 2), (1, 1))
    nn = ws(1, (1, 1), (1, 1), (1, 1))
    assert codim(m, nn) == 4
    rm, rn = cancel_common(m, nn)
    assert rm == ws(1, (1, 2))
    assert rn == ws(1, (1, 1), (1, 1))
    assert codim(rm, rn) == 2


# ---------------------------------------------------------------- socle/top


def test_socle_reduce_worked_step():
    got = socle_reduce(ws(2, (1, 4)), ws(2, (1, 2), (2, 3)))
    assert got is not None
    rm, rn, residues = got
    assert (rm, rn) == (ws(2, (2, 4)), ws(2, (2, 2), (2, 3)))
    assert residues == (1,)


def test_socle_reduce_two_residue_step():
    got = socle_reduce(ws(2, (1, 1), (2, 8)), ws(2, (1, 3), (2, 6)))
    assert got is not None
    rm, rn, residues = got
    assert (rm, rn) == (ws(2, (3, 8)), ws(2, (2, 3), (3, 6)))
    assert residues == (1, 2)


def test_socle_reduce_collision_returns_none():
    assert socle_reduce(ws(1, (1, 2)), ws(1, (1, 1), (1, 1))) is None


def test_socle_reduce_rejects_corrupt_input():
    with pytest.raises(
        Inconsistent,
        match="^socle of the degenerating class exceeds the other socle$",
    ):
        socle_reduce(ws(2, (1, 1)), ws(2, (2, 2)))


def test_top_reduce_rejects_corrupt_input():
    # The check runs on the dual, where the tops are socles.
    with pytest.raises(
        Inconsistent,
        match="^socle of the degenerating class exceeds the other socle$",
    ):
        top_reduce(ws(2, (1, 1)), ws(2, (2, 2)))


def test_top_reduce_worked_step():
    got = top_reduce(ws(2, (4, 8)), ws(2, (2, 3), (4, 6)))
    assert got is not None
    rm, rn, residues = got
    assert (rm, rn) == (ws(2, (4, 7)), ws(2, (2, 3), (4, 5)))
    assert residues == (2,)


def test_top_reduce_never_applies_on_loop():
    assert top_reduce(ws(1, (1, 3)), ws(1, (1, 1), (1, 2))) is None


def test_top_reduce_matches_the_direct_reference():
    # top_reduce is socle_reduce on the dual; the oracle reads the tops and
    # radicals directly. Every comparable pair, the reflexive ones included.
    pairs = applied = 0
    for n in range(1, 4):
        for d in _dim_vectors(n, 6):
            nodes, _, order, below = oracles.graded_masks(n, d)
            for g, mask in enumerate(below):
                for h in range(len(order)):
                    if not (mask >> h) & 1:
                        continue
                    m, nn = nodes[order[g]], nodes[order[h]]
                    expected = oracles.top_reduce(m, nn)
                    assert top_reduce(m, nn) == expected, (m, nn)
                    pairs += 1
                    applied += expected is not None
    assert (pairs, applied) == (2735, 1373)


# ---------------------------------------------------------------- terminal


def test_terminal_worked_example():
    assert _terminal_lengths(ws(2, (0, 3)), ws(2, (0, 1), (0, 1))) == (2, 1, 1)


def test_terminal_loop_family():
    got, trace = classify(ws(1, (1, 5)), ws(1, (1, 1), (1, 4)))
    assert got == SingularityType.a_type(4)
    assert trace.steps[-1].lengths == (5, 1, 4)


def test_terminal_rejects_codim_four_pattern():
    with pytest.raises(Inconsistent, match="codimension 2\\*min"):
        _terminal_lengths(ws(1, (1, 4)), ws(1, (1, 2), (1, 2)))


def test_terminal_rejects_malformed_patterns():
    with pytest.raises(Inconsistent, match="single window"):
        _terminal_lengths(ws(2, (1, 2), (1, 2)), ws(2, (1, 1), (1, 3)))
    with pytest.raises(Inconsistent, match="socle residue"):
        _terminal_lengths(ws(2, (1, 4)), ws(2, (1, 2), (2, 3)))


# ---------------------------------------------------------------- classify


def test_classify_first_worked_chain():
    result, trace = classify(ws(2, (1, 4)), ws(2, (1, 2), (2, 3)))
    assert result == SingularityType.reg()
    assert trace.start_codim == 2
    assert [s.kind for s in trace.steps] == ["socle"]
    assert trace.steps[0].m == ws(2, (2, 4))
    assert trace.steps[0].n == ws(2, (2, 2), (2, 3))
    assert trace.steps[0].codim == 1


def test_classify_second_worked_chain():
    result, trace = classify(ws(2, (1, 1), (2, 8)), ws(2, (1, 3), (2, 6)))
    assert result == SingularityType.a_type(1)
    assert [s.kind for s in trace.steps] == [
        "socle",
        "socle",
        "top",
        "relabel",
        "terminal",
    ]
    pairs = [(s.m, s.n) for s in trace.steps]
    assert (ws(2, (3, 8)), ws(2, (2, 3), (3, 6))) in pairs
    assert (ws(2, (4, 8)), ws(2, (2, 3), (4, 6))) in pairs
    assert (ws(2, (4, 7)), ws(2, (2, 3), (4, 5))) in pairs
    assert trace.steps[-1].lengths == (2, 1, 1)


def test_classify_equal_pair_cancels_to_empty():
    m = ws(2, (1, 2), (2, 3))
    result, trace = classify(m, m)
    assert result == SingularityType.reg()
    assert [s.kind for s in trace.steps] == ["cancel"]
    assert trace.steps[0].m.is_empty()


def test_classify_rejects_non_degeneration():
    with pytest.raises(NotADegeneration, match="does not degenerate to"):
        classify(ws(2, (1, 2), (2, 3)), ws(2, (1, 4)))


def test_checked_codim_reports_a_non_degenerating_step_as_inconsistent():
    with pytest.raises(Inconsistent, match="reduction produced a non-degenerating pair"):
        _checked_codim(ws(2, (1, 2), (2, 3)), ws(2, (1, 4)))
    assert _checked_codim(ws(2, (1, 4)), ws(2, (1, 2), (2, 3))) == 2


def test_classify_rejects_codim_above_two():
    with pytest.raises(OutOfScope):
        classify(ws(1, (1, 5)), ws(1, (1, 2), (1, 3)))


def test_classify_loop_family():
    for r in range(1, 8):
        result, _ = classify(ws(1, (1, r + 1)), ws(1, (1, 1), (1, r)))
        assert result == SingularityType.a_type(r)


def _all_codim2_pairs(n, dims):
    classes = enumerate_nilpotent(n, dims)
    for m, nn in itertools.permutations(classes, 2):
        if degenerates(m, nn) and codim(m, nn) == 2:
            yield m, nn


def _rotate(ms, c):
    """Relabel vertices by adding c to every window index."""
    return WindowMultiset(ms.n, [(w.i + c, w.j + c) for w in ms.windows])


def test_classify_rotation_equivariance():
    # The rotation v -> v + s of the cycle preserves the true singularity
    # type, so a verdict that changes under it is a classifier bug, and scan
    # shares one row per rotation orbit on the strength of this. Every
    # codim-2 pair with n <= 3, total <= 10 is a rotation of one at its
    # orbit's smallest vector; each of those is checked against all n - 1
    # rotations: the same verdict, and the same trace moved s residues on.
    checked = 0
    for n in (2, 3):
        for d in _dim_vectors(n, 10):
            if d != min(d[k:] + d[:k] for k in range(n)):
                continue
            nodes, pairs = codim2_pairs(n, d)
            for a, b in pairs:
                m, nn = nodes[a], nodes[b]
                result, trace = classify(m, nn)
                for s in range(1, n):
                    turned, turned_trace = classify(_rotate(m, s), _rotate(nn, s))
                    assert turned == result, (m, nn, s)
                    assert [
                        (t.kind, t.m, t.n, t.codim, t.lengths, t.residues)
                        for t in turned_trace.steps
                    ] == [
                        (t.kind, _rotate(t.m, s), _rotate(t.n, s), t.codim, t.lengths,
                         tuple(sorted(residue(r + s, n) for r in t.residues)))
                        for t in trace.steps
                    ], (m, nn, s)
                checked += 1
    assert checked == 3951


def _count_calls(monkeypatch, name):
    """Record the arguments of each call to singularity.<name>."""
    calls, kernel = [], getattr(singularity, name)
    monkeypatch.setattr(singularity, name, lambda *args: calls.append(args) or kernel(*args))
    return calls


def test_scan_rows_equal_a_direct_scan(monkeypatch):
    # scan_rows computes each row at its rotation orbit's first vector and
    # rotates that vector's Unresolved pairs; the reference classifies every
    # pair of every vector.
    for max_n, max_dim in ((5, 6), (4, 8)):
        rows = list(scan_rows(max_n, max_dim))
        assert rows == list(oracles.scan_rows_direct(max_n, max_dim))
    # (4, 8) lists 95 Unresolved pairs, 40 of them rotated from an earlier
    # vector of their orbit.
    rotated = [
        pair
        for n, d, _, _, pairs in rows
        if d != min(d[k:] + d[:k] for k in range(n))
        for pair in pairs
    ]
    assert (sum(len(row[4]) for row in rows), len(rotated)) == (95, 40)
    calls = _count_calls(monkeypatch, "codim2_pairs")
    # One codim2_pairs per rotation orbit: 216 calls, one per vector,
    # without the sharing.
    assert sum(1 for _ in scan_rows(3, 8)) == 216
    assert len(calls) == 88


@pytest.mark.parametrize(
    "run, cancelled, orbits",
    [
        (lambda: list(scan_rows(3, 8)), 286, 170),
        (lambda: annotate(hasse(3, (4, 4, 4))), 111, 37),
        (lambda: list(scan_rows(4, 12)), 5190, 2037),
    ],
    ids=["scan 3 8", "annotate 444", "scan 4 12"],
)
def test_memo_classifies_once_per_rotation_orbit(monkeypatch, run, cancelled, orbits):
    # One _orbit_key per distinct cancelled pair, one classify per orbit.
    keyed = _count_calls(monkeypatch, "_orbit_key")
    classified = _count_calls(monkeypatch, "classify")
    run()
    assert (len(keyed), len(classified)) == (cancelled, orbits)


def test_orbit_key_names_the_rotation_orbit(monkeypatch):
    # On every cancelled pair that scan_rows(3, 7) meets, and every rotation
    # of one: the key is the same on each rotation, and two pairs share a key
    # iff they share their least rotation.
    met = _count_calls(monkeypatch, "_orbit_key")
    list(scan_rows(3, 7))
    pairs = {
        (_rotate(m, s), _rotate(nn, s)) for m, nn in met for s in range(m.n)
    }
    assert (len(met), len(pairs)) == (172, 250)
    keys = {}
    for m, nn in pairs:
        key = _orbit_key(m, nn)
        assert all(
            _orbit_key(_rotate(m, s), _rotate(nn, s)) == key
            for s in range(-m.n, 2 * m.n)
        ), (m, nn)
        keys[m, nn] = key
    least = {p: min((_rotate(p[0], s), _rotate(p[1], s)) for s in range(p[0].n)) for p in pairs}
    assert len(set(keys.values())) == len(set(least.values())) == 101
    assert len(set(zip(keys.values(), least.values()))) == len(set(least.values()))


def test_scan_rows_build_no_hasse_diagram(monkeypatch):
    # scan reads its pairs layer to layer: no covers, no whole-order masks.
    def refuse(*args):
        raise AssertionError("scan_rows built a Hasse diagram")

    for name in ("hasse", "_covers"):
        monkeypatch.setattr(degeneration, name, refuse)
    assert sum(1 for _ in scan_rows(3, 8)) == 216


@pytest.mark.parametrize(
    "max_n, max_dim, message",
    [(41, 1, "rank 41 exceeds the cap of 40"), (1, 41, "total dimension 41 exceeds the cap of 40")],
    ids=["rank", "total"],
)
def test_scan_rows_check_their_caps_before_the_first_row(monkeypatch, max_n, max_dim, message):
    # scan_rows(41, 1) yielded the 820 rows of ranks 1 to 40 before it
    # failed, and scan_rows(1, 41) enumerated every total up to 40.
    calls = _count_calls(monkeypatch, "_scan_row")
    rows = scan_rows(max_n, max_dim)
    with pytest.raises(ParseError) as caught:
        next(rows)
    assert str(caught.value) == message
    assert calls == []


def _assert_checked(x):
    """x is what the checked constructor builds from its own entries."""
    if isinstance(x, SimpleMultiset):
        want = SimpleMultiset(x.n, list(x.counts))
    else:
        want = WindowMultiset(x.n, [(w.i, w.j) for w in x.windows])
        assert all(type(w) is Window for w in x.windows), x
    assert type(x) is type(want) and x == want and type(x[1]) is tuple, x


def _assert_derived_checked(m, shifts):
    """Every value the unchecked sites derive from m equals its checked form."""
    socle = m.socle()
    _assert_checked(socle)
    _assert_checked(m.dual())
    residues = sorted(socle.residues())
    for k in range(1, len(residues) + 1):
        for chosen in itertools.combinations(residues, k):
            _assert_checked(m.quotient_by_socle(chosen))
    for s in shifts:
        _assert_checked(singularity._rotate(m, s))


def test_derived_values_equal_their_checked_construction():
    # enumerate_nilpotent (its _walk and _tables), cancel_common, socle,
    # dual, quotient_by_socle and _rotate build their results with _make and
    # skip the checks of __new__; each must still give the checked value.
    rng = random.Random(28)
    for n, total in [(n, total) for n in (1, 2, 3) for total in range(1, 9)] + [(40, 3)]:
        t = degeneration._tables.__wrapped__(n, total)
        assert len(t.windows) == len(t.ranks) == n * total
        for w, rank in zip(t.windows, t.ranks):
            one = WindowMultiset(n, [(w.i, w.j)])
            assert type(w) is Window and w == one.windows[0], w
            assert rank == rank_key(one, total), w
    classes = 0
    for n in (1, 2, 3):
        shifts = range(-n, 2 * n + 1)
        for d in _dim_vectors(n, 8):
            found = enumerate_nilpotent(n, d)
            classes += len(found)
            for m in found:
                _assert_checked(m)
                _assert_derived_checked(m, shifts)
            if sum(d) <= 6:
                for m, nn in itertools.product(found, repeat=2):
                    for x in cancel_common(m, nn):
                        _assert_checked(x)
    assert classes == 2152
    for _ in range(50):
        pairs = []
        for _ in range(2):
            lengths = sorted(rng.sample(range(1, 40), rng.randint(0, 6)))
            lengths = [b - a for a, b in zip([0] + lengths, lengths + [40])]
            starts = [rng.randint(-80, 80) for _ in lengths]
            pairs.append([(i, i + k - 1) for i, k in zip(starts, lengths)])
        m, nn = (WindowMultiset(40, p) for p in pairs)
        assert m.total_dim() == nn.total_dim() == 40
        _assert_derived_checked(m, (rng.randint(-100, 100) for _ in range(5)))
        for x in cancel_common(m, nn) + cancel_common(m, m):
            _assert_checked(x)


def test_classify_duality_invariance():
    pairs = list(_all_codim2_pairs(2, (2, 2))) + list(_all_codim2_pairs(1, (4,)))
    assert pairs
    for m, nn in pairs:
        base, _ = classify(m, nn)
        dualized, _ = classify(multiset_dual(m), multiset_dual(nn))
        assert dualized == base


def test_trace_validity_invariants():
    pairs = list(_all_codim2_pairs(2, (2, 2))) + list(_all_codim2_pairs(2, (2, 1)))
    for m, nn in pairs:
        _, trace = classify(m, nn)
        chain = [(trace.start_m, trace.start_n)] + [(s.m, s.n) for s in trace.steps]
        codims = [trace.start_codim] + [s.codim for s in trace.steps]
        dims = [chain[0][0].total_dim()]
        for (cm, cn), value in zip(chain, codims):
            assert degenerates(cm, cn)
            assert codim(cm, cn) == value
        for prev, nxt in zip(codims, codims[1:]):
            assert nxt <= prev
        for step, (pm, _) in zip(trace.steps, chain[1:]):
            if step.kind in ("socle", "top"):
                dims.append(pm.total_dim())
        assert all(a > b for a, b in zip(dims, dims[1:]))


def test_terminal_agrees_with_classify_on_its_pattern():
    for n, b, c in ((1, 1, 3), (2, 1, 2), (3, 1, 1)):
        m = ws(n, (1, n * (b + c)))
        nn = ws(n, (1, n * b), (1, n * c))
        via_classify, trace = classify(m, nn)
        assert via_classify == SingularityType.a_type(max(b, c))
        assert trace.steps[-1].kind == "terminal"


def test_no_codim2_cover_is_unresolved():
    # scan lists Unresolved pairs, but a pair that is a Hasse cover must get
    # a type: every codim-2 cover for n <= 3, total <= 9, and of (5,5,5).
    vectors = [(n, d) for n in range(1, 4) for d in _dim_vectors(n, 9)]
    assert len(vectors) == 282
    covers = {}
    for n, d in vectors + [(3, (5, 5, 5))]:
        codim2 = [e for e in annotate(hasse(n, d)).edges if e.codim == 2]
        for e in codim2:
            assert re.fullmatch(r"Reg|A[1-9][0-9]*", e.label), (n, d, e)
        covers[n, d] = len(codim2)
    assert covers.pop((3, (5, 5, 5))) == 2865
    assert sum(covers.values()) == 2004


def test_dim_vectors_match_the_product_filter():
    # The reference filters all (total+1)^n tuples; _dim_vectors builds the
    # compositions directly and must keep the same order.
    for n in range(1, 6):
        for max_total in range(8):
            reference = [
                vec
                for total in range(1, max_total + 1)
                for vec in itertools.product(range(total + 1), repeat=n)
                if sum(vec) == total
            ]
            assert list(_dim_vectors(n, max_total)) == reference


def test_dim_vectors_counts_at_high_rank():
    assert sum(1 for _ in _dim_vectors(12, 4)) == 1819
    assert sum(1 for _ in _dim_vectors(40, 2)) == 860


# ---------------------------------------------------------------- varieties


def test_model_membership_examples():
    assert model_variety_membership("A", 2, (6, 4, 9))
    assert not model_variety_membership("A", 1, (1, 1, 2))
    assert model_variety_membership("C", 2, (4, 6, 9))
    assert not model_variety_membership("C", 2, (4, 7, 9))


def test_model_membership_arity_checks():
    with pytest.raises(ParseError, match=r"A\(2\) points have 3 coordinates, got 2"):
        model_variety_membership("A", 2, (1, 1))
    with pytest.raises(ParseError, match=r"C\(3\) points have 4 coordinates, got 3"):
        model_variety_membership("C", 3, (1, 1, 1))
    with pytest.raises(ParseError, match="unknown model variety kind 'B'"):
        model_variety_membership("B", 2, (1, 1, 1))
    with pytest.raises(ParseError, match="model variety index must be at least 1"):
        model_variety_membership("A", 0, (1, 1, 1))


def test_model_membership_index_must_be_an_integer():
    # 1.5 was used as the exponent in floats, and C's 2.0 ended in a
    # TypeError from range.
    for kind, r, point in (("A", 1.5, (4, 8, 1)), ("C", 2.0, (1, 1, 1))):
        with pytest.raises(ParseError) as caught:
            model_variety_membership(kind, r, point)
        assert str(caught.value) == f"model variety index {r!r} is not an integer"
    assert model_variety_membership("A", True, (2, 1, 2))


def test_parametrized_points_lie_on_their_varieties(rng):
    for _ in range(40):
        r = rng.randint(1, 5)
        u = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        assert model_variety_membership("A", r, (u * v, u**r, v**r))
        assert model_variety_membership(
            "C", r, tuple(u ** (r - k) * v**k for k in range(r + 1))
        )
