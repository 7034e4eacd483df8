import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverdeg.errors import Inconsistent, NotNilpotent, ParseError
from quiverdeg.linalg import RatMatrix
from quiverdeg.reps import Quiver, Arrow, Representation, hom_dim
from quiverdeg.singularity import _compositions
from quiverdeg.windows import (
    SimpleMultiset,
    Window,
    WindowMultiset,
    cyclic_quiver,
    decompose_nilpotent,
    _composite_ranks,
    is_nilpotent,
    multiset_hom_dim,
    rank_key,
    realize,
    reconstruct_from_socle_quotient,
    require_cyclic,
    window_hom_dim,
)

from conftest import random_multiset
from oracles import (
    identity_matrix,
    matrix_from_rows,
    multiset_dim_vector,
    multiset_dual,
    multiset_top,
    pack_ranks,
    quotient_to_radical,
    rref,
    window_dim_vector,
    zero_rep,
)


def all_multisets(n, dims):
    from quiverdeg.degeneration import enumerate_nilpotent

    return enumerate_nilpotent(n, dims)


def all_dim_vectors(n, max_total):
    for total in range(0, max_total + 1):
        yield from _compositions(n, total)


# ---------------------------------------------------------------- windows


def test_canonicalize_shifts():
    for n, i, j, canonical in ((2, 0, 3, (2, 5)), (2, 1, 4, (1, 4)), (3, -2, 0, (1, 3))):
        w = Window(n, i, j)
        assert (w.i, w.j) == canonical


def test_bad_window_rejected():
    with pytest.raises(ParseError, match=r"window \(3,1\) has i > j"):
        Window(2, 3, 1)
    with pytest.raises(ParseError, match="cyclic rank must be at least 1"):
        Window(0, 1, 1)


def test_window_equality_mod_shift():
    assert Window(2, 3, 8) == Window(2, 1, 6)
    assert hash(Window(2, 3, 8)) == hash(Window(2, 1, 6))
    assert Window(2, 1, 6) != Window(2, 2, 7)
    assert Window(3, 4, 6) == Window(3, 1, 3)
    assert hash(Window(3, 4, 6)) == hash(Window(3, 1, 3))


def test_window_is_immutable():
    w = Window(2, 1, 3)
    with pytest.raises(AttributeError):
        w.i = 2
    assert (w.i, w.j) == (1, 3)


def test_named_tuples_block_tuple_arithmetic():
    # A tuple base would concatenate or repeat the fields, and a caller could
    # misread Window + Window as a direct sum; each raises TypeError instead.
    values = (
        Window(2, 1, 3),
        SimpleMultiset(2, (1, 0)),
        WindowMultiset(2, [(1, 2)]),
        cyclic_quiver(2),
    )
    for x in values:
        for op in (lambda: x + x, lambda: 2 * x, lambda: x * 2):
            with pytest.raises(TypeError):
                op()


def test_window_order_is_ij_order():
    # The shared window list of each (rank, total), and its vectors (one
    # byte per residue, built one residue at a time) against the oracle's.
    from quiverdeg.degeneration import _tables

    seen = 0
    for n in (1, 2, 3):
        for dims in all_dim_vectors(n, 6):
            t = _tables(n, sum(dims))
            windows = list(t.windows)
            by_key = sorted(windows, key=lambda w: (w.i, w.j))
            assert sorted(reversed(windows)) == by_key == windows
            # The position _moves and hasse compute rather than look up.
            total = sum(dims)
            assert all(windows[(w.i - 1) * total + w.j - w.i] == w for w in windows)
            vectors = [window_dim_vector(w) for w in windows]
            assert t.needs == [int.from_bytes(bytes(v), "little") for v in vectors]
            seen += sum(all(map(int.__le__, v, dims)) for v in vectors)
    assert seen == 511


# WindowMultiset unpacked each non-Window entry as (i, j), so an int ended
# in a TypeError and a triple in a ValueError. Each constructor read its
# integers with int() or not at all: Window(2, 1.5, 2.7) stored the floats,
# and degenerates on it ended in a TypeError; WindowMultiset(2.5) stored its
# rank; the others truncated 2.5 to 2, (1.5, 2.7) to (1, 2) and 1.9 to 1.
# cyclic_quiver(2.5) ended in a TypeError traceback from range.
# SimpleMultiset(2.0, (1, 0)) stored its rank 2.0, and
# reconstruct_from_socle_quotient on it ended in a TypeError.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Window(2, 1.5, 2.7), "window endpoint 1.5 is not an integer"),
        (lambda: Window(2.5, 1, 2), "cyclic rank 2.5 is not an integer"),
        (lambda: WindowMultiset(2, [(1.5, 2.7)]), "window endpoint 1.5 is not an integer"),
        (lambda: WindowMultiset(2.5), "cyclic rank 2.5 is not an integer"),
        (lambda: WindowMultiset(2, [5]), "window entry 5 is not a pair (i, j)"),
        (lambda: WindowMultiset(2, [(1, 2, 3)]), "window entry (1, 2, 3) is not a pair (i, j)"),
        (lambda: SimpleMultiset(2, (1.9, 0)), "multiplicity 1.9 is not an integer"),
        (lambda: SimpleMultiset(2.0, (1, 0)), "cyclic rank 2.0 is not an integer"),
        (lambda: SimpleMultiset(0, ()), "cyclic rank must be at least 1"),
        (lambda: cyclic_quiver(2.5), "cyclic rank 2.5 is not an integer"),
    ],
    ids=[
        "window-endpoints",
        "window-rank",
        "multiset-window",
        "multiset-rank",
        "multiset-int-entry",
        "multiset-triple",
        "simple-counts",
        "simple-rank",
        "simple-rank-zero",
        "cyclic-quiver",
    ],
)
def test_constructors_reject_non_integers(build, message):
    with pytest.raises(ParseError) as caught:
        build()
    assert str(caught.value) == message


def test_simple_multiset_repr():
    assert repr(SimpleMultiset(2, (1, 0))) == "SimpleMultiset(n=2, counts=(1, 0))"


def test_dim_vector_of_multisets():
    assert multiset_dim_vector(WindowMultiset(2, [(1, 4)])) == (2, 2)
    assert multiset_dim_vector(WindowMultiset(2, [(1, 2), (2, 3)])) == (2, 2)
    assert multiset_dim_vector(WindowMultiset(1, [(1, 5)])) == (5,)


def test_rank_mismatch_in_multiset():
    with pytest.raises(ParseError, match="window of rank 3 in a rank-2 multiset"):
        WindowMultiset(2, [Window(3, 1, 2)])


# ---------------------------------------------------------------- realize


def test_realize_empty_is_zero_rep():
    rep = realize(WindowMultiset(2))
    assert rep.dims == (0, 0)
    assert not any(any(m.entries) for m in rep.matrices)


def test_realize_loop_jordan_block():
    rep = realize(WindowMultiset(1, [(1, 2)]))
    (m,) = rep.matrices
    assert m == matrix_from_rows([[0, 1], [0, 0]])


def test_realize_checks_the_total_cap():
    # Past MAX_TOTAL_DIM = 40 realize built the 60 x 60 shift all the same.
    assert realize(WindowMultiset(1, [(1, 40)])).dims == (40,)
    for windows in ([(1, 41)], [(1, 60)], [(1, 20), (2, 22)]):
        with pytest.raises(ParseError) as caught:
            realize(WindowMultiset(1, windows))
        total = sum(j - i + 1 for i, j in windows)
        assert str(caught.value) == f"total dimension {total} exceeds the cap of 40"


def test_realize_two_vertex_window():
    rep = realize(WindowMultiset(2, [(1, 2)]))
    assert rep.dims == (1, 1)
    # the arrow into the socle vertex carries the shift, the other is zero
    assert rep.matrices == (matrix_from_rows([[0]]), matrix_from_rows([[1]]))


def test_cyclic_quiver_shape():
    q = cyclic_quiver(3)
    assert [(a.name, a.source, a.target) for a in q.arrows] == [
        ("a1", 1, 3),
        ("a2", 2, 1),
        ("a3", 3, 2),
    ]
    assert require_cyclic(q) == 3
    with pytest.raises(ParseError, match="expected the cyclic quiver"):
        require_cyclic(Quiver(2, (Arrow("x", 1, 2), Arrow("y", 1, 2))))


def test_cyclic_quiver_rank_zero_rejected():
    with pytest.raises(ParseError, match="cyclic rank must be at least 1"):
        cyclic_quiver(0)


# ---------------------------------------------------------------- nilpotency


def test_realized_multisets_are_nilpotent(rng):
    for _ in range(8):
        n = rng.choice([1, 2, 3])
        assert is_nilpotent(realize(random_multiset(rng, n)))


def test_invertible_loop_is_not_nilpotent():
    rep = Representation(cyclic_quiver(1), (1,), (matrix_from_rows([[1]]),))
    assert not is_nilpotent(rep)
    with pytest.raises(NotNilpotent):
        decompose_nilpotent(rep)


def test_zero_rep_is_nilpotent():
    assert is_nilpotent(zero_rep(cyclic_quiver(2), (3, 1)))


def test_non_cyclic_quiver_rejected():
    kron = Quiver(2, (Arrow("x", 1, 2), Arrow("y", 1, 2)))
    with pytest.raises(ParseError, match="expected the cyclic quiver"):
        is_nilpotent(zero_rep(kron, (1, 1)))


# ---------------------------------------------------------------- decompose


def test_decompose_round_trip_random(rng):
    for _ in range(20):
        n = rng.choice([1, 2, 3])
        ms = random_multiset(rng, n)
        assert decompose_nilpotent(realize(ms)) == ms


@given(st.integers(1, 3), st.integers(0, 40_000))
@settings(max_examples=40, deadline=None)
def test_decompose_round_trip_property(n, seed):
    ms = random_multiset(random.Random(seed), n, max_entries=4, max_length=6)
    assert decompose_nilpotent(realize(ms)) == ms


@given(st.integers(1, 4), st.integers(0, 40_000), st.integers(0, 12))
@settings(max_examples=80, deadline=None)
def test_closed_form_ranks_match_matrix_ranks(n, seed, steps):
    # Both definitions of composite rank: windows on one side, matrices on
    # the other, for lengths short of and past the longest window.
    ms = random_multiset(random.Random(seed), n, max_entries=4, max_length=6)
    assert rank_key(ms, steps) == pack_ranks(_composite_ranks(realize(ms), steps))


@st.composite
def small_cyclic_reps(draw):
    """Integer representations of the cyclic quiver, nilpotent or not."""
    n = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    q = cyclic_quiver(n)
    mats = []
    for a in q.arrows:
        rows, cols = dims[a.target - 1], dims[a.source - 1]
        entries = draw(st.lists(st.integers(-1, 1), min_size=rows * cols,
                                max_size=rows * cols))
        mats.append(RatMatrix(rows, cols, entries))
    return Representation(q, dims, mats)


def _naive_composites(rep, steps):
    """Every composite of up to `steps` arrow maps from each vertex, never
    stopping early: composites[v-1][t] starts at vertex v."""
    n = rep.quiver.vertex_count
    out = {a.source: m for a, m in zip(rep.quiver.arrows, rep.matrices)}
    composites = []
    for v in range(1, n + 1):
        chain = [identity_matrix(rep.dims[v - 1])]
        for t in range(1, steps + 1):
            chain.append(out[(v - t) % n + 1] @ chain[-1])
        composites.append(chain)
    return composites


@given(small_cyclic_reps(), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_single_walk_matches_naive_products(rep, extra):
    # The walk stops a vertex's chain at its first zero composite; on
    # representations whose chains vanish at some vertices and not at
    # others, the ranks and the nilpotency verdict must not notice.
    total = rep.total_dim()
    naive = _naive_composites(rep, total + extra)
    assert is_nilpotent(rep) == all(not any(chain[total].entries) for chain in naive)
    for steps in range(total + extra + 1):
        assert _composite_ranks(rep, steps) == [
            [m.rank() for m in chain[: steps + 1]] for chain in naive
        ]


def test_decompose_checks_the_total_cap():
    # decompose_nilpotent packs its matrix ranks one per byte to compare them
    # with rank_key, so a total past MAX_TOTAL_DIM = 40 is refused first.
    # A non-nilpotent representation of that total is refused the same way.
    longest = WindowMultiset(1, [(1, 40)])
    assert decompose_nilpotent(realize(longest)) == longest
    # realize refuses a total of 41 too, so the shift of [1, 41] is built
    # here: one 1 above the diagonal, as realize lays it out.
    loop = cyclic_quiver(1)
    shift = matrix_from_rows([[int(c == r + 1) for c in range(41)] for r in range(41)])
    identity = Representation(loop, (41,), (identity_matrix(41),))
    for rep in (Representation(loop, (41,), (shift,)), identity):
        with pytest.raises(ParseError, match="^total dimension 41 exceeds the cap of 40$"):
            decompose_nilpotent(rep)


def test_decompose_walks_each_chain_to_its_first_zero(monkeypatch):
    # n = 3, total 10: the chains from vertices 1, 2 and 3 vanish after 4, 5
    # and 6 arrows, so nilpotency and the ranks take 15 products each.
    rep = realize(WindowMultiset(3, [(1, 6), (2, 4), (3, 3)]))
    products = []
    matmul = RatMatrix.__matmul__

    def counted(a, b):
        products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(RatMatrix, "__matmul__", counted)
    assert decompose_nilpotent(rep) == WindowMultiset(3, [(1, 6), (2, 4), (3, 3)])
    assert len(products) <= 30


def test_decompose_jordan_two_plus_one():
    m = matrix_from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    rep = Representation(cyclic_quiver(1), (3,), (m,))
    assert decompose_nilpotent(rep) == WindowMultiset(1, [(1, 1), (1, 2)])


def test_decompose_semisimple():
    rep = zero_rep(cyclic_quiver(2), (1, 1))
    assert decompose_nilpotent(rep) == WindowMultiset(2, [(1, 1), (2, 2)])


def test_decompose_against_hom_profile_oracle(rng):
    # independent check of the rank recipe: multiplicities are the unique
    # solution of the linear system built from rank-based hom dimensions of
    # realized single windows, which never touches the rank recipe itself
    for n, max_total in ((1, 5), (2, 5), (3, 4)):
        candidates = [
            Window(n, i, i + length - 1)
            for i in range(1, n + 1)
            for length in range(1, max_total + 1)
        ]
        reps = {w: realize(WindowMultiset(n, [w])) for w in candidates}
        gram = {
            (x, y): hom_dim(reps[x], reps[y])
            for x in candidates
            for y in candidates
        }
        for _ in range(4):
            ms = random_multiset(rng, n, max_entries=3, max_length=max_total)
            if ms.total_dim() > max_total:
                continue
            v = realize(ms)
            profile = [hom_dim(v, reps[y]) for y in candidates]
            rows = [
                [Fraction(gram[(x, y)]) for x in candidates] + [Fraction(profile[k])]
                for k, y in enumerate(candidates)
            ]
            pivots = rref(rows, len(candidates))
            solution = [Fraction(0)] * len(candidates)
            for ridx, pcol in enumerate(pivots):
                solution[pcol] = rows[ridx][len(candidates)]
            computed = Counter(decompose_nilpotent(v).windows)
            for w, value in zip(candidates, solution):
                assert value == computed.get(w, 0)


# ---------------------------------------------------------------- hom formula


def test_window_hom_dim_loop_is_min():
    for f in range(1, 13):
        for g in range(1, 13):
            a = Window(1, 1, f)
            b = Window(1, 1, g)
            assert window_hom_dim(a, b) == min(f, g)


def test_window_hom_dim_examples():
    assert window_hom_dim(Window(2, 2, 3), Window(2, 2, 2)) == 0
    assert window_hom_dim(Window(2, 1, 4), Window(2, 1, 4)) == 2


def test_window_hom_dim_rank_mismatch():
    with pytest.raises(ParseError, match="windows of different ranks 1 and 2"):
        window_hom_dim(Window(1, 1, 1), Window(2, 1, 1))


def test_window_hom_dim_shift_invariance(rng):
    for _ in range(30):
        n = rng.choice([1, 2, 3])
        a = Window(n, rng.randint(-3, 3), rng.randint(4, 8))
        b = Window(n, rng.randint(-3, 3), rng.randint(4, 8))
        base = window_hom_dim(a, b)
        c = n * rng.randint(-2, 2)
        assert window_hom_dim(Window(n, a.i + c, a.j + c), b) == base
        c = n * rng.randint(-2, 2)
        assert window_hom_dim(a, Window(n, b.i + c, b.j + c)) == base


def test_window_hom_dim_matches_rank_oracle_small():
    # the exhaustive n <= 4, length <= 10 sweep runs in the acceptance suite
    for n in (1, 2, 3):
        wins = [
            Window(n, i, i + length - 1)
            for i in range(1, n + 1)
            for length in range(1, 6)
        ]
        reps = {w: realize(WindowMultiset(n, [w])) for w in wins}
        for a in wins:
            for b in wins:
                assert window_hom_dim(a, b) == hom_dim(reps[a], reps[b])


def test_multiset_hom_additivity(rng):
    for _ in range(10):
        n = rng.choice([1, 2])
        x = random_multiset(rng, n)
        y = random_multiset(rng, n)
        assert multiset_hom_dim(x, y) == hom_dim(realize(x), realize(y))


# ---------------------------------------------------------------- socle/top


def test_socle_and_top_of_window():
    ms = WindowMultiset(2, [(1, 4)])
    assert ms.socle() == SimpleMultiset(2, (1, 0))
    assert multiset_top(ms) == SimpleMultiset(2, (0, 1))


def test_semisimple_socle_equals_top():
    ms = WindowMultiset(3, [(1, 1), (2, 2), (2, 2)])
    assert ms.socle() == multiset_top(ms) == SimpleMultiset(3, (1, 2, 0))


def test_simple_multiset_negative_count_rejected():
    with pytest.raises(ParseError, match="multiplicities must be nonnegative"):
        SimpleMultiset(2, (1, -1))


def test_empty_multiset_socle():
    ms = WindowMultiset(2)
    assert sum(ms.socle().counts) == 0
    assert sum(multiset_top(ms).counts) == 0


def test_quotient_by_socle_examples():
    assert WindowMultiset(2, [(1, 4)]).quotient_by_socle({1}) == WindowMultiset(
        2, [(2, 4)]
    )
    assert WindowMultiset(2, [(1, 2), (2, 3)]).quotient_by_socle(
        {1}
    ) == WindowMultiset(2, [(2, 2), (2, 3)])
    ms = WindowMultiset(2, [(1, 2)])
    assert ms.quotient_by_socle(set()) == ms
    with pytest.raises(ParseError, match=r"residues \[2\] not present in socle"):
        ms.quotient_by_socle({2})


def test_quotient_to_radical_examples():
    assert quotient_to_radical(WindowMultiset(2, [(4, 8)]), {2}) == WindowMultiset(
        2, [(4, 7)]
    )
    assert quotient_to_radical(
        WindowMultiset(2, [(2, 3), (4, 6)]), {2}
    ) == WindowMultiset(2, [(2, 3), (4, 5)])
    ms = WindowMultiset(2, [(1, 2)])
    assert quotient_to_radical(ms, set()) == ms


def test_simple_windows_vanish_in_quotients():
    ms = WindowMultiset(1, [(1, 1), (1, 2)])
    assert ms.quotient_by_socle({1}) == WindowMultiset(1, [(2, 2)])
    assert quotient_to_radical(ms, {1}) == WindowMultiset(1, [(1, 1)])


# ---------------------------------------------------------------- reconstruct


def test_reconstruct_round_trip_random(rng):
    for _ in range(15):
        n = rng.choice([1, 2, 3])
        ms = random_multiset(rng, n)
        rebuilt = reconstruct_from_socle_quotient(
            ms.socle(), ms.quotient_by_socle(ms.socle().residues())
        )
        assert rebuilt == ms


def test_reconstruct_example():
    u = SimpleMultiset(2, (0, 2))
    t = WindowMultiset(2, [(3, 3)])
    assert reconstruct_from_socle_quotient(u, t) == WindowMultiset(
        2, [(2, 3), (2, 2)]
    )


def test_reconstruct_empty():
    assert reconstruct_from_socle_quotient(
        SimpleMultiset(2, (0, 0)), WindowMultiset(2)
    ) == WindowMultiset(2)


def test_reconstruct_rejects_negative_multiplicity():
    u = SimpleMultiset(2, (0, 0))
    t = WindowMultiset(2, [(3, 3)])
    with pytest.raises(Inconsistent):
        reconstruct_from_socle_quotient(u, t)


# ---------------------------------------------------------------- structure


def test_simple_socle_forces_single_window():
    for n in (1, 2, 3):
        for dims in all_dim_vectors(n, 5):
            for ms in all_multisets(n, dims):
                if sum(ms.socle().counts) == 1:
                    assert ms.summand_count() == 1


def test_summand_count():
    assert WindowMultiset(2).summand_count() == 0
    assert WindowMultiset(2, [(1, 3)]).summand_count() == 1
    assert WindowMultiset(2, [(1, 2), (2, 3)]).summand_count() == 2


def test_exhaustive_round_trips_small():
    # the n <= 3, total <= 6 sweep runs in the acceptance suite
    for n in (1, 2):
        for dims in all_dim_vectors(n, 4):
            for ms in all_multisets(n, dims):
                assert decompose_nilpotent(realize(ms)) == ms
                rebuilt = reconstruct_from_socle_quotient(
                    ms.socle(), ms.quotient_by_socle(ms.socle().residues())
                )
                assert rebuilt == ms


def test_dual_matches_the_oracle_and_is_an_involution():
    seen = 0
    for n in (1, 2, 3):
        for dims in all_dim_vectors(n, 6):
            for ms in all_multisets(n, dims):
                assert ms.dual() == multiset_dual(ms)
                assert ms.dual().dual() == ms
                seen += 1
    assert seen == 584


def test_dual_multiset_window_reflection():
    ms = WindowMultiset(2, [(1, 4), (2, 3)])
    d = multiset_dual(ms)
    assert multiset_dual(d) == ms
    assert d.total_dim() == ms.total_dim()
    # socle of the dual corresponds to the top of the original
    assert sorted(w.i for w in d.windows) == sorted(
        (-w.j - 1) % 2 + 1 for w in ms.windows
    )
