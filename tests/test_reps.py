import random
from fractions import Fraction

import pytest

from quiverdeg import formats, reps
from quiverdeg.errors import ParseError
from quiverdeg.reps import (
    Arrow,
    Quiver,
    Representation,
    ext1_dim,
    euler_form,
    hom_dim,
    orbit_dim,
)
from quiverdeg.windows import Window, WindowMultiset, cyclic_quiver, decompose_nilpotent, realize

from conftest import random_multiset
from oracles import direct_sum, dual, matrix_from_rows, opposite, zero_matrix, zero_rep

LOOP = cyclic_quiver(1)
KRONECKER = Quiver(2, (Arrow("x", 1, 2), Arrow("y", 1, 2)))


def loop_rep(matrix_rows):
    m = matrix_from_rows(matrix_rows)
    return Representation(LOOP, (m.rows,), (m,))


def jordan_block(size):
    rows = [[1 if c == r + 1 else 0 for c in range(size)] for r in range(size)]
    return loop_rep(rows) if size else zero_rep(LOOP, (0,))


def test_validate_zero_rep():
    rep = zero_rep(KRONECKER, (2, 3))
    assert Representation(rep.quiver, rep.dims, rep.matrices) == rep
    assert [(m.rows, m.cols) for m in rep.matrices] == [(3, 2), (3, 2)]


def test_validate_loop_square():
    rep = loop_rep([[0, 1], [0, 0]])
    assert Representation(rep.quiver, rep.dims, rep.matrices) == rep
    with pytest.raises(ParseError, match="1x1 matrix, got 2x2"):
        Representation(LOOP, (1,), rep.matrices)


def test_validate_rejects_transposed_shape():
    q = Quiver(2, (Arrow("a", 1, 2),))
    with pytest.raises(ParseError, match="'a'"):
        Representation(q, (2, 3), (zero_matrix(2, 3),))


def test_hom_dim_loop_jordan_blocks():
    assert hom_dim(jordan_block(2), jordan_block(3)) == 2
    assert hom_dim(jordan_block(3), jordan_block(2)) == 2
    assert hom_dim(jordan_block(4), jordan_block(4)) == 4


def test_hom_dim_simple_endomorphisms():
    simple = zero_rep(KRONECKER, (1, 0))
    assert hom_dim(simple, simple) == 1


def test_hom_dim_cyclic_windows():
    v = realize(WindowMultiset(2, [(1, 4)]))
    w = realize(WindowMultiset(2, [(2, 3)]))
    assert hom_dim(v, w) == 1


def test_hom_dim_quiver_mismatch():
    with pytest.raises(ParseError, match="representations live over different quivers"):
        hom_dim(jordan_block(1), zero_rep(KRONECKER, (1, 1)))


def test_ext1_no_arrows():
    q = Quiver(2, ())
    a = zero_rep(q, (2, 1))
    b = zero_rep(q, (1, 3))
    assert ext1_dim(a, b) == 0


def test_ext1_loop_self_extension():
    # the unique nontrivial self-extension of the 1-dim nilpotent loop rep
    # is the size-2 Jordan block: it exists and is non-split
    assert ext1_dim(jordan_block(1), jordan_block(1)) == 1
    extension = jordan_block(2)
    assert decompose_nilpotent(extension) == WindowMultiset(1, [(1, 2)])
    split = WindowMultiset(1, [(1, 1), (1, 1)])
    assert decompose_nilpotent(extension) != split


def test_ext1_kronecker_simples():
    s_a = zero_rep(KRONECKER, (1, 0))
    s_b = zero_rep(KRONECKER, (0, 1))
    assert ext1_dim(s_a, s_b) == 2
    assert hom_dim(s_a, s_b) == 0


def test_euler_form_values():
    cyc3 = cyclic_quiver(3)
    assert euler_form(cyc3, (1, 1, 1), (1, 1, 1)) == 0
    assert euler_form(KRONECKER, (1, 0), (0, 1)) == -2
    assert euler_form(LOOP, (5,), (7,)) == 0
    with pytest.raises(ParseError, match="dimension vectors must have length 3"):
        euler_form(cyc3, (1, 1), (1, 1, 1))


# Both read their integers with int(): the dims (1.7,) became (1,), which
# the 1 x 1 matrix then fit, and euler_form took (1.5,) for (1,).
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Representation(LOOP, (1.7,), (zero_matrix(1, 1),)),
         "dimension 1.7 is not an integer"),
        (lambda: euler_form(LOOP, (1.5,), (1,)),
         "dimension vector entry 1.5 is not an integer"),
    ],
    ids=["representation-dims", "euler-form"],
)
def test_integer_inputs_reject_non_integers(build, message):
    with pytest.raises(ParseError) as caught:
        build()
    assert str(caught.value) == message


def test_quiver_rejects_a_non_integer_vertex_count():
    # Quiver stored 1.5 as its vertex count. Like its other checks, this one
    # raises ParseError, which formats.quiver_from_obj prefixes with "quiver: ".
    for count in (1.5, "2"):
        with pytest.raises(ParseError, match=f"vertex count {count!r} is not"):
            Quiver(count, ())
    with pytest.raises(ParseError, match="vertex count -1 is not a nonnegative integer"):
        Quiver(-1, ())
    assert Quiver(0, ()).vertex_count == 0


def test_quiver_rejects_non_integer_arrow_endpoints():
    # Quiver(2, [Arrow("a", 1.5, 1)]) passed its range check, and
    # Representation and euler_form on it ended in a TypeError traceback.
    for arrow, end in ((Arrow("a", 1.5, 1), "source 1.5"), (Arrow("a", 1, "2"), "target '2'")):
        with pytest.raises(ParseError, match=f"arrow 'a' has {end} out of range"):
            Quiver(2, [arrow])
    assert Quiver(2, [Arrow("a", 1, 2)]).arrows == (Arrow("a", 1, 2),)


def test_euler_form_matches_hom_minus_ext(rng):
    for n in (1, 2, 3):
        for _ in range(6):
            a = random_multiset(rng, n)
            b = random_multiset(rng, n)
            v, w = realize(a), realize(b)
            expected = euler_form(cyclic_quiver(n), v.dims, w.dims)
            assert hom_dim(v, w) - ext1_dim(v, w) == expected


def test_orbit_dim_values():
    simple = zero_rep(KRONECKER, (1, 0))
    assert orbit_dim(simple) == 0
    assert orbit_dim(jordan_block(1)) == 0
    assert orbit_dim(jordan_block(2)) == 2


def test_orbit_dim_complements_self_hom(rng):
    for n in (1, 2):
        for _ in range(5):
            v = realize(random_multiset(rng, n))
            assert orbit_dim(v) + hom_dim(v, v) == sum(d * d for d in v.dims)


def test_direct_sum_dims_and_zero():
    v = jordan_block(2)
    z = zero_rep(LOOP, (0,))
    assert direct_sum(v, z).dims == v.dims
    assert direct_sum(v, v).dims == (4,)


def test_hom_biadditive_over_direct_sum(rng):
    for _ in range(8):
        n = rng.choice([1, 2, 3])
        a, b, c = (realize(random_multiset(rng, n)) for _ in range(3))
        assert hom_dim(direct_sum(a, b), c) == hom_dim(a, c) + hom_dim(b, c)
        assert hom_dim(c, direct_sum(a, b)) == hom_dim(c, a) + hom_dim(c, b)
        assert ext1_dim(direct_sum(a, b), c) == ext1_dim(a, c) + ext1_dim(b, c)


def test_dual_of_zero():
    z = zero_rep(KRONECKER, (1, 2))
    d = dual(z)
    assert d.quiver == opposite(KRONECKER)
    assert d.dims == (1, 2)


def test_dual_involution_and_contravariance(rng):
    for _ in range(6):
        n = rng.choice([1, 2])
        v = realize(random_multiset(rng, n))
        w = realize(random_multiset(rng, n))
        assert dual(dual(v)) == v
        assert hom_dim(v, w) == hom_dim(dual(w), dual(v))
        assert ext1_dim(v, w) == ext1_dim(dual(w), dual(v))


def _relabel(rep, perm):
    """Rebuild a representation with vertices renamed by perm (1-based)."""
    n = rep.quiver.vertex_count
    dims = [0] * n
    for v in range(1, n + 1):
        dims[perm[v] - 1] = rep.dims[v - 1]
    arrows = tuple(
        Arrow(a.name, perm[a.source], perm[a.target]) for a in rep.quiver.arrows
    )
    order = sorted(range(len(arrows)), key=lambda idx: arrows[idx].name)
    return Representation(
        Quiver(n, tuple(arrows[idx] for idx in order)),
        dims,
        tuple(rep.matrices[idx] for idx in order),
    )


def test_dual_of_window_is_single_window():
    # transpose reverses all arrows; relabelling v -> n+1-v restores the
    # canonical cyclic orientation, where the class is again one window
    ms = WindowMultiset(3, [(2, 5)])
    d = dual(realize(ms))
    n = 3
    perm = {v: n + 1 - v for v in range(1, n + 1)}
    relabelled = _relabel(d, perm)
    by_source = dict(
        zip((a.source for a in relabelled.quiver.arrows), relabelled.matrices)
    )
    quiver = cyclic_quiver(n)
    renamed = Representation(
        quiver, relabelled.dims, tuple(by_source[a.source] for a in quiver.arrows)
    )
    decomposed = decompose_nilpotent(renamed)
    assert decomposed.summand_count() == 1
    assert decomposed.windows[0].length == 4


class _HomSystemReached(Exception):
    pass


@pytest.fixture
def hom_system_unreachable(monkeypatch):
    def reached(*args, **kwargs):
        raise _HomSystemReached

    monkeypatch.setattr(reps, "_hom_system", reached)


def zero_loops(loops, dim=40):
    """`loops` zero loops on one vertex of dimension dim."""
    quiver = Quiver(1, tuple(Arrow(f"l{k}", 1, 1) for k in range(loops)))
    return zero_rep(quiver, (dim,))


def test_hom_system_cap_is_the_total_dimension_cap_to_the_fourth():
    assert reps.MAX_HOM_ENTRIES == formats.MAX_TOTAL_DIM**4


@pytest.mark.parametrize("invariant", [hom_dim, ext1_dim])
def test_library_hom_system_cap_raises_before_the_system_is_built(
    hom_system_unreachable, invariant
):
    # Two loops at dimension 40: 3,200 equations x 1,600 unknowns.
    rep = zero_loops(2)
    with pytest.raises(ParseError) as caught:
        invariant(rep, rep)
    assert str(caught.value) == (
        f"Hom system entries {2 * 40**4} exceeds the cap of {40**4}"
    )


@pytest.mark.parametrize("invariant", [hom_dim, ext1_dim])
def test_library_hom_system_cap_admits_one_loop_at_the_cap(
    hom_system_unreachable, invariant
):
    rep = zero_loops(1)
    with pytest.raises(_HomSystemReached):
        invariant(rep, rep)


def test_representation_blocks_tuple_arithmetic():
    v = jordan_block(2)
    for op in (lambda: v + v, lambda: 2 * v, lambda: v * 2):
        with pytest.raises(TypeError):
            op()
