import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverdeg.errors import ParseError
from quiverdeg.linalg import RatMatrix, format_rational, parse_rational

from oracles import (
    identity_matrix,
    kernel_basis,
    matrix_from_rows,
    transpose,
    zero_matrix,
)


def test_parse_rational_forms():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("2/6") == Fraction(1, 3)
    assert parse_rational("-7") == Fraction(-7)
    with pytest.raises(ParseError):
        parse_rational("1/0")
    # Only integers and "p/q": Fraction alone would also read these.
    for text in ("1e3000000", "0.5", "1_000"):
        with pytest.raises(ParseError, match="cannot parse rational"):
            parse_rational(text)
    with pytest.raises(ParseError):
        parse_rational(0.5)
    with pytest.raises(ParseError):
        parse_rational(True)


def test_format_rational_round_trip():
    assert format_rational(Fraction(4)) == 4
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert parse_rational(format_rational(Fraction(22, 6))) == Fraction(11, 3)


def test_rank_identity():
    assert identity_matrix(3).rank() == 3


def test_rank_zero_matrix():
    assert zero_matrix(2, 5).rank() == 0


def test_rank_proportional_rows():
    m = matrix_from_rows([[1, 2], [2, 4]])
    assert m.rank() == 1


def test_rank_empty_shapes():
    assert zero_matrix(0, 4).rank() == 0
    assert zero_matrix(4, 0).rank() == 0


def test_rank_rational_entries():
    m = matrix_from_rows([["1/2", "1/3"], ["1/4", "1/6"]])
    assert m.rank() == 1
    m = matrix_from_rows([["1/2", "1/3"], ["1/3", "1/2"]])
    assert m.rank() == 2


def test_kernel_identity_empty():
    assert kernel_basis(identity_matrix(2)) == []


def test_kernel_zero_matrix():
    basis = kernel_basis(zero_matrix(2, 3))
    assert len(basis) == 3


def test_kernel_single_relation():
    (vec,) = kernel_basis(matrix_from_rows([[1, 1]]))
    assert vec[0] * -1 == vec[1]
    assert vec[0] != 0


def _random_matrix(rng, rows, cols, scale=6):
    return RatMatrix(
        rows,
        cols,
        [
            Fraction(rng.randint(-scale, scale), rng.randint(1, 3))
            for _ in range(rows * cols)
        ],
    )


matrix_strategy = st.builds(
    lambda rows, cols, seed: _random_matrix(random.Random(seed), rows, cols),
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 10_000),
)


@given(matrix_strategy)
@settings(max_examples=60, deadline=None)
def test_rank_equals_transpose_rank(m):
    assert m.rank() == transpose(m).rank()


@given(matrix_strategy)
@settings(max_examples=60, deadline=None)
def test_rank_plus_nullity(m):
    assert m.cols == m.rank() + len(kernel_basis(m))


@given(matrix_strategy)
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    for vec in kernel_basis(m):
        assert not any((m @ RatMatrix(m.cols, 1, vec)).entries)


@given(matrix_strategy, st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_permutation_and_scaling(m, seed):
    rng = random.Random(seed)
    rows = m.row_list()
    rng.shuffle(rows)
    scaled = []
    for row in rows:
        c = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
        scaled.append([c * x for x in row])
    cols = list(range(m.cols))
    rng.shuffle(cols)
    permuted = [[row[j] for j in cols] for row in scaled]
    m2 = RatMatrix(m.rows, m.cols, [x for row in permuted for x in row])
    assert m2.rank() == m.rank()


def test_bareiss_stays_integral_on_integer_input():
    # on integer input the fraction-free elimination divides exactly
    rng = random.Random(5)
    for _ in range(20):
        m = RatMatrix(
            4, 4, [Fraction(rng.randint(-9, 9)) for _ in range(16)]
        )
        assert 0 <= m.rank() <= 4


def test_matmul_and_apply():
    a = matrix_from_rows([[1, 2], [0, 1]])
    b = matrix_from_rows([[1, 0], [3, 1]])
    assert (a @ b) == matrix_from_rows([[7, 2], [3, 1]])
    assert a @ matrix_from_rows([[1], [1]]) == matrix_from_rows([[3], [1]])


def test_matrix_blocks_tuple_arithmetic():
    # A tuple base would concatenate or repeat the fields; a matrix sum or a
    # scalar multiple is not defined here, so each raises TypeError.
    m = matrix_from_rows([[1, 2], [3, 4]])
    for op in (lambda: m + m, lambda: 2 * m, lambda: m * 2):
        with pytest.raises(TypeError):
            op()
