"""Every check in the library raises a quiverdeg.errors class.

The constructors of linalg and reps, SingularityType.a_type and the rank
check of degeneration raised ValueError, or failed late with a message about
something else, so a library caller got a ValueError where every other bad
input gives ParseError.
"""

import json

import pytest

from quiverdeg.degeneration import codim2_pairs, enumerate_nilpotent
from quiverdeg.errors import ParseError
from quiverdeg.linalg import RatMatrix, parse_rational
from quiverdeg.reps import Arrow, Quiver
from quiverdeg.singularity import SingularityType, model_variety_membership, scan_rows
from quiverdeg.windows import WindowMultiset

from cli_runner import invoke


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: parse_rational("x"), "cannot parse rational from 'x'"),
        (lambda: parse_rational(0.5), 'floats are not accepted, use "p/q"'),
        (lambda: parse_rational(True), "cannot interpret True as a rational"),
        (lambda: RatMatrix(2, 2, [1, 2, 3]), "expected 4 entries, got 3"),
        (
            lambda: RatMatrix(1, 2, [1, 2]) @ RatMatrix(1, 2, [1, 2]),
            "shape mismatch in matrix product",
        ),
        (lambda: Quiver(-1, ()), "vertex count -1 is not a nonnegative integer"),
        (lambda: Quiver(2, [Arrow("a", 1, 3)]), "arrow 'a' has target 3 out of range"),
        (
            lambda: Quiver(2, [Arrow("a", 1, 2), Arrow("a", 2, 1)]),
            "duplicate arrow id 'a'",
        ),
        (lambda: SingularityType.a_type(0), "A-type index must be at least 1"),
        # Only the sign of these integers was checked: the matrix was built
        # and its rank() raised TypeError, "2" < 0 raised TypeError, and
        # a_type(1.5) built A1.5.
        (lambda: RatMatrix(1.5, 2, [1, 2, 3]), "matrix rows 1.5 is not an integer"),
        (lambda: RatMatrix("2", 2, []), "matrix rows '2' is not an integer"),
        (lambda: RatMatrix(1, 2.0, [1, 2]), "matrix cols 2.0 is not an integer"),
        (lambda: SingularityType.a_type(1.5), "A-type index 1.5 is not an integer"),
        (
            lambda: model_variety_membership("A", 1, ["x", 1, 1]),
            "cannot parse rational from 'x'",
        ),
        # The rank was checked only against its cap: a negative one failed
        # the length check with a negative length, and 0 only failed inside
        # WindowMultiset.
        (lambda: enumerate_nilpotent(-1, []), "cyclic rank must be at least 1"),
        (lambda: codim2_pairs(-2, ()), "cyclic rank must be at least 1"),
        (lambda: enumerate_nilpotent(0, ()), "cyclic rank must be at least 1"),
        # scan_rows passed its bounds to range() and the cap comparison
        # unread, which raised TypeError.
        (lambda: next(scan_rows(2.5, 3)), "rank 2.5 is not an integer"),
        (lambda: next(scan_rows(2, 3.0)), "total dimension 3.0 is not an integer"),
        (lambda: next(scan_rows("3", 3)), "rank '3' is not an integer"),
        # A bound below 1 gave an empty range, so scan_rows yielded nothing.
        (lambda: next(scan_rows(0, 3)), "rank must be at least 1"),
        (lambda: next(scan_rows(3, 0)), "total dimension must be at least 1"),
        (lambda: WindowMultiset(2, [(1, 2)]).rotated(1.5), "rotation 1.5 is not an integer"),
    ],
    ids=[
        "rational-text",
        "rational-float",
        "rational-bool",
        "matrix-entries",
        "matrix-product",
        "quiver-vertex-count",
        "quiver-endpoint",
        "quiver-duplicate-id",
        "a-type-index",
        "matrix-float-rows",
        "matrix-str-rows",
        "matrix-float-cols",
        "a-type-float-index",
        "model-variety-point",
        "enumerate-negative-rank",
        "codim2-negative-rank",
        "enumerate-rank-zero",
        "scan-float-rank",
        "scan-float-total",
        "scan-str-rank",
        "scan-rank-zero",
        "scan-total-zero",
        "rotated-float-shift",
    ],
)
def test_library_checks_raise_parse_error(build, message):
    with pytest.raises(ParseError) as caught:
        build()
    assert str(caught.value) == message


def test_float_matrix_entry_names_its_field(tmp_path):
    # parse_rational rejects the float; formats only puts the field path in
    # front, so the line is the one formats' own float check printed.
    obj = {
        "quiver": {"vertex_count": 1, "arrows": [{"id": "a1", "source": 1, "target": 1}]},
        "dims": [1],
        "matrices": {"a1": [[0.5]]},
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(obj))
    result = invoke(["decompose", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == 'error: matrices.a1[0][0]: floats are not accepted, use "p/q"\n'


def test_integer_checks_read_true_as_one():
    # The one integer policy, errors.as_int: operator.index, so a bool is
    # the int it subclasses.
    assert RatMatrix(True, 2, [1, 2]) == RatMatrix(1, 2, [1, 2])
    assert type(RatMatrix(True, True, [3]).rows) is int
    assert str(SingularityType.a_type(True)) == "A1"
