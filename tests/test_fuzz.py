"""Fuzzed parser inputs through the CLI: every run ends in a documented exit
code (0, 2, 3, 4 or 5), and a failure writes one `error: ` line and no
traceback. An escaped exception would show up as exit code 1.

Documents start well formed and small, so that the commands they reach stay
cheap, and then at most one node is replaced by junk or deleted. Raw bytes
stand in for files that are not JSON at all.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cli_runner import invoke

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(min_value=10**6),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 4), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 1), max_size=2),
)
ENTRIES = st.sampled_from([-1, 0, 1, 2, "1/2", "-2/3"])


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for idx, value in enumerate(obj):
            yield from _paths(value, prefix + (idx,))


@st.composite
def mutated(draw, doc):
    """doc unchanged, or with one node replaced by junk or deleted."""
    action = draw(st.sampled_from(["keep", "keep", "replace", "delete"]))
    if action == "keep":
        return doc
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(JUNK)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JUNK)
    return doc


@st.composite
def windows_docs(draw):
    n = draw(st.integers(1, 3))
    spans = draw(st.lists(st.tuples(st.integers(-2, 3), st.integers(1, 3)), max_size=3))
    return draw(mutated({"n": n, "windows": [[i, i + length - 1] for i, length in spans]}))


def _quiver(draw, n):
    if draw(st.booleans()):
        arrows = [{"id": f"a{v}", "source": v, "target": (v - 2) % n + 1}
                  for v in range(1, n + 1)]
    else:
        inside = st.integers(1, max(n, 1))
        ends = st.one_of(inside, inside, st.integers(0, n + 1))
        arrows = [{"id": f"b{k}", "source": draw(ends), "target": draw(ends)}
                  for k in range(draw(st.integers(0, 3)))]
    return {"vertex_count": n, "arrows": arrows}


@st.composite
def quiver_docs(draw):
    return draw(mutated(_quiver(draw, draw(st.integers(0, 3)))))


@st.composite
def rep_docs(draw):
    n = draw(st.integers(1, 3))
    quiver = _quiver(draw, n)
    dims = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    matrices = {}
    for a in quiver["arrows"]:
        rows = dims[a["target"] - 1] if 1 <= a["target"] <= n else 1
        cols = dims[a["source"] - 1] if 1 <= a["source"] <= n else 1
        matrices[a["id"]] = [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    return draw(mutated({"quiver": quiver, "dims": dims, "matrices": matrices}))


def files(docs):
    document = docs.map(lambda d: json.dumps(d).encode())
    return st.one_of(document, document, document, st.binary(max_size=24))


def dims_text(length):
    """--dim, --d and --e values of `length` entries: small ones, junk tokens,
    and ones large enough to trip the size caps."""
    entry = st.integers(0, 2).map(str)
    junk = st.sampled_from(["", "-1", "x", "1.5", " 1", "+1", "٢", "99", "7" * 5000])
    tokens = st.one_of(entry, entry, entry, junk)
    return st.lists(tokens, min_size=length, max_size=length).map(",".join)


def _args(data, command, tmp):
    def path(name, docs):
        target = tmp / name
        target.write_bytes(data.draw(files(docs)))
        return str(target)

    if command in ("hom", "ext"):
        either = st.one_of(windows_docs(), rep_docs())
        return [command, path("left.json", either), path("right.json", either)]
    if command == "decompose":
        return [command, path("rep.json", rep_docs())]
    if command == "realize":
        return [command, path("windows.json", windows_docs())]
    if command in ("degenerates", "codim", "classify"):
        return [command, path("m.json", windows_docs()), path("n.json", windows_docs())]
    if command == "euler":
        quiver = path("quiver.json", st.one_of(quiver_docs(), rep_docs()))
        length = data.draw(st.integers(1, 3))
        return [command, quiver, "--d=" + data.draw(dims_text(length)),
                "--e=" + data.draw(dims_text(length))]
    rank = data.draw(st.one_of(st.integers(-1, 4), st.integers(41, 10**9)))
    fits = 1 <= rank <= 4 and data.draw(st.booleans())
    length = rank if fits else data.draw(st.integers(1, 4))
    args = ["hasse", "--n", str(rank), "--dim=" + data.draw(dims_text(length))]
    return args + (["--annotate"] if data.draw(st.booleans()) else [])


@pytest.mark.parametrize("command", ["hom", "ext", "decompose", "realize", "degenerates",
                                     "codim", "classify", "euler", "hasse"])
@given(data=st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_input_ends_in_a_documented_exit(command, data, tmp_path):
    result = invoke(_args(data, command, tmp_path))
    assert result.exit_code in (0, 2, 3, 4, 5), repr(result.exception)
    assert "Traceback" not in result.output
    if result.exit_code:
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1, result.stderr
