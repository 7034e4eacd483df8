import contextlib
import gc
import io
import json
import os
import shlex
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from quiverdeg import cli, degeneration, errors, formats, reps
from quiverdeg.cli import main
from quiverdeg.formats import (
    canonical_dumps,
    rep_to_obj,
    windows_from_obj,
    windows_to_obj,
)
from quiverdeg.windows import WindowMultiset, realize

from cli_runner import invoke


def write_windows(path, n, pairs):
    path.write_text(canonical_dumps({"n": n, "windows": [list(p) for p in pairs]}))
    return str(path)


def write_rep(path, ms):
    path.write_text(canonical_dumps(rep_to_obj(realize(ms))))
    return str(path)


def test_hom_command_on_loop_blocks(tmp_path):
    a = write_rep(tmp_path / "a.json", WindowMultiset(1, [(1, 2)]))
    b = write_rep(tmp_path / "b.json", WindowMultiset(1, [(1, 3)]))
    result = invoke(["hom", a, b])
    assert result.exit_code == 0
    assert result.output.strip() == "2"


def test_hom_command_accepts_windows_files(tmp_path):
    a = write_windows(tmp_path / "a.json", 2, [(1, 4)])
    b = write_windows(tmp_path / "b.json", 2, [(2, 3)])
    result = invoke(["hom", a, b])
    assert result.exit_code == 0
    assert result.output.strip() == "1"


def test_ext_command_no_arrow_quiver(tmp_path):
    obj = {
        "quiver": {"vertex_count": 2, "arrows": []},
        "dims": [1, 1],
        "matrices": {},
    }
    path = tmp_path / "r.json"
    path.write_text(json.dumps(obj))
    result = invoke(["ext", str(path), str(path)])
    assert result.exit_code == 0
    assert result.output.strip() == "0"


def test_euler_command_kronecker(tmp_path):
    obj = {
        "vertex_count": 2,
        "arrows": [
            {"id": "x", "source": 1, "target": 2},
            {"id": "y", "source": 1, "target": 2},
        ],
    }
    path = tmp_path / "q.json"
    path.write_text(json.dumps(obj))
    result = invoke(["euler", str(path), "--d", "1,0", "--e", "0,1"])
    assert result.exit_code == 0
    assert result.output.strip() == "-2"


def test_realize_then_decompose_round_trip(tmp_path):
    wfile = write_windows(tmp_path / "w.json", 2, [(2, 5), (1, 1)])
    realized = invoke(["realize", wfile])
    assert realized.exit_code == 0
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(realized.output)
    decomposed = invoke(["decompose", str(rep_path)])
    assert decomposed.exit_code == 0
    ms = windows_from_obj(json.loads(decomposed.output))
    assert ms == WindowMultiset(2, [(2, 5), (1, 1)])


def test_decompose_jordan_file(tmp_path):
    obj = {
        "quiver": {
            "vertex_count": 1,
            "arrows": [{"id": "a1", "source": 1, "target": 1}],
        },
        "dims": [3],
        "matrices": {"a1": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]},
    }
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(obj))
    result = invoke(["decompose", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"n": 1, "windows": [[1, 1], [1, 2]]}


def test_decompose_non_nilpotent_exits_3(tmp_path):
    obj = {
        "quiver": {
            "vertex_count": 1,
            "arrows": [{"id": "a1", "source": 1, "target": 1}],
        },
        "dims": [1],
        "matrices": {"a1": [[1]]},
    }
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(obj))
    result = invoke(["decompose", str(path)])
    assert result.exit_code == 3


def test_decompose_non_cyclic_exits_2(tmp_path):
    obj = {
        "quiver": {
            "vertex_count": 2,
            "arrows": [
                {"id": "x", "source": 1, "target": 2},
                {"id": "y", "source": 1, "target": 2},
            ],
        },
        "dims": [0, 0],
        "matrices": {"x": [], "y": []},
    }
    path = tmp_path / "kron.json"
    path.write_text(json.dumps(obj))
    result = invoke(["decompose", str(path)])
    assert result.exit_code == 2


def test_degenerates_and_codim_known_pair(tmp_path):
    m = write_windows(tmp_path / "m.json", 2, [(1, 4)])
    nn = write_windows(tmp_path / "n.json", 2, [(1, 2), (2, 3)])
    assert invoke(["degenerates", m, nn]).output.strip() == "true"
    assert invoke(["codim", m, nn]).output.strip() == "2"
    reversed_ = invoke(["degenerates", nn, m])
    assert reversed_.output.strip() == "false"
    codim_reversed = invoke(["codim", nn, m])
    assert codim_reversed.exit_code == 4


def test_codim_of_equal_inputs_is_zero(tmp_path):
    m = write_windows(tmp_path / "m.json", 2, [(1, 2)])
    assert invoke(["degenerates", m, m]).output.strip() == "true"
    assert invoke(["codim", m, m]).output.strip() == "0"


def test_classify_worked_examples(tmp_path):
    m1 = write_windows(tmp_path / "m1.json", 2, [(1, 4)])
    n1 = write_windows(tmp_path / "n1.json", 2, [(1, 2), (2, 3)])
    assert invoke(["classify", m1, n1]).output.strip() == "Reg"
    m2 = write_windows(tmp_path / "m2.json", 2, [(1, 1), (2, 8)])
    n2 = write_windows(tmp_path / "n2.json", 2, [(1, 3), (2, 6)])
    trace_path = tmp_path / "trace.json"
    result = invoke(["classify", m2, n2, "--trace", str(trace_path)])
    assert result.exit_code == 0
    assert result.output.strip() == "A1"
    trace = json.loads(trace_path.read_text())
    assert trace["result"] == "A1"
    assert trace["start_codim"] == 2
    assert [s["kind"] for s in trace["steps"]] == [
        "socle",
        "socle",
        "top",
        "relabel",
        "terminal",
    ]
    for step in trace["steps"]:
        assert set(step) >= {"kind", "m", "n", "codim"}


def test_classify_out_of_scope_exits_5(tmp_path):
    m = write_windows(tmp_path / "m.json", 1, [(1, 5)])
    nn = write_windows(tmp_path / "n.json", 1, [(1, 2), (1, 3)])
    result = invoke(["classify", m, nn])
    assert result.exit_code == 5


def test_classify_not_a_degeneration_exits_4(tmp_path):
    m = write_windows(tmp_path / "m.json", 2, [(1, 2), (2, 3)])
    nn = write_windows(tmp_path / "n.json", 2, [(1, 4)])
    result = invoke(["classify", m, nn])
    assert result.exit_code == 4


# The CLI exit code of each error class; None ends in a traceback.
EXIT_CODES = {
    "ParseError": 2,
    "NotNilpotent": 3,
    "NotADegeneration": 4,
    "OutOfScope": 5,
    "Error": None,
    "Inconsistent": None,
}


def test_each_error_carries_its_exit_code():
    classes = {
        name: obj for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.Error)
    }
    assert {name: cls.exit_code for name, cls in classes.items()} == EXIT_CODES


def test_an_error_without_an_exit_code_ends_in_a_traceback(tmp_path, monkeypatch):
    def broken(m, nn):
        raise errors.Inconsistent("broken invariant")

    monkeypatch.setattr(cli, "classify", broken)
    m = write_windows(tmp_path / "m.json", 1, [(1, 2)])
    nn = write_windows(tmp_path / "n.json", 1, [(1, 1), (1, 1)])
    result = invoke(["classify", m, nn])
    assert isinstance(result.exception, errors.Inconsistent)
    assert result.exit_code == 1
    assert "error:" not in result.output
    with pytest.raises(errors.Inconsistent, match="broken invariant"):
        invoke(["classify", m, nn], catch_exceptions=False)


def test_hasse_dot_annotated():
    result = invoke(["hasse", "--n", "1", "--dim", "2", "--annotate"]
    )
    assert result.exit_code == 0
    assert result.output.count("->") == 1
    assert 'label="c=2, A1"' in result.output


def test_hasse_json_three_nodes():
    result = invoke(["hasse", "--n", "2", "--dim", "1,1", "--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert len(obj["nodes"]) == 3


def test_hasse_singleton():
    result = invoke(["hasse", "--n", "1", "--dim", "1"])
    assert result.exit_code == 0
    assert "->" not in result.output


def test_hasse_bad_dims_exits_2():
    assert invoke(["hasse", "--n", "2", "--dim", "1"]).exit_code == 2
    assert invoke(["hasse", "--n", "1", "--dim", "x"]).exit_code == 2


def test_hasse_output_file_and_determinism(tmp_path):
    out1 = tmp_path / "one.dot"
    out2 = tmp_path / "two.dot"
    for out in (out1, out2):
        result = invoke(["hasse", "--n", "2", "--dim", "2,1", "--annotate", "-o", str(out)],
        )
        assert result.exit_code == 0
    assert out1.read_text() == out2.read_text()


def test_parse_error_names_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "windows": [[3, 1]]}))
    result = invoke(["degenerates", str(path), str(path)])
    assert result.exit_code == 2
    assert "windows" in result.output


@pytest.mark.parametrize(
    "command, obj, field",
    [
        (
            "decompose",
            {
                "quiver": {"vertex_count": 2, "arrows": [{"id": "a1", "source": 1, "target": 2}]},
                "dims": [1],
                "matrices": {"a1": [[0]]},
            },
            "dims",
        ),
        (
            "decompose",
            {
                "quiver": {"vertex_count": 1, "arrows": []},
                "dims": [True],
                "matrices": {},
            },
            "dims",
        ),
        (
            "decompose",
            {
                "quiver": {"vertex_count": True, "arrows": []},
                "dims": [1],
                "matrices": {},
            },
            "quiver.vertex_count",
        ),
        (
            "decompose",
            {
                "quiver": {
                    "vertex_count": 2,
                    "arrows": [{"id": "a1", "source": True, "target": 2}],
                },
                "dims": [1, 1],
                "matrices": {"a1": [[0]]},
            },
            "quiver.arrows[0]",
        ),
        ("realize", {"n": True, "windows": [[1, 1]]}, "windows.n"),
        ("realize", {"n": 2, "windows": [[True, 2]]}, "windows.windows[0]"),
    ],
    ids=["short-dims", "bool-dims", "bool-vertex-count", "bool-source", "bool-n",
         "bool-endpoint"],
)
def test_hostile_input_exits_2_naming_the_field(tmp_path, command, obj, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    result = invoke([command, str(path)])
    assert result.exit_code == 2
    assert field in result.output


def test_missing_file_exits_2():
    result = invoke(["codim", "nope.json", "nada.json"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "text",
    ["[" * 200_000, '{"n": ' + "7" * 5000 + ', "windows": []}'],
    ids=["deep-nesting", "huge-integer"],
)
def test_hostile_json_exits_2_naming_the_file(tmp_path, text):
    path = tmp_path / "hostile.json"
    path.write_text(text)
    result = invoke(["codim", str(path), str(path)])
    assert result.exit_code == 2
    assert str(path) in result.output


def test_matrix_floats_rejected(tmp_path):
    obj = {
        "quiver": {
            "vertex_count": 1,
            "arrows": [{"id": "a1", "source": 1, "target": 1}],
        },
        "dims": [1],
        "matrices": {"a1": [[0.5]]},
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(obj))
    result = invoke(["decompose", str(path)])
    assert result.exit_code == 2
    assert "a1" in result.output


def test_matrix_exponents_rejected_fast(tmp_path):
    # Fraction reads "1e3000000" as a 3,000,001-digit integer: hom took 11 s
    # on this file and exited 0.
    obj = {
        "quiver": {
            "vertex_count": 1,
            "arrows": [{"id": "a1", "source": 1, "target": 1}],
        },
        "dims": [2],
        "matrices": {"a1": [[0, "1e3000000"], [0, 0]]},
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    result = invoke(["hom", str(path), str(path)])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert "matrices.a1[0][1]: cannot parse rational from '1e3000000'" in result.output


def test_rep_file_round_trips_byte_stably(tmp_path):
    ms = WindowMultiset(2, [(1, 3), (2, 2)])
    text = canonical_dumps(rep_to_obj(realize(ms)))
    path = tmp_path / "rep.json"
    path.write_text(text)
    realized = invoke(["realize", str(write_windows(tmp_path / "w.json", 2, [(1, 3), (2, 2)]))])
    assert realized.output == text


def test_windows_emitted_canonical_and_sorted(tmp_path):
    path = write_windows(tmp_path / "w.json", 2, [(3, 6), (0, 1)])
    realized = invoke(["realize", path])
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(realized.output)
    decomposed = invoke(["decompose", str(rep_path)])
    assert json.loads(decomposed.output) == {"n": 2, "windows": [[1, 4], [2, 3]]}


def test_scan_small_summary():
    result = invoke(["scan", "--max-n", "1", "--max-dim", "4"])
    assert result.exit_code == 0
    assert "no unresolved pairs" in result.output
    assert "no C-type labels emitted" in result.output
    assert "TOTAL" in result.output


def test_scan_deterministic():
    one = invoke(["scan", "--max-n", "2", "--max-dim", "3"])
    two = invoke(["scan", "--max-n", "2", "--max-dim", "3"])
    assert one.output == two.output


def test_in_process_call_does_not_keep_its_stdout_alive():
    out = io.StringIO()
    alive = weakref.ref(out)
    with contextlib.redirect_stdout(out):
        main(["hasse", "--n", "2", "--dim", "1,1"])
    assert out.getvalue().startswith("digraph")
    del out
    gc.collect()
    assert alive() is None


def test_in_process_failure_does_not_keep_its_stderr_alive():
    err = io.StringIO()
    alive = weakref.ref(err)
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exited:
        main(["hasse", "--n", "2", "--dim", "1"])
    assert exited.value.code == 2
    assert err.getvalue() == "error: --dim must list 2 nonnegative integers, got '1'\n"
    del err
    gc.collect()
    assert alive() is None


def assert_clean_exit_2(result, path):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"error: {path}: " in result.output
    assert "Traceback" not in result.output


def test_hasse_unwritable_output_exits_2(tmp_path):
    out = tmp_path / "missing" / "dir" / "x.dot"
    result = invoke(["hasse", "--n", "1", "--dim", "2", "-o", str(out)])
    assert_clean_exit_2(result, out)


def test_classify_unwritable_trace_exits_2(tmp_path):
    m = write_windows(tmp_path / "m.json", 1, [(1, 2)])
    nn = write_windows(tmp_path / "n.json", 1, [(1, 1), (1, 1)])
    trace = tmp_path / "missing" / "dir" / "t.json"
    result = invoke(["classify", m, nn, "--trace", str(trace)])
    assert_clean_exit_2(result, trace)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "args",
    [["scan", "--max-n", "1", "--max-dim", "2"], ["hasse", "--n", "2", "--dim", "1,1"]],
)
def test_full_stdout_exits_2_with_one_line(args, unbuffered):
    # A write to stdout that fails ends like an unwritable -o file, and the
    # interpreter's own flush at exit adds nothing to stderr. A buffered
    # stdout (the default for a file or pipe) keeps the bytes whose flush
    # failed, so both modes are run whatever the calling environment sets.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            [sys.executable, "-m", "quiverdeg.cli", *args],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert done.stderr.startswith("error: stdout: ")
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


def test_hasse_jobs_is_a_hidden_compatibility_flag():
    args = ["hasse", "--n", "3", "--dim", "2,2,2", "--annotate"]
    plain = invoke(args)
    assert plain.exit_code == 0
    with_jobs = invoke(args + ["--jobs", "1"])
    assert with_jobs.exit_code == 0
    assert with_jobs.stdout == plain.stdout
    rejected = invoke(args + ["--jobs", "2"])
    assert rejected.exit_code == 2
    assert "--jobs" in rejected.output
    help_text = invoke(["hasse", "--help"]).output
    assert "--annotate" in help_text
    assert "--jobs" not in help_text


@pytest.fixture
def nothing_allocates(monkeypatch):
    """Fail the test if an oversized input gets past its cap to any builder."""

    def reached(*args, **kwargs):
        raise AssertionError("reached past the size cap")

    monkeypatch.setattr(degeneration, "rank_key", reached)
    monkeypatch.setattr(degeneration.TestSet, "up_to", classmethod(reached))
    monkeypatch.setattr(degeneration, "enumerate_nilpotent", reached)
    monkeypatch.setattr(formats, "WindowMultiset", reached)
    monkeypatch.setattr(formats, "realize", reached)
    monkeypatch.setattr(formats, "Representation", reached)
    monkeypatch.setattr(cli, "scan_rows", reached)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"n": 1, "windows": [[1, 100_000_000]]},
         "windows.windows[0]: length 100000000 exceeds the cap of 40"),
        ({"n": 2, "windows": [[1, 20], [2, 22]]},
         "windows.windows: total dimension 41 exceeds the cap of 40"),
        ({"n": 10**9, "windows": [[1, 1]]}, "windows.n: 1000000000 exceeds the cap of 40"),
    ],
    ids=["window-length", "total-dimension", "rank"],
)
@pytest.mark.parametrize("command", ["codim", "classify", "hom"])
def test_windows_size_caps_exit_2_before_allocation(
    tmp_path, nothing_allocates, command, obj, message
):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    result = invoke([command, str(path), str(path)])
    assert result.exit_code == 2
    assert message in result.output


def test_representation_total_dimension_cap_exits_2(tmp_path, nothing_allocates):
    # dims [0, 41] needs only 41 empty rows in the file, but a 41 x 41 identity
    # and a Hom system of 41^4 entries behind it.
    obj = {
        "quiver": {
            "vertex_count": 2,
            "arrows": [
                {"id": "a1", "source": 1, "target": 2},
                {"id": "a2", "source": 2, "target": 1},
            ],
        },
        "dims": [0, 41],
        "matrices": {"a1": [[]] * 41, "a2": []},
    }
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(obj))
    result = invoke(["decompose", str(path)])
    assert result.exit_code == 2
    assert "dims: total dimension 41 exceeds the cap of 40" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["hasse", "--n", "41", "--dim", "1"], "--n 41 exceeds the cap of 40"),
        (["hasse", "--n", "2", "--dim", "20,21"], "--dim total 41 exceeds the cap of 40"),
        (["scan", "--max-n", "100000000"], "--max-n 100000000 exceeds the cap of 40"),
        (["scan", "--max-dim", "41"], "--max-dim 41 exceeds the cap of 40"),
    ],
    ids=["hasse-n", "hasse-dim", "scan-max-n", "scan-max-dim"],
)
def test_cli_size_caps_exit_2_before_allocation(nothing_allocates, args, message):
    result = invoke(args)
    assert result.exit_code == 2
    assert message in result.output


def test_size_caps_admit_sizes_at_the_cap(tmp_path):
    # The caps sit above every documented range: hasse (6,6,6), scan n <= 4.
    assert formats.MAX_RANK >= 4 and formats.MAX_TOTAL_DIM >= 18
    path = write_windows(tmp_path / "w.json", 40, [(1, 40)])
    result = invoke(["codim", path, path])
    assert result.exit_code == 0
    assert result.output == "0\n"


class _HomSystemReached(Exception):
    pass


def write_loops(path, loops, dim=40):
    """Representation file of `loops` zero loops on one vertex of dimension dim."""
    obj = {
        "quiver": {
            "vertex_count": 1,
            "arrows": [{"id": f"l{k}", "source": 1, "target": 1} for k in range(loops)],
        },
        "dims": [dim],
        "matrices": {f"l{k}": [[0] * dim] * dim for k in range(loops)},
    }
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def hom_system_unreachable(monkeypatch):
    def reached(*args, **kwargs):
        raise _HomSystemReached

    monkeypatch.setattr(reps, "_hom_system", reached)


@pytest.mark.parametrize(
    "loops, entries", [(2, 2 * 40**2 * 40**2), (16, 16 * 40**2 * 40**2)]
)
@pytest.mark.parametrize("command", ["hom", "ext"])
def test_hom_system_cap_exits_2_before_the_system_is_built(
    tmp_path, hom_system_unreachable, command, loops, entries
):
    # The total dimension is at its cap; the arrow count makes the system large.
    path = write_loops(tmp_path / "loops.json", loops)
    result = invoke([command, path, path])
    assert result.exit_code == 2
    assert result.output == (
        f"error: Hom system entries {entries} exceeds the cap of {40**4}\n"
    )


def test_hom_system_cap_admits_one_loop_at_the_cap(
    tmp_path, hom_system_unreachable
):
    # 1,600 equations x 1,600 unknowns is exactly MAX_TOTAL_DIM ** 4: the
    # check passes and the builder is reached (and stopped, skipping the rank).
    path = write_loops(tmp_path / "loop.json", 1)
    result = invoke(["hom", path, path])
    assert isinstance(result.exception, _HomSystemReached)


def test_hom_on_mismatched_quivers_still_reports_the_mismatch(tmp_path):
    left = write_loops(tmp_path / "one.json", 1, dim=2)
    right = write_loops(tmp_path / "two.json", 2, dim=2)
    result = invoke(["hom", left, right])
    assert result.exit_code == 2
    assert result.output == "error: representations live over different quivers\n"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_usage_lines():
    """The `quiverdeg ...` lines of the README's CLI block, comments stripped."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## CLI"):].split("```")[1]
    return [
        shlex.split(line.partition("#")[0])[1:]
        for line in block.splitlines()
        if line.startswith("quiverdeg ")
    ]


def test_every_readme_usage_line_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_windows(tmp_path / "A.json", 2, [(1, 4)])
    write_rep(tmp_path / "B.json", WindowMultiset(2, [(2, 3)]))
    (tmp_path / "Q.json").write_text(json.dumps({
        "vertex_count": 2,
        "arrows": [{"id": "x", "source": 1, "target": 2}],
    }))
    write_windows(tmp_path / "windows.json", 2, [(1, 3), (2, 2)])
    write_rep(tmp_path / "rep.json", WindowMultiset(2, [(1, 3), (2, 2)]))
    write_windows(tmp_path / "M.json", 2, [(1, 4)])
    write_windows(tmp_path / "N.json", 2, [(1, 2), (2, 3)])
    lines = readme_usage_lines()
    assert [args[0] for args in lines] == [
        "hom", "ext", "euler", "realize", "decompose", "degenerates", "codim",
        "classify", "hasse", "scan",
    ]
    for args in lines:
        result = invoke(args)
        assert result.exit_code == 0, (args, result.output)
    assert json.loads((tmp_path / "trace.json").read_text())["result"] == "Reg"
    assert (tmp_path / "out.dot").read_text().startswith("digraph")


@pytest.mark.parametrize(
    "args",
    [
        ["hasse", "--n", "2", "--dim", "1,1", "--bogus"],
        ["codim", "only-one.json"],
        ["hasse", "--n", "2"],
        [],
        ["frobnicate"],
        ["hasse", "--n", "2", "--dim", "1,1", "--format", "xml"],
        ["hasse", "--n", "two", "--dim", "1,1"],
        ["euler", "q.json", "--d", "1"],
    ],
    ids=["unknown-option", "missing-argument", "missing-option", "no-command",
         "unknown-command", "format-xml", "non-integer", "missing-e"],
)
def test_usage_errors_exit_2(args):
    result = invoke(args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "usage: quiverdeg" in result.stderr


@pytest.mark.parametrize(
    "args, last_line",
    [
        (["hasse", "--n", "1_0", "--dim", ",".join("1" + "0" * 9)],
         "quiverdeg hasse: error: argument --n: invalid integer: '1_0'"),
        (["hasse", "--n", "2", "--dim", "1_0,0"],
         "error: --dim must be comma-separated integers, got '1_0,0'"),
        (["hasse", "--n", "1", "--dim", "\u0663"],
         "error: --dim must be comma-separated integers, got '\u0663'"),
        (["scan", "--max-n", "1", "--max-dim", "\u0663"],
         "quiverdeg scan: error: argument --max-dim: invalid integer: '\u0663'"),
        (["euler", "{quiver}", "--d", "1_0", "--e", "1"],
         "error: --d must be comma-separated integers, got '1_0'"),
    ],
    ids=["n-underscore", "dim-underscore", "dim-arabic-indic", "max-dim-arabic-indic",
         "euler-d-underscore"],
)
def test_integer_flags_take_only_ascii_digits(tmp_path, args, last_line):
    # The file policy of parse_rational: int() alone would read 1_0 as 10
    # and the Arabic-Indic digit three as 3.
    quiver = tmp_path / "q.json"
    quiver.write_text(json.dumps({"vertex_count": 1, "arrows": []}))
    result = invoke([arg.format(quiver=quiver) for arg in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == last_line


def test_hasse_options_do_not_abbreviate():
    # --d is euler's option; on hasse it must not be taken for --dim.
    result = invoke(["hasse", "--n", "2", "--d", "1,1"])
    assert result.exit_code == 2
    assert "--d" in result.stderr


def test_option_spellings_and_defaults(tmp_path):
    spaced = invoke(["hasse", "--n", "2", "--dim", "2,1", "--annotate"])
    assert spaced.exit_code == 0
    assert spaced.stdout.startswith("digraph")  # --format dot by default
    assert invoke(["hasse", "--n", "2", "--dim=2,1", "--annotate"]) == spaced
    assert invoke(["hasse", "--n=2", "--dim=2,1", "--annotate", "--format=dot"]) == spaced
    out = tmp_path / "out.dot"
    written = invoke(["hasse", "--n", "2", "--dim", "2,1", "--annotate", "-o", str(out)])
    assert (written.exit_code, written.output) == (0, "")
    assert out.read_text() == spaced.stdout
    default = invoke(["scan"])
    assert default.exit_code == 0
    assert default == invoke(["scan", "--max-n", "3", "--max-dim", "7"])


def test_negative_rank_ends_in_one_error_line():
    result = invoke(["hasse", "--n", "-1", "--dim=1"])
    assert result.exit_code == 2
    assert result.output == "error: --n must be at least 1\n"


@pytest.mark.parametrize("flag", ["--max-n", "--max-dim"])
def test_scan_bound_below_one_names_its_flag(flag):
    result = invoke(["scan", flag, "0"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {flag} must be at least 1\n"
