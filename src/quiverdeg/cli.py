"""Command-line front end.

Exit codes, read off the error class (errors.py): 0 success, 2 malformed
or ill-fitting input, a size above its cap and unreadable or unwritable files
(ParseError), 3 nilpotency violations, 4 order violations (not a
degeneration), 5 scope violations (codim > 2).
All outputs are byte-deterministic for identical inputs and flags.
"""

from __future__ import annotations

import functools
import sys

import click

from . import degeneration as dg
from . import formats
from .errors import Error, ParseError
from .reps import ext1_dim, euler_form, hom_dim
from .singularity import annotate, classify, scan_rows
from .windows import decompose_nilpotent, realize


def _exits(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Error as exc:
            # An error without an exit code is a bug and ends in a traceback.
            if exc.exit_code is None:
                raise
            # Not click.echo(err=True), for the reason given in _write_output.
            sys.stderr.write(f"error: {exc}\n")
            sys.stderr.flush()
            sys.exit(exc.exit_code)

    return wrapper


def _write_output(text: str, out: str | None = None) -> None:
    # Not click.echo: click caches a wrapper per stdout object in a
    # WeakKeyDictionary whose value is the stream itself for text streams, so
    # every stdout it ever wrote to (StringIO under redirect_stdout or
    # CliRunner) stays alive with all of its contents.
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"{out}: {exc.strerror or exc}") from exc


def _parse_dims(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise ParseError(f"bad dimension vector {raw!r}: {exc}") from exc


def _check_cap(field: str, value: int, cap: int) -> None:
    """Reject a size above its cap (formats.MAX_*) before anything is built."""
    if value > cap:
        raise ParseError(f"{field} {value} exceeds the cap of {cap}")


@click.group()
def main():
    """Exact invariants, degeneration order and singularity types for
    nilpotent representations of cyclic quivers."""


def _load_hom_pair(left: str, right: str):
    """Both files of hom or ext; a Hom system of more than MAX_TOTAL_DIM ** 4
    entries (equations x unknowns) exits 2 before it is built, because the
    total-dimension cap does not bound the number of arrows."""
    v = formats.load_rep_or_windows(left)
    w = formats.load_rep_or_windows(right)
    if v.quiver == w.quiver:  # otherwise hom_dim and ext1_dim raise ParseError
        arrows = v.quiver.arrows
        equations = sum(w.dims[a.target - 1] * v.dims[a.source - 1] for a in arrows)
        unknowns = sum(x * y for x, y in zip(v.dims, w.dims))
        _check_cap("Hom system entries", equations * unknowns, formats.MAX_TOTAL_DIM**4)
    return v, w


@main.command("hom")
@click.argument("left")
@click.argument("right")
@_exits
def cmd_hom(left, right):
    """Hom dimension between two representation (or windows) files."""
    _write_output(f"{hom_dim(*_load_hom_pair(left, right))}\n")


@main.command("ext")
@click.argument("left")
@click.argument("right")
@_exits
def cmd_ext(left, right):
    """Ext^1 dimension between two representation (or windows) files."""
    _write_output(f"{ext1_dim(*_load_hom_pair(left, right))}\n")


@main.command("euler")
@click.argument("quiver_file")
@click.option("--d", "dvec", required=True, help="comma-separated dimension vector")
@click.option("--e", "evec", required=True, help="comma-separated dimension vector")
@_exits
def cmd_euler(quiver_file, dvec, evec):
    """Euler form of two dimension vectors over the quiver in FILE."""
    q = formats.load_quiver(quiver_file)
    _write_output(f"{euler_form(q, _parse_dims(dvec), _parse_dims(evec))}\n")


@main.command("decompose")
@click.argument("rep_file")
@click.option("-o", "--output", default=None, help="write to file instead of stdout")
@_exits
def cmd_decompose(rep_file, output):
    """Decompose a nilpotent cyclic-quiver representation into windows."""
    ms = decompose_nilpotent(formats.load_rep(rep_file))
    _write_output(formats.canonical_dumps(formats.windows_to_obj(ms)), output)


@main.command("realize")
@click.argument("windows_file")
@click.option("-o", "--output", default=None, help="write to file instead of stdout")
@_exits
def cmd_realize(windows_file, output):
    """Realize a windows file as a matrix representation."""
    ms = formats.load_windows(windows_file)
    rep = realize(ms)
    _write_output(formats.canonical_dumps(formats.rep_to_obj(rep)), output)


@main.command("degenerates")
@click.argument("m_file")
@click.argument("n_file")
@_exits
def cmd_degenerates(m_file, n_file):
    """Print true/false: does the first class degenerate to the second?"""
    m = formats.load_windows(m_file)
    nn = formats.load_windows(n_file)
    _write_output(("true" if dg.degenerates(m, nn) else "false") + "\n")


@main.command("codim")
@click.argument("m_file")
@click.argument("n_file")
@_exits
def cmd_codim(m_file, n_file):
    """Codimension of the degeneration from the first class to the second."""
    m = formats.load_windows(m_file)
    nn = formats.load_windows(n_file)
    _write_output(f"{dg.codim(m, nn)}\n")


@main.command("classify")
@click.argument("m_file")
@click.argument("n_file")
@click.option("--trace", "trace_path", default=None, help="write the JSON trace here")
@_exits
def cmd_classify(m_file, n_file, trace_path):
    """Singularity type (Reg, A<r> or Unresolved) of a codim <= 2 degeneration."""
    m = formats.load_windows(m_file)
    nn = formats.load_windows(n_file)
    result, trace = classify(m, nn)
    if trace_path is not None:
        _write_output(formats.canonical_dumps(trace.to_obj()), trace_path)
    _write_output(f"{result}\n")


@main.command("hasse")
@click.option("--n", "rank", type=int, required=True, help="cyclic rank")
@click.option("--dim", "dim_raw", required=True, help="comma-separated dimensions")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["dot", "json"]),
    default="dot",
    show_default=True,
)
@click.option("--annotate", "annotated", is_flag=True, help="label codim 1/2 edges")
# Annotation is serial; --jobs 1 is still accepted for callers that pass it.
@click.option("--jobs", hidden=True, expose_value=False, type=click.IntRange(1, 1))
@click.option("-o", "--output", default=None, help="write to file instead of stdout")
@_exits
def cmd_hasse(rank, dim_raw, fmt, annotated, output):
    """Hasse diagram of the degeneration order for one dimension vector."""
    dims = _parse_dims(dim_raw)
    if rank < 1:
        raise ParseError("--n must be at least 1")
    _check_cap("--n", rank, formats.MAX_RANK)
    if len(dims) != rank or any(x < 0 for x in dims):
        raise ParseError(
            f"--dim must list {rank} nonnegative integers, got {dim_raw!r}"
        )
    _check_cap("--dim total", sum(dims), formats.MAX_TOTAL_DIM)
    diagram = dg.hasse(rank, dims)
    if annotated:
        diagram = annotate(diagram)
    if fmt == "dot":
        _write_output(dg.to_dot(diagram), output)
    else:
        _write_output(formats.canonical_dumps(dg.to_json_obj(diagram)), output)


@main.command("scan")
@click.option("--max-n", type=int, default=3, show_default=True)
@click.option("--max-dim", type=int, default=7, show_default=True)
@_exits
def cmd_scan(max_n, max_dim):
    """Classify every codim-2 degeneration at desk scale; print a summary table.

    For each rank n <= max-n and every dimension vector with total dimension
    <= max-dim, all ordered comparable pairs of nilpotent classes with
    codimension exactly 2 are classified. The verdict should always be Reg
    or A_r; any Unresolved pair is listed explicitly.
    """
    if max_n < 1 or max_dim < 1:
        raise ParseError("--max-n and --max-dim must be at least 1")
    _check_cap("--max-n", max_n, formats.MAX_RANK)
    _check_cap("--max-dim", max_dim, formats.MAX_TOTAL_DIM)
    lines = [
        f"{'n':>3} {'dim':<12} {'classes':>8} {'codim2':>7} {'Reg':>6} {'A_r':>6} {'Unres':>6}"
    ]
    totals = {"classes": 0, "codim2": 0, "reg": 0, "a": 0, "unresolved": 0}
    unresolved_pairs = []
    for row in scan_rows(max_n, max_dim):
        dim_str = "(" + ",".join(str(x) for x in row["dim"]) + ")"
        lines.append(
            f"{row['n']:>3} {dim_str:<12} {row['classes']:>8} {row['codim2']:>7} "
            f"{row['reg']:>6} {row['a']:>6} {row['unresolved']:>6}"
        )
        for key in totals:
            totals[key] += row[key]
        unresolved_pairs.extend(row["unresolved_pairs"])
    lines.append(
        f"{'':>3} {'TOTAL':<12} {totals['classes']:>8} {totals['codim2']:>7} "
        f"{totals['reg']:>6} {totals['a']:>6} {totals['unresolved']:>6}"
    )
    if unresolved_pairs:
        lines.append("unresolved pairs:")
        lines.extend(f"  n={n}  {m!r} -> {nn!r}" for n, m, nn in unresolved_pairs)
    else:
        lines.append("no unresolved pairs")
    lines.append("no C-type labels emitted")
    _write_output("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
