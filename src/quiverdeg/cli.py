"""Command-line front end.

Exit codes, read off the error class (errors.py): 0 success, 2 malformed
or ill-fitting input, a size above its cap and unreadable or unwritable files
(ParseError), 3 nilpotency violations, 4 order violations (not a
degeneration), 5 scope violations (codim > 2). A usage error (an unknown
command or option, a missing argument) also exits 2, with argparse's usage
message. All outputs are byte-deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import degeneration as dg
from . import formats
from .errors import Error, ParseError, as_positive
from .reps import MAX_RANK, MAX_TOTAL_DIM, check_cap, ext1_dim, euler_form, hom_dim
from .singularity import annotate, classify, scan_rows
from .windows import decompose_nilpotent, realize


def _write_output(text: str, out: str | None = None) -> None:
    # Looked up on each call rather than bound once, so that a caller's
    # contextlib.redirect_stdout is honoured, and nothing here keeps a
    # reference to a stream after the call.
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        if out is None:
            # A buffered stdout keeps the bytes it failed to flush, and the flush
            # at exit would fail on them again: send them to devnull instead.
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise ParseError(f"{'stdout' if out is None else out}: {exc.strerror or exc}") from exc


def _integer(text: str) -> int:
    """text as an int when, stripped, it is ASCII digits after an optional
    sign: linalg.parse_rational's policy for files, so no underscores and no
    other digits. argparse reports an ArgumentTypeError under the flag."""
    digits = text.strip().lstrip("+-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # two signs, or more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")


def _parse_dims(flag: str, raw: str) -> tuple[int, ...]:
    try:
        return tuple(map(_integer, raw.split(",")))
    except argparse.ArgumentTypeError:
        raise ParseError(f"{flag} must be comma-separated integers, got {raw!r}") from None


def cmd_hom(args):
    """Hom dimension between two representation (or windows) files."""
    v, w = map(formats.load_rep_or_windows, (args.left, args.right))
    _write_output(f"{hom_dim(v, w)}\n")


def cmd_ext(args):
    """Ext^1 dimension between two representation (or windows) files."""
    v, w = map(formats.load_rep_or_windows, (args.left, args.right))
    _write_output(f"{ext1_dim(v, w)}\n")


def cmd_euler(args):
    """Euler form of two dimension vectors over the quiver in FILE."""
    q = formats.load_quiver(args.quiver_file)
    d, e = _parse_dims("--d", args.dvec), _parse_dims("--e", args.evec)
    _write_output(f"{euler_form(q, d, e)}\n")


def cmd_decompose(args):
    """Decompose a nilpotent cyclic-quiver representation into windows."""
    ms = decompose_nilpotent(formats.load_rep(args.rep_file))
    _write_output(formats.canonical_dumps(formats.windows_to_obj(ms)), args.output)


def cmd_realize(args):
    """Realize a windows file as a matrix representation."""
    rep = realize(formats.load_windows(args.windows_file))
    _write_output(formats.canonical_dumps(formats.rep_to_obj(rep)), args.output)


def cmd_degenerates(args):
    """Print true/false: does the first class degenerate to the second?"""
    m = formats.load_windows(args.m_file)
    nn = formats.load_windows(args.n_file)
    _write_output(("true" if dg.degenerates(m, nn) else "false") + "\n")


def cmd_codim(args):
    """Codimension of the degeneration from the first class to the second."""
    m = formats.load_windows(args.m_file)
    nn = formats.load_windows(args.n_file)
    _write_output(f"{dg.codim(m, nn)}\n")


def cmd_classify(args):
    """Singularity type (Reg, A<r> or Unresolved) of a codim <= 2 degeneration."""
    m = formats.load_windows(args.m_file)
    nn = formats.load_windows(args.n_file)
    result, trace = classify(m, nn)
    if args.trace_path is not None:
        _write_output(formats.canonical_dumps(trace.to_obj()), args.trace_path)
    _write_output(f"{result}\n")


def cmd_hasse(args):
    """Hasse diagram of the degeneration order for one dimension vector."""
    rank, dim_raw = args.rank, args.dim_raw
    dims = _parse_dims("--dim", dim_raw)
    as_positive("--n", rank)
    check_cap("--n", rank, MAX_RANK)
    if len(dims) != rank or any(x < 0 for x in dims):
        raise ParseError(
            f"--dim must list {rank} nonnegative integers, got {dim_raw!r}"
        )
    check_cap("--dim total", sum(dims), MAX_TOTAL_DIM)
    diagram = dg.hasse(rank, dims)
    if args.annotated:
        diagram = annotate(diagram)
    if args.fmt == "dot":
        _write_output(dg.to_dot(diagram), args.output)
    else:
        _write_output(formats.canonical_dumps(dg.to_json_obj(diagram)), args.output)


def cmd_scan(args):
    """Classify every codim-2 degeneration at desk scale; print a summary table.

    For each rank n <= max-n and every dimension vector with total dimension
    <= max-dim, all ordered comparable pairs of nilpotent classes with
    codimension exactly 2 are classified. The verdict should always be Reg
    or A_r; any Unresolved pair is listed explicitly. The rotations of the
    cycle preserve every row, so each row is computed once per rotation
    orbit and shared by the orbit's other vectors.
    """
    max_n = as_positive("--max-n", args.max_n)
    max_dim = as_positive("--max-dim", args.max_dim)
    check_cap("--max-n", max_n, MAX_RANK)
    check_cap("--max-dim", max_dim, MAX_TOTAL_DIM)
    row = "{:>3} {:<12} {:>8} {:>7} {:>6} {:>6} {:>6}".format
    lines = [row("n", "dim", "classes", "codim2", "Reg", "A_r", "Unres")]
    totals = [0] * 5
    unresolved = []
    for n, d, classes, counts, pairs in scan_rows(max_n, max_dim):
        totals = [x + y for x, y in zip(totals, (classes, *counts))]
        lines.append(row(n, "(" + ",".join(map(str, d)) + ")", classes, *counts))
        unresolved += (f"  n={n}  {m!r} -> {nn!r}" for m, nn in pairs)
    lines.append(row("", "TOTAL", *totals))
    lines += ["unresolved pairs:", *unresolved] if unresolved else ["no unresolved pairs"]
    lines.append("no C-type labels emitted")
    _write_output("\n".join(lines) + "\n")


# Built once per process: building it takes about 1.5 ms, mostly argparse's
# gettext lookups, against about 0.2 ms to parse one command line.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One subparser per command, each naming the function that runs it."""
    parser = argparse.ArgumentParser(
        prog="quiverdeg",
        description="Exact invariants, degeneration order and singularity types "
        "for nilpotent representations of cyclic quivers.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, run, *files, output=False):
        # allow_abbrev=False on each subparser, so that --d never means --dim.
        doc = run.__doc__ or ""
        sub = commands.add_parser(
            name, help=doc.split("\n")[0], description=doc, allow_abbrev=False
        )
        sub.set_defaults(run=run)
        for dest in files:
            sub.add_argument(dest, metavar=dest.upper())
        if output:
            sub.add_argument("-o", "--output", help="write to file instead of stdout")
        return sub

    command("hom", cmd_hom, "left", "right")
    command("ext", cmd_ext, "left", "right")
    euler = command("euler", cmd_euler, "quiver_file")
    for flag, dest in (("--d", "dvec"), ("--e", "evec")):
        euler.add_argument(
            flag, dest=dest, metavar="DIMS", required=True,
            help="comma-separated dimension vector",
        )
    command("decompose", cmd_decompose, "rep_file", output=True)
    command("realize", cmd_realize, "windows_file", output=True)
    command("degenerates", cmd_degenerates, "m_file", "n_file")
    command("codim", cmd_codim, "m_file", "n_file")
    command("classify", cmd_classify, "m_file", "n_file").add_argument(
        "--trace", dest="trace_path", help="write the JSON trace here"
    )
    hasse = command("hasse", cmd_hasse, output=True)
    hasse.add_argument("--n", dest="rank", metavar="N", type=_integer, required=True,
                       help="cyclic rank")
    hasse.add_argument("--dim", dest="dim_raw", metavar="DIMS", required=True,
                       help="comma-separated dimensions")
    hasse.add_argument(
        "--format", dest="fmt", choices=["dot", "json"], default="dot",
        help="output format (default: %(default)s)",
    )
    hasse.add_argument(
        "--annotate", dest="annotated", action="store_true", help="label codim 1/2 edges"
    )
    # Annotation is serial; --jobs 1 is still accepted for callers that pass it.
    hasse.add_argument("--jobs", type=_integer, choices=[1], help=argparse.SUPPRESS)
    scan = command("scan", cmd_scan)
    scan.add_argument("--max-n", type=_integer, default=3, help="largest rank (default: %(default)s)")
    scan.add_argument(
        "--max-dim", type=_integer, default=7, help="largest total dimension (default: %(default)s)"
    )
    return parser


def main(args=None) -> None:
    """Run one command; an error ends in one `error: ` line and its exit code."""
    parsed = _parser().parse_args(args)
    try:
        parsed.run(parsed)
    except Error as exc:
        # An error without an exit code is a bug and ends in a traceback.
        if exc.exit_code is None:
            raise
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.flush()
        sys.exit(exc.exit_code)


# The benchmark harness calls main.main(args=..., prog_name=...,
# standalone_mode=False), a click group's signature; only args is used.
main.main = lambda args=None, prog_name=None, standalone_mode=True: main(args)


if __name__ == "__main__":
    main()
