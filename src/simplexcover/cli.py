"""Command-line front end.

Subcommands: ``count`` (cover size), ``cover`` (JSON-lines dump), ``witness``
(locate one point), ``verify`` (coverage campaign, JSON report), ``render``
(d=2 SVG figure).  Exit codes: 0 success, 1 verification or runtime failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from functools import partial
from itertools import groupby
from typing import BinaryIO, Iterable, Iterator

from .arith import (
    IntVector,
    ParseError,
    Permutation,
    is_permutation,
    point_parse,
    rat_format,
    rat_parse,
)
from .cover import (
    KIND_TOP,
    KINDS,
    CoverElement,
    anchor_coordinate,
    anchor_numerator,
    build_cover,
    cover_count,
    cover_groups,
    cover_split,
    delta,
    element_kind,
)
from .triangulation import check_dn

# A subcommand imports the modules only it runs in its handler, so count, cover
# and render never load point location (locate) or the campaign stack
# (verifier, samplers), witness loads locate alone, and only render loads render.


def cover_record(el: CoverElement) -> dict:
    """Wire form of one element: permutations 1-based, rationals canonical."""
    return {
        "kind": el.kind,
        "v": list(el.v),
        "pi": list(el.perm),
        "anchor": [rat_format(c) for c in el.anchor],
    }


def _field(obj: object, field: str) -> object:
    if not isinstance(obj, dict) or field not in obj:
        raise ValueError(f"cover record has no field {field!r}: {obj!r}")
    return obj[field]


def _int_field(obj: object, field: str) -> IntVector:
    items = _field(obj, field)
    # bool is an int subclass: JSON true/false are not integers here
    if not isinstance(items, list) or any(type(c) is not int for c in items):
        raise ValueError(f"cover record field {field!r} is not a list of integers: {items!r}")
    return tuple(items)


def parse_cover_record(line: str) -> CoverElement:
    """Inverse of cover_record; round-trips losslessly.

    Raises ValueError (ParseError for a bad rational), naming the field, on a
    line that is not an object or lacks a field, on an unknown ``kind``, on a
    record whose ``v``/``pi`` are not integer lists, whose ``v`` has fewer than
    2 entries, whose ``pi`` is not a permutation of 1..len(v), or whose
    ``anchor`` has the wrong length.
    """
    obj = json.loads(line)
    kind = _field(obj, "kind")
    if kind not in KINDS:
        raise ValueError(f"cover record field 'kind' is not one of {list(KINDS)}: {kind!r}")
    v, perm, anchor = _int_field(obj, "v"), _int_field(obj, "pi"), _field(obj, "anchor")
    d = len(v)
    if d < 2:
        raise ValueError(f"cover record field 'v' has dimension {d}, expected at least 2")
    if not is_permutation(perm, d):
        raise ValueError(f"cover record field 'pi' is not a permutation of 1..{d}: {list(perm)}")
    if not isinstance(anchor, list) or len(anchor) != d:
        raise ValueError(f"cover record field 'anchor' is not a list of {d} rationals: {anchor!r}")
    try:
        point = tuple(rat_parse(c) for c in anchor)
    except (ParseError, TypeError) as exc:
        raise ParseError(f"cover record field 'anchor': {exc}") from exc
    return CoverElement(kind=kind, v=v, perm=perm, anchor=point)


def _add_dn(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d", type=int, required=True, help="dimension (>= 2)")
    parser.add_argument("--n", type=int, required=True, help="target scale (>= 1)")


def _count_over(d: int, n: int, limit: int) -> bool:
    """Whether the cover size of (d, n) has more than ``limit`` decimal digits,
    told without computing it unless it lies within a millionth of a digit of
    the limit.

    n^d <= size <= (n+1)^d, so log10(size) is d log10(n+1) plus the log10 of
    1 + a^d - b^d, a = (n-1)/(n+1), b = n/(n+1), a number in [1/2, 1] that floats
    give to about 1e-15.
    """
    try:
        log = d * math.log10(n + 1) + math.log10(1 + ((n - 1) / (n + 1)) ** d - (n / (n + 1)) ** d)
    except OverflowError:  # d past the range of a float
        return True
    if abs(log - limit) > 1e-6 * limit:
        return log > limit
    return cover_count(d, n) >= 10**limit


def _cmd_count(args: argparse.Namespace) -> int:
    # The interpreter refuses to print an int of more digits than its limit
    # (none when 0; the limit came in 3.10.7), and the powers of a size far
    # past it take longer to compute than anyone waits.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and _count_over(args.d, args.n, limit):
        args.parser.error(
            f"the cover size at d={args.d}, n={args.n} has more than {limit} digits, "
            "the most this interpreter prints (sys.get_int_max_str_digits())"
        )
    top, base = cover_split(args.d, args.n)
    print(top + base)
    print(f"top={top} base={base}")
    return 0


def _open_output(path: str) -> BinaryIO:
    """Open ``path`` for writing as a new binary file.

    A writable regular file already at ``path`` is unlinked, not truncated; a
    symlink, a device or a FIFO is written through as ``open(path, "wb")`` would.
    On ext4, truncating a file to length zero makes its ``close`` start
    writeback (``auto_da_alloc``), and the next truncation of that file waits
    until the disk has taken all of it.  Rewriting one output again and again,
    as a build or a benchmark does, then stalled on the disk each time: the 14 MB
    of ``cover --d 5 --n 10`` took up to 1.8 times as long, by however fast
    the disk happened to be.  Dirty pages of an unlinked file are dropped instead.
    The 256 KiB buffer writes those 14 MB in half the time the default 8 KiB
    buffer takes.
    """
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode) and os.access(path, os.W_OK):
            os.unlink(path)
    return open(path, "wb", buffering=1 << 18)


def _write(path: str, chunks: Iterable[str]) -> int:
    """Write ``chunks``, UTF-8 encoded, to a new file at ``path``; exit 1 if that fails."""
    try:
        with _open_output(path) as fh:
            fh.writelines(map(str.encode, chunks))
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    return _write(args.out, _cover_chunks(args.d, args.n))


def _cover_chunks(d: int, n: int) -> Iterator[str]:
    # Each line is json.dumps(cover_record(el)) + "\n", written from the ints one
    # anchor at a time: the kinds are plain ASCII words and a list of ints
    # prints as its JSON text, so a line is its kind's head and tail on that
    # anchor around the text of its perm.  An anchor's lines are runs of
    # consecutive perms of one kind; a run is one str.join of its perms' text
    # with the kind's tail and head between them, and the anchor's heads, runs
    # and tails are joined into one chunk by one join, so a line is copied once
    # more there, not twice.  A tail's anchor text is joined from the JSON text
    # of each coordinate, made once per (kind, v_j).
    coordinates = _coordinate_texts(n)
    # cover_groups shares one perms tuple between the anchors of a tie pattern,
    # so the runs are kept by that tuple's identity: hashing up to d! perms per
    # anchor took 1.5-2 ms of a 14-16 ms call at d = 5, n = 10 (file write not
    # included; 2-core x86-64 VM, Python 3.11.7).  Each entry holds its tuple,
    # so no id is reused.
    patterns: dict[tuple[bool, int], tuple[tuple[Permutation, ...], _Runs]] = {}
    for top, v, perms in cover_groups(d, n):
        entry = patterns.get((top, id(perms)))
        if entry is None:
            entry = patterns[top, id(perms)] = (perms, _runs(top, perms))
        kinds, runs = entry[1]
        v_text = str(list(v))
        heads, seps, tails = [], [], []
        for kind in kinds:
            head = f'{{"kind": "{kind}", "v": {v_text}, "pi": '
            tail = f', "anchor": [{", ".join(map(coordinates[kind].__getitem__, v))}]}}\n'
            heads.append(head)
            seps.append(tail + head)
            tails.append(tail)
        parts = []
        for i, texts in runs:
            parts += heads[i], seps[i].join(texts), tails[i]
        yield "".join(parts)


# an anchor's kinds, and its runs: (index into the kinds, the run's perms' text)
_Runs = tuple[tuple[str, ...], tuple[tuple[int, tuple[str, ...]], ...]]


def _runs(top: bool, perms: tuple[Permutation, ...]) -> _Runs:
    """The kinds of an anchor with these perms, in order of first appearance,
    and its lines as runs of consecutive perms of one kind."""
    kinds: list[str] = []
    runs = []
    for kind, run in groupby(perms, partial(element_kind, top)):
        if kind not in kinds:
            kinds.append(kind)
        runs.append((kinds.index(kind), tuple(str(list(perm)) for perm in run)))
    return tuple(kinds), tuple(runs)


def _coordinate_texts(n: int) -> dict[str, list[str]]:
    """Per kind, the JSON text of an anchor coordinate, indexed by the lattice
    coordinate v_j it comes from: 0..n-2 above the seam, 0..n below it."""
    return {
        kind: [
            json.dumps(rat_format(anchor_coordinate(anchor_numerator(kind, v_j, n), n)))
            for v_j in range(n - 1 if kind == KIND_TOP else n + 1)
        ]
        for kind in KINDS
    }


def _cmd_witness(args: argparse.Namespace) -> int:
    from .locate import UncoveredPointError, witness

    try:
        x = point_parse(args.point, args.d)
    except ParseError as exc:
        args.parser.error(str(exc))
    spec = build_cover(args.d, args.n)
    try:
        result = witness(x, args.d, args.n, spec)
    except (UncoveredPointError, ValueError) as exc:  # the point is uncovered or outside
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "route": result.route,
                "element": cover_record(result.element),
                "w": [rat_format(c) for c in result.w],
            }
        )
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .locate import ROUTE_FALLBACK
    from .samplers import boundary_rows, lattice_rows, random_rows
    from .verifier import _refuse_unindexable, format_points, tally

    # The samplers check the plan on the call; every stream is made, whatever
    # the mode, so a bad --q or --samples is a usage error in every mode; so
    # is a chosen stream of more rows than a campaign indexes.
    try:
        eps = delta(args.n) if args.eps is None else rat_parse(args.eps)
        streams = {
            "lattice": lattice_rows(args.d, args.n, eps, args.q),
            "random": random_rows(args.d, args.n, eps, args.samples, args.seed),
            "boundary": boundary_rows(args.d, args.n, eps),
        }
        modes = streams if args.mode == "all" else (args.mode,)
        for mode in modes:
            _refuse_unindexable(f"the {mode} stream", streams[mode][1])
    except ValueError as exc:
        args.parser.error(str(exc))
    spec = build_cover(args.d, args.n)
    report = tally(spec, [streams[mode] for mode in modes])
    print(json.dumps(report.to_json()))
    if not report.success:
        if report.failures:
            print(f"uncovered points: {format_points(report.failures)}", file=sys.stderr)
        if report.routes.get(ROUTE_FALLBACK, 0):
            why = ", ".join(f"{reason} {k}" for reason, k in report.fallback_reasons.items())
            why = f" ({why})" if why else ""
            print(f"fallback witnesses: {report.routes[ROUTE_FALLBACK]}{why}", file=sys.stderr)
        if report.sliver_violations:
            print(f"sliver violations: {format_points(report.sliver_violations)}", file=sys.stderr)
        return 1
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .render import svg_chunks

    spec = build_cover(args.d, args.n)
    return _write(args.out, svg_chunks(spec, equilateral=args.equilateral, labels=args.labels))


def _cover_arguments(p: argparse.ArgumentParser) -> None:
    _add_dn(p)
    p.add_argument("--out", required=True, help="output path")


def _witness_arguments(p: argparse.ArgumentParser) -> None:
    _add_dn(p)
    p.add_argument(
        "--point",
        required=True,
        help="comma-separated rationals; a value starting with '-' needs '=' (--point=-0,0)",
    )


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    _add_dn(p)
    p.add_argument(
        "--eps",
        default=None,
        help="margin (rational, <= 1/(n+2); default 1/(n+2)); "
        "a value starting with '-' needs '=' (--eps=-1/9)",
    )
    p.add_argument("--mode", choices=("lattice", "random", "boundary", "all"), default="all")
    p.add_argument("--q", type=int, default=2, help="lattice resolution (step = delta/q)")
    p.add_argument("--samples", type=int, default=10_000, help="random sample count")
    p.add_argument("--seed", type=int, default=0, help="random seed")


def _render_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="target scale (>= 1)")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--equilateral", action="store_true", help="shear to equilateral triangles")
    p.add_argument("--labels", action="store_true", help="label each element")
    p.set_defaults(d=2)


# name -> (help line, handler, the function that adds the subcommand's arguments)
_COMMANDS = {
    "count": ("print the cover size and kind breakdown", _cmd_count, _add_dn),
    "cover": ("write the cover as JSON-lines", _cmd_cover, _cover_arguments),
    "witness": ("locate a point in the cover", _cmd_witness, _witness_arguments),
    "verify": ("run a coverage campaign, print a JSON report", _cmd_verify, _verify_arguments),
    "render": ("write an SVG figure (d = 2)", _cmd_render, _render_arguments),
}


def _fill(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``p`` with the arguments of subcommand ``name``, its handler and itself as
    defaults: an error found after parsing is reported under ``p``'s usage."""
    _, func, add_arguments = _COMMANDS[name]
    add_arguments(p)
    p.set_defaults(func=func, parser=p)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="simplexcover",
        description="Cover a right d-simplex of side n + 1/(n+2) with "
        "(n+1)^d + (n-1)^d - n^d unit right simplices, and verify it exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=help_line), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    # A first argument that names a subcommand exactly gets that subcommand's
    # parser alone, made and run as the full parser's subcommand action makes and
    # runs it: ArgumentParser(prog="simplexcover NAME"), parse_known_args on the
    # later arguments.  Only the top level refuses leftover arguments, so those
    # go to the full parser, which prints its usage and "unrecognized
    # arguments".  Anything else (no arguments, -h, --, a typo) goes there too.
    if argv and argv[0] in _COMMANDS:
        parser = _fill(argparse.ArgumentParser(prog=f"simplexcover {argv[0]}"), argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        check_dn(args.d, args.n)
    except ValueError as exc:
        args.parser.error(str(exc))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
