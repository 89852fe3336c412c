"""Command-line surface.

Every verb is a thin adapter over the library: files are parsed, one
library call runs, and the result is serialized or reported.  Each verb
is declared once, in :func:`build_parser`, with its flags, its input
reader and its library call.  A command line builds the parser of only
the verbs it names: argparse enters a verb only on an exact token (no
verb has an alias, no argument is read from a file) and reads only the
name and help line of any other verb.  Reports are byte-stable for
fixed inputs and flags.  Diagram and presentation formats are the ones
defined next to their types; stdin/stdout piping uses '-' (the default).

Exit codes: 0 success (for ``validate``: all sectors verified; for
``distinguish``: verdict distinct), 1 failed validation, 2 bad usage,
parse or I/O errors, 3 a failed internal self-check (an
``AssertionError``, reported as one ``error: internal invariant
failed:`` line), 10 same-orbit, 20 inconclusive.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import reduce

from . import constructions as cons
from .diagrams import (FormatError, GeometricHeegaardDiagram,
                       MultisectionDiagram, connected_sum, content_digest,
                       format_diagram, format_heegaard, mirror, parse_diagram,
                       parse_heegaard, pi1_of_diagram, stabilize, validate)
from .nielsen import (DEFAULT_QUOTIENT_BOUND, compare_sectors, distinguish,
                      flip_check, format_certificate)
from .presentations import (DEFAULT_TIETZE_BUDGET, AbelianInvariants, format_presentation,
                            parse_presentation, tietze_simplify)
from .render import diagram_to_svg
from .words import parse_word


def _read_text(path: str) -> tuple[str, str]:
    """The text as written, line endings untranslated, so that the
    parsers see (and reject) carriage returns."""
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8"), "<stdin>"
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read(), path


def _write_text(path: str, text: str) -> None:
    if path == "-":
        # bytes untranslated, as _read_text reads stdin's; a text sink with
        # no bytes beneath it, such as io.StringIO, takes the text
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.write(text)
        else:
            sys.stdout.flush()  # text the stream still holds goes first
            buffer.write(text.encode("utf-8"))
    else:
        # untranslated, so that the file reads back on every platform
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


class Report:
    """Accumulates a machine-parsable text report with == section marks."""

    def __init__(self, command: str):
        self.lines = ["== multisect report ==", f"command: {command}"]

    def field(self, key: str, value) -> None:
        self.lines.append(f"{key}: {value}")

    def section(self, name: str) -> None:
        self.lines.append(f"== {name} ==")

    def raw(self, text: str) -> None:
        for line in text.rstrip("\n").splitlines():
            self.lines.append(line)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _read_input(report: Report, path: str, parse):
    """Parse one input file and echo its sha256 on the report."""
    text, label = _read_text(path)
    value = parse(text)
    report.field("input", f"{label} sha256={content_digest(text)}")
    return value


def _diagram_report(args) -> tuple[MultisectionDiagram, Report]:
    """Parse the input diagram and start the command's report with the
    input digest and the diagram's shape."""
    report = Report(args.command)
    d = _read_input(report, args.input, parse_diagram)
    report.field("genus", d.surface.genus)
    report.field("systems", len(d.systems))
    report.field("closed", "true" if d.closed else "false")
    report.field("claimed-types", " ".join(str(k) for k in d.claimed_types))
    return d, report


def _invariant_fields(report: Report, invariants: AbelianInvariants) -> None:
    report.field("free-rank", invariants.free_rank)
    report.field("torsion", " ".join(str(t) for t in invariants.torsion) or "none")
    report.field("group", invariants.describe())


def _echo(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args) -> int:
    """Parse the input with the verb's reader, if it has one, run its
    construction, write the result and echo its shape."""
    source = args.read(_read_text(args.input)[0]) if args.read else None
    out = args.build(source, args)
    if isinstance(out, GeometricHeegaardDiagram):
        _write_text(args.output, format_heegaard(out))
        _echo(f"heegaard genus {out.genus} name {out.name or '(unnamed)'}")
    else:
        _write_text(args.output, format_diagram(out))
        shape = "closed" if out.closed else "bounded"
        types = " ".join(str(k) for k in out.claimed_types)
        _echo(f"{shape} diagram genus {out.surface.genus} types {types}")
    return 0


def _stabilized(h: GeometricHeegaardDiagram, args) -> GeometricHeegaardDiagram:
    for _ in range(args.times):
        h = stabilize(h)
    return h


def _glued(h: GeometricHeegaardDiagram, args) -> MultisectionDiagram:
    chain = cons.glue_bisections(h, args.copies)
    if args.cap == "auto":
        chain = cons.cap_off(chain, cons.auto_cap(h, args.copies))
    return chain


# ---------------------------------------------------------------------------
# reports


def _standardizer_checks(d: MultisectionDiagram) -> str:
    """Which check each standardizer passed when it was built: composition
    with its declared inverse proves an automorphism, the abelianized
    determinant alone does not."""
    composed = [s.label for s in d.systems if s.standardizer is not None
                and s.standardizer.inverse_images is not None]
    determinant = [s.label for s in d.systems if s.standardizer is not None
                   and s.standardizer.inverse_images is None]
    checks = []
    if composed:
        checks.append("checked by composition with declared inverse for "
                      + " ".join(composed))
    if determinant:
        checks.append("checked by abelianized determinant only for "
                      + " ".join(determinant))
    return "; ".join(checks) or "none"


def cmd_validate(args) -> int:
    d, report = _diagram_report(args)
    result = validate(d, budget=args.budget)
    report.section("assumptions")
    report.field("standardizers", _standardizer_checks(d))
    report.field("realizability", "curve words assumed realizable by disjoint "
                                  "simple closed curves; not verified")
    report.section("verdicts")
    for (i, j), claimed, verdict in result.entries:
        report.field(f"pair {i} {j}", f"{verdict.describe()} claimed {claimed}")
    if result.boundary is not None:
        (i, j), invariants = result.boundary
        report.section("boundary")
        report.field(f"pair {i} {j}", invariants.describe())
    report.section("genus-bound")
    if not d.closed:
        bound = cons.genus_bound_report(d)
        report.field("boundary-h1-rank", bound["boundary_h1_rank"])
        report.field("central-genus", bound["central_genus"])
        certified = "yes" if bound["minimal_genus_certified"] else "not-determined"
        report.field("minimal-genus", certified)
        report.field("note", "homology lower bound only; Heegaard genus itself "
                             "is not computed")
    else:
        report.field("central-genus", d.surface.genus)
    code = 0 if result.ok else 1
    report.section("summary")
    report.field("all-verified", "true" if result.ok else "false")
    report.field("exit-code", code)
    _write_text(args.output, report.render())
    return code


def cmd_pi1(args) -> int:
    d, report = _diagram_report(args)
    pres = pi1_of_diagram(d)
    simplified = tietze_simplify(pres, args.budget)
    report.section("presentation")
    report.raw(format_presentation(pres))
    report.section("simplified")
    report.raw(format_presentation(simplified.presentation))
    report.section("invariants")
    _invariant_fields(report, simplified.invariants)
    _write_text(args.output, report.render())
    return 0


def cmd_homology(args) -> int:
    d, report = _diagram_report(args)
    report.section("pi1-invariants")
    _invariant_fields(report, tietze_simplify(pi1_of_diagram(d)).invariants)
    if not d.closed:
        report.section("boundary-invariants")
        _invariant_fields(report, d.boundary_invariants)
    _write_text(args.output, report.render())
    return 0


def _parse_tuple(flag: str, text: str, rank: int):
    # the empty string is the empty tuple; "1" is the identity word
    entries = [e.strip() for e in text.split(",")] if text else []
    if "" in entries:
        raise ValueError(f"{flag}: entry {entries.index('') + 1} is empty; "
                         "write 1 for the identity word")
    return tuple(parse_word(e, rank) for e in entries)


def cmd_distinguish(args) -> int:
    report = Report("distinguish")
    mode = ("presentation" if args.presentation is not None
            else "flip" if args.flip else "diagram")
    used = {"presentation": ("tuple1", "tuple2"), "flip": ("diagram",),
            "diagram": ("diagram", "sector", "sector2")}[mode]
    for flag in ("tuple1", "tuple2", "diagram", "sector", "sector2"):
        if getattr(args, flag) is not None and flag not in used:
            raise ValueError(f"--{flag} does not apply to {mode} mode")
    if mode == "presentation":
        pres = _read_input(report, args.presentation, parse_presentation)
        if args.tuple1 is None or args.tuple2 is None:
            raise FormatError("presentation mode needs --tuple1 and --tuple2")
        t1 = _parse_tuple("--tuple1", args.tuple1, pres.generator_count)
        t2 = _parse_tuple("--tuple2", args.tuple2, pres.generator_count)
        cert = distinguish(pres, t1, t2, args.bound)
    elif mode == "flip":
        if args.diagram is None:
            raise FormatError("--flip needs --diagram")
        cert = flip_check(_read_input(report, args.diagram, parse_diagram), args.bound)
    else:
        if args.diagram is None or args.diagram2 is None:
            raise FormatError(
                "diagram mode needs --diagram and --diagram2 (or --flip)")
        d1 = _read_input(report, args.diagram, parse_diagram)
        d2 = _read_input(report, args.diagram2, parse_diagram)
        cert = compare_sectors(d1, args.sector or 1, d2, args.sector2 or args.sector or 1,
                               args.bound)
    report.section("certificate")
    report.raw(format_certificate(cert))
    report.field("replay-verified", "true" if cert.replay() else "false")
    code = {"distinct": 0, "same_orbit": 10, "inconclusive": 20}[cert.verdict]
    report.section("summary")
    report.field("exit-code", code)
    _write_text(args.output, report.render())
    return code


def cmd_render(args) -> int:
    text, _ = _read_text(args.input)
    _write_text(args.svg, diagram_to_svg(parse_diagram(text), args.size))
    return 0


# ---------------------------------------------------------------------------
# parser


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of the command line ``argv``.  Each verb is declared
    here once: its flags, its handler ``run``, and for a construct verb
    its input reader ``read`` and its construction ``build(input, args)``.
    Readers and handlers are looked up on every call, so a rebinding of
    the module globals (a test double, the benchmark's tracer) takes
    effect.  Every verb is a name and a help line, so help, usage and
    invalid-choice errors list them all, and argparse reads no more of a
    verb it does not enter; a verb gets its parser, defaults and flags
    only when it is one of argv's tokens, and the construct verbs only
    when ``construct`` is.  That is exact: argparse enters a subcommand
    only on an exact token, and no verb has an alias and the parser no
    ``fromfile_prefix_chars``, so the verb entered has its parser."""
    named = set(argv)

    def entered_only(entered, **options):
        """A parser for a verb argv names, else None; argparse's options pass untouched."""
        return argparse.ArgumentParser(**options) if entered else None

    parser = argparse.ArgumentParser(
        prog="multisect",
        description="Construct, validate, and distinguish multisection "
                    "diagrams of 4-manifolds.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=entered_only)

    def declare(group, name, help=None, **defaults):
        """A verb's help line and, if argv names it, its parser with the
        defaults that bind its handler ``run``, or a construct verb's reader
        ``read`` (None: it reads no input) and construction ``build(input,
        args)``; the parser is returned to take its flags, or None."""
        p = group.add_parser(name, entered=name in named, **({"help": help} if help else {}))
        if p is not None:
            p.set_defaults(**defaults)
        return p

    def verb(group, name, *flags, help=None, **defaults):
        """Declare one verb with its flags, each (name, add_argument
        options), then -i (unless ``read`` is None) and -o."""
        p = declare(group, name, help, **defaults)
        if p is None:
            return
        for flag, options in flags:
            p.add_argument(flag, **options)
        if defaults.get("read", True):
            p.add_argument("-i", "--input", default="-", help="input file ('-' for stdin)")
        p.add_argument("-o", "--output", default="-", help="output file ('-' for stdout)")

    construct = declare(sub, "construct", "build diagrams", run=cmd_construct)
    if construct is not None:
        verbs = construct.add_subparsers(dest="verb", required=True, parser_class=entered_only)
        verb(verbs, "lens", ("--p", dict(type=_at_least(1), required=True)),
             ("--q", dict(type=_at_least(1), required=True)),
             help="lens space Heegaard diagram",
             read=None, build=lambda _, a: cons.lens_diagram(a.p, a.q))
        verb(verbs, "sum",
             ("--copies", dict(type=_at_least(1), default=2, help="number of copies")),
             read=parse_heegaard, build=lambda h, a: reduce(connected_sum, [h] * a.copies))
        verb(verbs, "mirror", read=parse_heegaard, build=lambda h, _: mirror(h))
        verb(verbs, "stabilize",
             ("--times", dict(type=_at_least(0), default=1, help="stabilizations")),
             read=parse_heegaard, build=_stabilized)
        verb(verbs, "bisect", read=parse_heegaard,
             build=lambda h, _: cons.bisection_from_heegaard(h))
        verb(verbs, "double", read=parse_diagram, build=lambda d, _: cons.double_bisection(d))
        verb(verbs, "trisect-restrict",
             ("--drop", dict(type=int, choices=(1, 2, 3), required=True, help="sector to forget")),
             help="bounded bisection from a closed 3-system diagram",
             read=parse_diagram, build=lambda d, a: cons.bisection_from_trisection(d, a.drop))
        verb(verbs, "insert", ("--position", dict(type=_at_least(1), default=2)),
             ("--count", dict(type=_at_least(0), required=True)),
             help="insert parallel sectors", read=parse_diagram,
             build=lambda d, a: cons.insert_parallel_sectors(d, a.position, a.count))
        verb(verbs, "glue", ("--copies", dict(type=_at_least(1), required=True)),
             ("--cap", dict(choices=["auto", "none"], default="none")),
             help="chain copies of one bisection", read=parse_heegaard, build=_glued)
        verb(verbs, "merge", ("--interface", dict(type=_at_least(1), required=True)),
             help="merge across one interface", read=parse_diagram,
             build=lambda d, a: cons.merge_adjacent_sectors(d, a.interface))

    budget = ("--budget", dict(type=_at_least(1), default=DEFAULT_TIETZE_BUDGET,
                               help="Tietze moves before giving up"))
    verb(sub, "validate", budget, help="check sector structure", run=cmd_validate)
    verb(sub, "pi1", budget, help="fundamental group of the diagram", run=cmd_pi1)
    verb(sub, "homology", help="abelian invariants", run=cmd_homology)

    dist = declare(sub, "distinguish", "Nielsen-class comparison", run=cmd_distinguish)
    if dist is not None:
        mode = dist.add_mutually_exclusive_group()
        mode.add_argument("--presentation", help="presentation text file")
        mode.add_argument("--flip", action="store_true",
                          help="compare the two sectors of one bounded bisection")
        mode.add_argument("--diagram2", help="second diagram file")
        dist.add_argument("--tuple1", help="comma-separated words")
        dist.add_argument("--tuple2", help="comma-separated words")
        dist.add_argument("--diagram", help="diagram file")
        dist.add_argument("--sector", type=_at_least(1), help="default 1")
        dist.add_argument("--sector2", type=_at_least(0), help="0 or unset: as --sector")
        dist.add_argument("--bound", type=_at_least(1), default=DEFAULT_QUOTIENT_BOUND,
                          help="largest witness quotient order m^n")
        dist.add_argument("-o", "--output", default="-")

    render = declare(sub, "render", "schematic SVG chord diagram", run=cmd_render)
    if render is not None:
        render.add_argument("--svg", default="-", help="output file ('-' for stdout)")
        render.add_argument("--size", type=_at_least(1), default=640)
        render.add_argument("-i", "--input", default="-", help="input file ('-' for stdin)")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        code = args.run(args)
        # a reader that closed early shows up here, not at interpreter exit
        sys.stdout.flush()
        return code
    except (ValueError, OverflowError, OSError) as exc:
        # parse, usage, size and I/O errors; exit 1 is reserved for validation
        if isinstance(exc, BrokenPipeError):
            # the report is undeliverable; point stdout at the null device
            # so that the flush at exit does not fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # a self-check failed: a defect in this program, not in the input
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
