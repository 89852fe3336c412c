"""Command-line surface.

Every verb is a thin adapter over the library: files are parsed, one
library call runs, and the result is serialized or reported.  Reports
are byte-stable for fixed inputs and flags.  Diagram and presentation
formats are the ones defined next to their types; stdin/stdout piping
uses '-' (the default).

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

from . import constructions as cons
from .diagrams import (FormatError, GeometricHeegaardDiagram,
                       MultisectionDiagram, connected_sum, content_digest,
                       format_diagram, format_heegaard, mirror, parse_diagram,
                       parse_heegaard, pi1_of_diagram, stabilize, validate)
from .nielsen import (DEFAULT_QUOTIENT_BOUND, distinguish, flip_check,
                      format_certificate, spine_tuple)
from .presentations import (DEFAULT_TIETZE_BUDGET, AbelianInvariants, format_presentation,
                            parse_presentation, tietze_simplify)
from .render import diagram_to_svg
from .words import _canonical_letters, parse_word


def _read_text(path: str) -> tuple[str, str]:
    """The text as written, line endings untranslated, so that the
    parsers see (and reject) carriage returns."""
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8"), "<stdin>"
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read(), path


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
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


def _load_heegaard(args) -> GeometricHeegaardDiagram:
    text, _ = _read_text(args.input)
    return parse_heegaard(text)


def _load_diagram(args) -> MultisectionDiagram:
    text, _ = _read_text(args.input)
    return parse_diagram(text)


def _emit_heegaard(args, h: GeometricHeegaardDiagram) -> int:
    _write_text(args.output, format_heegaard(h))
    _echo(f"heegaard genus {h.genus} name {h.name or '(unnamed)'}")
    return 0


def _emit_diagram(args, d: MultisectionDiagram) -> int:
    _write_text(args.output, format_diagram(d))
    shape = "closed" if d.closed else "bounded"
    types = " ".join(str(k) for k in d.claimed_types)
    _echo(f"{shape} diagram genus {d.surface.genus} types {types}")
    return 0


def cmd_construct(args) -> int:
    verb = args.verb
    if verb == "lens":
        return _emit_heegaard(args, cons.lens_diagram(args.p, args.q))
    if verb == "sum":
        h = _load_heegaard(args)
        out = h
        for _ in range(args.copies - 1):
            out = connected_sum(out, h)
        return _emit_heegaard(args, out)
    if verb == "mirror":
        return _emit_heegaard(args, mirror(_load_heegaard(args)))
    if verb == "stabilize":
        h = _load_heegaard(args)
        for _ in range(args.times):
            h = stabilize(h)
        return _emit_heegaard(args, h)
    if verb == "bisect":
        return _emit_diagram(args, cons.bisection_from_heegaard(_load_heegaard(args)))
    if verb == "trisect-restrict":
        d = _load_diagram(args)
        return _emit_diagram(args, cons.bisection_from_trisection(d, args.drop))
    if verb == "double":
        return _emit_diagram(args, cons.double_bisection(_load_diagram(args)))
    if verb == "insert":
        d = _load_diagram(args)
        return _emit_diagram(
            args, cons.insert_parallel_sectors(d, args.position, args.count))
    if verb == "glue":
        h = _load_heegaard(args)
        chain = cons.glue_bisections(h, args.copies)
        if args.cap == "auto":
            chain = cons.cap_off(chain, cons.auto_cap(h, args.copies))
        return _emit_diagram(args, chain)
    if verb == "merge":
        d = _load_diagram(args)
        return _emit_diagram(args, cons.merge_adjacent_sectors(d, args.interface))
    raise AssertionError(f"unhandled construct verb {verb}")


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


def _presentations_match(p1, p2) -> bool:
    if p1.generator_count != p2.generator_count:
        return False
    c1 = sorted(_canonical_letters(r.letters) for r in p1.relators)
    c2 = sorted(_canonical_letters(r.letters) for r in p2.relators)
    return c1 == c2


def cmd_distinguish(args) -> int:
    report = Report("distinguish")
    if args.presentation is not None:
        pres = _read_input(report, args.presentation, parse_presentation)
        if args.tuple1 is None or args.tuple2 is None:
            raise FormatError("presentation mode needs --tuple1 and --tuple2")
        t1 = _parse_tuple("--tuple1", args.tuple1, pres.generator_count)
        t2 = _parse_tuple("--tuple2", args.tuple2, pres.generator_count)
        cert = distinguish(pres, t1, t2, args.bound)
    elif args.flip:
        if args.diagram is None:
            raise FormatError("--flip needs --diagram")
        cert = flip_check(_read_input(report, args.diagram, parse_diagram), args.bound)
    else:
        if args.diagram is None or args.diagram2 is None:
            raise FormatError(
                "diagram mode needs --diagram and --diagram2 (or --flip)")
        d1 = _read_input(report, args.diagram, parse_diagram)
        d2 = _read_input(report, args.diagram2, parse_diagram)
        p1 = pi1_of_diagram(d1)
        p2 = pi1_of_diagram(d2)
        if not _presentations_match(p1, p2):
            raise FormatError("the diagrams present different groups; spine "
                              "tuples are not comparable")
        t1 = spine_tuple(d1, args.sector)
        t2 = spine_tuple(d2, args.sector2 if args.sector2 else args.sector)
        cert = distinguish(p1, t1, t2, args.bound)
    report.section("certificate")
    report.raw(format_certificate(cert))
    report.field("replay-verified", "true" if cert.replay() else "false")
    code = {"distinct": 0, "same_orbit": 10, "inconclusive": 20}[cert.verdict]
    report.section("summary")
    report.field("exit-code", code)
    _write_text(args.output, report.render())
    return code


def cmd_render(args) -> int:
    _write_text(args.svg, diagram_to_svg(_load_diagram(args), args.size))
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


def _add_io(parser, output=True):
    parser.add_argument("-i", "--input", default="-",
                        help="input file ('-' for stdin)")
    if output:
        parser.add_argument("-o", "--output", default="-",
                            help="output file ('-' for stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multisect",
        description="Construct, validate, and distinguish multisection "
                    "diagrams of 4-manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build diagrams")
    verbs = construct.add_subparsers(dest="verb", required=True)

    lens = verbs.add_parser("lens", help="lens space Heegaard diagram")
    lens.add_argument("--p", type=_at_least(1), required=True)
    lens.add_argument("--q", type=_at_least(1), required=True)
    _add_io(lens)

    for name, extra in (("sum", [("--copies", _at_least(1), 2, "number of copies")]),
                        ("mirror", []),
                        ("stabilize", [("--times", _at_least(0), 1, "stabilizations")]),
                        ("bisect", []),
                        ("double", [])):
        p = verbs.add_parser(name)
        for flag, typ, default, help_text in extra:
            p.add_argument(flag, type=typ, default=default, help=help_text)
        _add_io(p)

    tr = verbs.add_parser("trisect-restrict",
                          help="bounded bisection from a closed 3-system diagram")
    tr.add_argument("--drop", type=int, choices=(1, 2, 3), required=True,
                    help="sector to forget")
    _add_io(tr)

    ins = verbs.add_parser("insert", help="insert parallel sectors")
    ins.add_argument("--position", type=_at_least(1), default=2)
    ins.add_argument("--count", type=_at_least(0), required=True)
    _add_io(ins)

    glue = verbs.add_parser("glue", help="chain copies of one bisection")
    glue.add_argument("--copies", type=_at_least(1), required=True)
    glue.add_argument("--cap", choices=["auto", "none"], default="none")
    _add_io(glue)

    merge = verbs.add_parser("merge", help="merge across one interface")
    merge.add_argument("--interface", type=_at_least(1), required=True)
    _add_io(merge)

    for name, func_help in (("validate", "check sector structure"),
                            ("pi1", "fundamental group of the diagram"),
                            ("homology", "abelian invariants")):
        p = sub.add_parser(name, help=func_help)
        if name != "homology":
            p.add_argument("--budget", type=_at_least(1), default=DEFAULT_TIETZE_BUDGET,
                           help="Tietze moves before giving up")
        _add_io(p)

    dist = sub.add_parser("distinguish", help="Nielsen-class comparison")
    dist.add_argument("--presentation", help="presentation text file")
    dist.add_argument("--tuple1", help="comma-separated words")
    dist.add_argument("--tuple2", help="comma-separated words")
    dist.add_argument("--diagram", help="diagram file")
    dist.add_argument("--diagram2", help="second diagram file")
    dist.add_argument("--sector", type=_at_least(1), default=1)
    dist.add_argument("--sector2", type=_at_least(0), default=0, help="0: as --sector")
    dist.add_argument("--flip", action="store_true",
                      help="compare the two sectors of one bounded bisection")
    dist.add_argument("--bound", type=_at_least(1), default=DEFAULT_QUOTIENT_BOUND,
                      help="largest witness quotient order m^n")
    dist.add_argument("-o", "--output", default="-")

    render = sub.add_parser("render", help="schematic SVG chord diagram")
    render.add_argument("--svg", default="-", help="output file ('-' for stdout)")
    render.add_argument("--size", type=_at_least(1), default=640)
    _add_io(render, output=False)

    return parser


HANDLERS = {
    "construct": cmd_construct,
    "validate": cmd_validate,
    "pi1": cmd_pi1,
    "homology": cmd_homology,
    "distinguish": cmd_distinguish,
    "render": cmd_render,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = HANDLERS[args.command](args)
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
