"""Command-line surface.

Every verb is a thin adapter over the library: files are parsed, one
library call runs, and the result is serialized or reported.  Each verb
is declared once, in the table of :func:`_verbs`, with its flags, its
input reader and its library call.  A well-formed line of one verb is
read off that table with no parser built; any other line is read by the
one argparse tree of every verb, so help, usage and errors are
argparse's own.
Reports are byte-stable for fixed inputs and flags.  Diagram and
presentation formats are the ones defined next to their types;
stdin/stdout piping uses '-' (the default).

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
from .nielsen import (DEFAULT_QUOTIENT_BOUND, compare_sectors, distinguish,
                      flip_check, format_certificate)
from .presentations import (DEFAULT_TIETZE_BUDGET, AbelianInvariants, format_presentation,
                            parse_presentation, tietze_simplify)
from .render import diagram_to_svg
from .words import parse_integer, parse_word


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
        self.lines.extend(text.rstrip("\n").splitlines())

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
    checks = []
    for tracked, check in ((True, "composition with declared inverse"),
                           (False, "abelianized determinant only")):
        labels = [s.label for s in d.systems if s.standardizer is not None
                  and (s.standardizer.inverse_images is not None) == tracked]
        if labels:
            checks.append(f"checked by {check} for " + " ".join(labels))
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
        # the boundary's H1 needs as many generators as the central genus gives
        bound = d.boundary_invariants.minimal_generators
        report.field("boundary-h1-rank", bound)
        report.field("central-genus", d.surface.genus)
        report.field("minimal-genus", "yes" if bound == d.surface.genus else "not-determined")
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
    entries = [e.strip(" ") for e in text.split(",")] if text else []
    if "" in entries:
        raise ValueError(f"{flag}: entry {entries.index('') + 1} is empty; "
                         "write 1 for the identity word")
    words = []
    for number, entry in enumerate(entries, 1):
        try:
            words.append(parse_word(entry, rank))
        except FormatError as exc:
            raise FormatError(f"{flag}: entry {number}: {exc}") from None
    return tuple(words)


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
    """argparse type: an integer as files write it, at least ``minimum``."""
    def parse(text: str) -> int:
        value = parse_integer(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _verbs() -> dict:
    """Each verb, declared once, in one table built on every call (so a
    test double or the benchmark's tracer takes effect): its help line,
    the defaults that bind its handler ``run`` (a construct verb's also
    its reader ``read``, None if it reads no input, and its ``build(input,
    args)``), and its flags, or construct's own verbs.  A flag is (*names,
    add_argument options); a list of flags is one mutually exclusive group."""
    source = ("-i", "--input", dict(default="-", help="input file ('-' for stdin)"))
    sink = ("-o", "--output", dict(default="-", help="output file ('-' for stdout)"))
    budget = ("--budget", dict(type=_at_least(1), default=DEFAULT_TIETZE_BUDGET,
                               help="Tietze moves before giving up"))

    def make(help, read, build, *flags):
        """A construct verb's entry: its flags, then -i (unless ``read`` is None) and -o."""
        return help, dict(read=read, build=build), (*flags, *((source,) if read else ()), sink)

    return {
        "construct": ("build diagrams", dict(run=cmd_construct), {
            "lens": make("lens space Heegaard diagram", None,
                         lambda _, a: cons.lens_diagram(a.p, a.q),
                         ("--p", dict(type=_at_least(1), required=True)),
                         ("--q", dict(type=_at_least(1), required=True))),
            "sum": make("connected sum of copies of one Heegaard diagram", parse_heegaard,
                        lambda h, a: connected_sum(*[h] * a.copies),
                        ("--copies", dict(type=_at_least(1), default=2, help="number of copies"))),
            "mirror": make("orientation-reversed Heegaard diagram", parse_heegaard,
                           lambda h, _: mirror(h)),
            "stabilize": make("add trivial handles to a Heegaard diagram", parse_heegaard,
                              lambda h, a: stabilize(h, a.times),
                              ("--times", dict(type=_at_least(0), default=1, help="stabilizations"))),
            "bisect": make("product bisection of a Heegaard diagram", parse_heegaard,
                           lambda h, _: cons.bisection_from_heegaard(h)),
            "double": make("close a product bisection by doubling", parse_diagram,
                           lambda d, _: cons.double_bisection(d)),
            "trisect-restrict": make(
                "bounded bisection from a closed 3-system diagram", parse_diagram,
                lambda d, a: cons.bisection_from_trisection(d, a.drop),
                ("--drop", dict(type=_at_least(1), choices=(1, 2, 3), required=True,
                                help="sector to forget"))),
            "insert": make("insert parallel sectors", parse_diagram,
                           lambda d, a: cons.insert_parallel_sectors(d, a.position, a.count),
                           ("--position", dict(type=_at_least(1), default=2)),
                           ("--count", dict(type=_at_least(0), required=True))),
            "glue": make("chain copies of one bisection", parse_heegaard, _glued,
                         ("--copies", dict(type=_at_least(1), required=True)),
                         ("--cap", dict(choices=["auto", "none"], default="none"))),
            "merge": make("merge across one interface", parse_diagram,
                          lambda d, a: cons.merge_adjacent_sectors(d, a.interface),
                          ("--interface", dict(type=_at_least(1), required=True))),
        }),
        "validate": ("check sector structure", dict(run=cmd_validate), (budget, source, sink)),
        "pi1": ("fundamental group of the diagram", dict(run=cmd_pi1), (budget, source, sink)),
        "homology": ("abelian invariants", dict(run=cmd_homology), (source, sink)),
        "distinguish": ("Nielsen-class comparison", dict(run=cmd_distinguish), (
            [("--presentation", dict(help="presentation text file")),
             ("--flip", dict(action="store_true",
                             help="compare the two sectors of one bounded bisection")),
             ("--diagram2", dict(help="second diagram file"))],
            ("--tuple1", dict(help="comma-separated words")),
            ("--tuple2", dict(help="comma-separated words")),
            ("--diagram", dict(help="diagram file")),
            ("--sector", dict(type=_at_least(1), help="default 1")),
            ("--sector2", dict(type=_at_least(0), help="0 or unset: as --sector")),
            ("--bound", dict(type=_at_least(1), default=DEFAULT_QUOTIENT_BOUND,
                             help="largest witness quotient order m^n")),
            ("-o", "--output", dict(default="-")))),
        "render": ("schematic SVG chord diagram", dict(run=cmd_render), (
            ("--svg", dict(default="-", help="output file ('-' for stdout)")),
            ("--size", dict(type=_at_least(1), default=640)), source)),
    }


def _read_line(argv) -> argparse.Namespace | None:
    """The Namespace argparse gives ``argv``, read off the verb table with
    no parser built, or None for argparse to read it, so that help, usage
    and errors are argparse's alone.  Read is a verb, then its exact option
    strings, each once, one per exclusive group, every required one: a
    ``store_true`` flag alone, any other with the next token, ``-`` or not
    led by ``-``, that its type and choices accept."""
    path, defaults, body = [], {}, _verbs()
    for token, dest in zip(argv, ("command", "verb")):
        if not isinstance(body, dict) or token not in body:
            break
        path.append(token)
        _, own, body = body[token]
        defaults.update({dest: token}, **own)
    if isinstance(body, dict):
        return None
    flags, values, used, tokens = {}, {}, set(), iter(argv[len(path):])
    try:
        for item in body:
            for *names, options in item if isinstance(item, list) else [item]:
                if options.keys() - {"type", "default", "required", "choices", "help", "action"} \
                        or options.get("action", "store_true") != "store_true":
                    return None
                # argparse's dest: the first long name, else the first, undashed
                dest = next((n for n in names if n[:2] == "--"), names[0])
                dest = dest.lstrip("-").replace("-", "_")
                flags.update(dict.fromkeys(names, (dest, options, item)))
                values[dest] = options.get("default", False if "action" in options else None)
                if isinstance(values[dest], str):  # argparse converts a str default
                    values[dest] = options.get("type", str)(values[dest])
        for token in tokens:
            dest, options, item = flags.get(token, (None, None, None))
            if dest is None or id(item) in used:  # unknown, or a flag or exclusive group again
                return None
            used.add(id(item))
            text = "" if "action" in options else next(tokens, None)
            if text is None or text.startswith("-") and text != "-":
                return None
            values[dest] = True if "action" in options else options.get("type", str)(text)
            if "choices" in options and values[dest] not in options["choices"]:
                return None
    except (ValueError, TypeError, argparse.ArgumentTypeError):
        return None
    if any(options.get("required") and id(item) not in used for _, options, item in flags.values()):
        return None
    return argparse.Namespace(**defaults, **values)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every verb, for a line :func:`_read_line`
    does not read."""
    def fill(parser, body, dest):
        """``parser`` with ``body``'s flags, or a subcommand for each of its verbs."""
        if not isinstance(body, dict):
            for item in body:
                group = parser.add_mutually_exclusive_group() if isinstance(item, list) else parser
                for *names, options in item if isinstance(item, list) else [item]:
                    group.add_argument(*names, **options)
            return
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, (help, own, inner) in body.items():
            p = sub.add_parser(name, help=help)
            p.set_defaults(**own)
            fill(p, inner, "verb")

    parser = argparse.ArgumentParser(
        prog="multisect",
        description="Construct, validate, and distinguish multisection diagrams of 4-manifolds.")
    fill(parser, _verbs(), "command")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if (args := _read_line(argv)) is None:
        args = build_parser().parse_args(argv)
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
    except MemoryError:  # a size too large to allocate is the input's fault too
        print("error: out of memory", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # a self-check failed: a defect in this program, not in the input
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
