"""Fuzz gate for the CLI exit codes: one-token edits of valid HD, MSD and
presentation files, run through every verb that reads them, exit 0, 1,
2, 10 or 20.  Exit 3 is kept for a failed internal self-check, a defect
of this program that no input may bring about, and no exception escapes
``main``.  Random command lines may also end in argparse's own exits,
``SystemExit`` 2 for a usage error and 0 for ``--help``, and each ends
as it does under a parser of every verb; a line main reads off the verb
table reads as argparse reads it."""

import io
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import multisect.cli
from multisect.cli import build_parser, main
from multisect.constructions import (bisection_from_heegaard, double_bisection,
                                     lens_diagram)
from multisect.diagrams import (CutSystem, MultisectionDiagram, SurfaceModel,
                                format_diagram, format_heegaard,
                                standard_alpha_system)
from multisect.words import Word, automorphism
from test_cli import NEAR_MISSES
from test_golden import PRESENTATION


def _trisection():
    surf = SurfaceModel(1)
    beta = CutSystem(surf, (Word(2, (2,)),), automorphism(2, {}, {}), "beta")
    gamma = CutSystem(surf, (Word(2, (1, 2)),),
                      automorphism(2, {1: (1, -2)}, {1: (1, 2)}), "gamma")
    return MultisectionDiagram(surf, (standard_alpha_system(surf), beta, gamma),
                               True, (0, 0, 0))


_LENS = lens_diagram(2, 1)
_BISECTION = bisection_from_heegaard(_LENS)
_HD = format_heegaard(_LENS)
_DOUBLE = double_bisection(_BISECTION)
# the double with alpha's standardizer block removed: pairs read from
# alpha's side come from the cache or from the other side
_BARE_ALPHA = replace(_DOUBLE, systems=(replace(_DOUBLE.systems[0], standardizer=None),
                                        *_DOUBLE.systems[1:]))
# the bisection so edited: double and insert read its pairs from the cache
_BARE_BISECTION = replace(_BISECTION, systems=(
    replace(_BISECTION.systems[0], standardizer=None), *_BISECTION.systems[1:]))
# the lens(5,2) bisection with alpha's inverse block removed: spine
# tuples skip alpha's side
_L52 = bisection_from_heegaard(lens_diagram(5, 2))
_UNTRACKED_ALPHA = replace(_L52, systems=(
    replace(_L52.systems[0], standardizer=replace(_L52.systems[0].standardizer,
                                                  inverse_images=None)),
    *_L52.systems[1:]))
_MSDS = (format_diagram(_BISECTION), format_diagram(_DOUBLE),
         format_diagram(_trisection()), format_diagram(_BARE_ALPHA),
         format_diagram(_BARE_BISECTION), format_diagram(_UNTRACKED_ALPHA))

# every verb that reads the file: {src} is the edited file, {dst} the
# output and {base} the unedited bisection
_HD_VERBS = ("construct sum -i {src} -o {dst}", "construct mirror -i {src} -o {dst}",
             "construct stabilize -i {src} -o {dst}", "construct bisect -i {src} -o {dst}",
             "construct glue -i {src} --copies 2 --cap auto -o {dst}")
_MSD_VERBS = ("construct double -i {src} -o {dst}",
              "construct trisect-restrict -i {src} --drop 1 -o {dst}",
              "construct insert -i {src} --count 1 -o {dst}",
              "construct merge -i {src} --interface 2 -o {dst}",
              "validate -i {src} -o {dst}", "pi1 -i {src} -o {dst}",
              "homology -i {src} -o {dst}", "render -i {src} --svg {dst}",
              "distinguish --flip --diagram {src} --bound 8 -o {dst}",
              "distinguish --diagram {src} --diagram2 {base} --bound 8 -o {dst}")
_PRESENTATION_VERBS = ("distinguish --presentation {src} --tuple1 'g1, g2' "
                       "--tuple2 'g1, g2 g2' --bound 8 -o {dst}",)

_BASES = ((_HD, _HD_VERBS),
          *((msd, _MSD_VERBS) for msd in _MSDS),
          (PRESENTATION, _PRESENTATION_VERBS))

# tokens of the files themselves, and near misses of them
_TOKENS = sorted({token for text, _ in _BASES for token in text.split()}
                 | {"0", "-1", "2", "3", "99", "g0", "g5", "g9^-1", "x", ""})


@st.composite
def _one_token_edit(draw, text):
    """``text`` with one token replaced or deleted, or one line deleted
    or duplicated."""
    lines = text.split("\n")[:-1]
    n = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(("replace", "delete", "delete line", "duplicate line")))
    if edit == "delete line":
        del lines[n]
    elif edit == "duplicate line":
        lines.insert(n, lines[n])
    else:
        tokens = lines[n].split(" ")
        k = draw(st.integers(0, len(tokens) - 1))
        if edit == "delete":
            del tokens[k]
        else:
            tokens[k] = draw(st.sampled_from(_TOKENS))
        lines[n] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def _edited_inputs(draw):
    text, verbs = draw(st.sampled_from(_BASES))
    return draw(_one_token_edit(text)), verbs


@settings(max_examples=60, deadline=None)
@given(_edited_inputs())
def test_edited_inputs_exit_with_a_documented_code(tmp_path_factory, edited):
    text, verbs = edited
    work = tmp_path_factory.mktemp("cli-fuzz")
    paths = {name: work / name for name in ("src", "dst", "base")}
    paths["src"].write_text(text)
    paths["base"].write_text(_MSDS[0])
    for verb in verbs:
        argv = [arg.format(**paths) for arg in shlex.split(verb)]
        assert main(argv) in (0, 1, 2, 10, 20), (verb, text)


# ---------------------------------------------------------------------------
# random argv: a verb, flags mostly of that verb, and values that it
# accepts or refuses, including integers too large for any index and
# files that are not UTF-8 or not files.  Every file named exists under a
# fresh directory; '-' is never an input and every verb that reads -i
# gets one, so nothing reads stdin.  The flags that size the work (--p,
# --q, --copies, --times, --count, --budget) take small values only: a
# value of 10**30 there asks for that much work, by design.

# each verb's own flags, the required ones first
_VERBS = {
    "construct lens": (2, "--p", "--q", "-o"),
    "construct sum": (0, "--copies", "-o"),
    "construct mirror": (0, "-o"),
    "construct stabilize": (0, "--times", "-o"),
    "construct bisect": (0, "-o"),
    "construct trisect-restrict": (1, "--drop", "-o"),
    "construct double": (0, "-o"),
    "construct insert": (1, "--count", "--position", "-o"),
    "construct glue": (1, "--copies", "--cap", "-o"),
    "construct merge": (1, "--interface", "-o"),
    "validate": (0, "--budget", "-o"),
    "pi1": (0, "--budget", "-o"),
    "homology": (0, "-o"),
    "distinguish": (0, "--presentation", "--tuple1", "--tuple2", "--diagram",
                    "--diagram2", "--sector", "--sector2", "--flip", "--bound", "-o"),
    "render": (0, "--svg", "--size"),
    "construct": (0,), "frobnicate": (0,), "": (0,),
}
_READS_INPUT = {verb for verb in _VERBS if verb.startswith("construct ")
                and verb != "construct lens"} | {"validate", "pi1", "homology", "render"}
_FILES = ("hd", "msd", "presentation", "latin1", "directory")
# (values a verb accepts, values it refuses); a value is drawn from the
# first half of the time, so that many argvs get past argparse
_SMALL = (("1", "2", "3"), ("-1", "0", "x", "1.5", "", "0x10"))
_LARGE = (_SMALL[0], _SMALL[1] + (str(2 ** 64 + 1), str(10 ** 30), "9" * 5000))
_INPUT = (("hd", "msd", "presentation"), ("latin1", "directory"))
_TUPLES = (("g1, g2", "g1, g2 g2", "g1, g1 g2 g1^-1"),
           ("g1", "", "1, 1", "g3", "g1,,g2", "g1^-1 g1, g2"))
_FLAGS = {
    **{flag: _SMALL for flag in ("--p", "--q", "--copies", "--times", "--count",
                                 "--budget")},
    **{flag: _LARGE for flag in ("--drop", "--position", "--interface", "--sector",
                                 "--sector2", "--bound", "--size")},
    **{flag: _INPUT for flag in ("-i", "--input", "--presentation", "--diagram",
                                 "--diagram2")},
    **{flag: (("out", "-"), ("directory",)) for flag in ("-o", "--output", "--svg")},
    "--cap": (("auto", "none"), ("x",)), "--tuple1": _TUPLES, "--tuple2": _TUPLES,
    "--flip": None, "--help": None,
}


@st.composite
def _value(draw, values):
    accepted, refused = values
    return draw(st.sampled_from(accepted) | st.sampled_from(accepted + refused))


@st.composite
def _argv(draw):
    """A verb with its required flags, some of its own flags and, one
    time in four, a flag of any verb, each with a drawn value, then -i
    and a file for a verb that reads its input."""
    verb = draw(st.sampled_from(sorted(_VERBS)))
    required, *own = _VERBS[verb]
    flags = own[:required] + draw(st.lists(st.sampled_from(own), max_size=4)) \
        if own else []
    if draw(st.sampled_from((False, False, False, True))):
        flags.append(draw(st.sampled_from(sorted(_FLAGS))))
    argv = verb.split()
    for flag in flags:
        argv.append(flag)
        if _FLAGS[flag] is not None:
            argv.append(draw(_value(_FLAGS[flag])))
    if verb in _READS_INPUT:
        # argparse keeps the last -i, so the input is always a file
        argv += ["-i", draw(_value(_INPUT))]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_random_argv_exits_with_a_documented_code(tmp_path_factory, argv):
    work = tmp_path_factory.mktemp("cli-argv")
    paths = {name: str(work / name) for name in (*_FILES, "out")}
    (work / "hd").write_text(_HD)
    (work / "msd").write_text(_MSDS[0])
    (work / "presentation").write_text(PRESENTATION)
    (work / "latin1").write_bytes("gens 1\ng1 \xe9\n".encode("latin-1"))
    (work / "directory").mkdir()
    argv = [paths.get(arg, arg) for arg in argv]
    exited, code, *_ = outcome = _outcome(argv)
    assert code in ((0, 2) if exited else (0, 1, 2, 10, 20)), argv
    # the oracle reads every line with argparse, never off the verb table
    with patch.object(multisect.cli, "_read_line", lambda _argv: None):
        assert _outcome(argv) == outcome, argv


def _read_and_parsed(argv):
    """What main's reader makes of argv, and the Namespace argparse gives
    from the same verb table, None where it exits or leaves a token."""
    verbs = multisect.cli._verbs()
    with patch.object(multisect.cli, "_verbs", lambda: verbs), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        read = multisect.cli._read_line(argv)
        try:
            parsed, extra = build_parser().parse_known_args(argv)
        except SystemExit:
            return read, None
    return read, None if extra else parsed


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_a_line_read_off_the_verb_table_is_read_as_argparse_reads_it(argv):
    read, parsed = _read_and_parsed(argv)
    assert read is None or read == parsed, argv


@pytest.mark.parametrize("line", NEAR_MISSES)
def test_a_near_miss_is_read_as_argparse_reads_it_or_left_to_argparse(line):
    read, parsed = _read_and_parsed(line.split())
    if NEAR_MISSES[line]:  # left to argparse
        assert read is None
    else:
        assert read is not None and read == parsed


def _outcome(argv):
    """Whether argparse exited, the exit code, stdout and stderr of one
    command line, run with no stdin: a verb that read it would raise
    AttributeError."""
    out, err = io.StringIO(), io.StringIO()
    with patch.object(sys, "stdin", None), redirect_stdout(out), redirect_stderr(err):
        try:
            exited, code = False, main(argv)
        except SystemExit as exc:
            exited, code = True, exc.code
    return exited, code, out.getvalue(), err.getvalue()
