"""Fuzz gate for the CLI exit codes: one-token edits of valid HD, MSD and
presentation files, run through every verb that reads them, exit 0, 1,
2, 10 or 20.  Exit 3 is kept for a failed internal self-check, a defect
of this program that no input may bring about, and no exception escapes
``main``."""

import shlex

from hypothesis import given, settings, strategies as st

from multisect.cli import main
from multisect.constructions import (bisection_from_heegaard, double_bisection,
                                     lens_diagram)
from multisect.diagrams import (CutSystem, MultisectionDiagram, SurfaceModel,
                                format_diagram, format_heegaard,
                                standard_alpha_system)
from multisect.words import Word, automorphism
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
_MSDS = (format_diagram(_BISECTION), format_diagram(double_bisection(_BISECTION)),
         format_diagram(_trisection()))

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
