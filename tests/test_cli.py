import _pyio
import argparse
import builtins
import hashlib
import io
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch
from xml.dom import minidom

import pytest

import multisect.cli
import multisect.diagrams
import multisect.matrices
import multisect.nielsen
import multisect.presentations
import multisect.words
from multisect.cli import build_parser, main
from multisect.constructions import (bisection_from_heegaard, double_bisection,
                                     insert_parallel_sectors, lens_diagram)
from multisect.diagrams import connected_sum, format_diagram, format_heegaard, \
    parse_diagram, validate


@pytest.fixture
def lens_hd(tmp_path):
    path = tmp_path / "lens21.hd"
    path.write_text(format_heegaard(lens_diagram(2, 1)))
    return path


@pytest.fixture
def lens_msd(tmp_path):
    path = tmp_path / "lens21.msd"
    path.write_text(format_diagram(bisection_from_heegaard(lens_diagram(2, 1))))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_construct_lens_then_bisect(tmp_path):
    hd = tmp_path / "l.hd"
    msd = tmp_path / "l.msd"
    assert run("construct", "lens", "--p", 2, "--q", 1, "-o", hd) == 0
    assert run("construct", "bisect", "-i", hd, "-o", msd) == 0
    d = parse_diagram(msd.read_text())
    assert d.surface.genus == 2
    assert d.claimed_types == (1, 1)


def test_construct_lens_takes_no_input(tmp_path, capsys):
    # lens reads nothing, so an -i there is a mistyped pipeline
    with pytest.raises(SystemExit) as exc:
        run("construct", "lens", "--p", 5, "--q", 2, "-i", tmp_path / "missing.hd")
    assert exc.value.code == 2
    assert "unrecognized arguments: -i" in capsys.readouterr().err


def test_validate_exit_codes(lens_msd, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert run("validate", "-i", lens_msd, "-o", out) == 0
    text = out.read_text()
    assert "pair 1 2: Verified(1) claimed 1" in text
    assert "pair 3 1: Z/2 + Z/2" in text
    assert "all-verified: true" in text

    corrupted = lens_msd.read_text().replace("types 1 1", "types 0 1")
    bad = tmp_path / "bad.msd"
    bad.write_text(corrupted)
    out2 = tmp_path / "report2.txt"
    assert run("validate", "-i", bad, "-o", out2) == 1
    assert "RefutedByHomology" in out2.read_text()


def test_validate_reports_are_byte_stable(lens_msd, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert run("validate", "-i", lens_msd, "-o", a) == 0
    assert run("validate", "-i", lens_msd, "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_is_thin_adapter(lens_msd, tmp_path):
    out = tmp_path / "report.txt"
    run("validate", "-i", lens_msd, "-o", out)
    report = out.read_text()
    library = validate(parse_diagram(lens_msd.read_text()))
    for (i, j), claimed, verdict in library.entries:
        assert f"pair {i} {j}: {verdict.describe()} claimed {claimed}" in report


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.msd"
    bad.write_text("MSD 1\ngenus two\n")
    assert run("validate", "-i", bad, "-o", tmp_path / "r.txt") == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_input_file_is_an_io_error(tmp_path, capsys):
    assert run("validate", "-i", tmp_path / "missing.msd") == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("construct", "sum", "--copies", 0),
    ("construct", "stabilize", "--times", -3),
    ("render", "--size", -5),
    ("distinguish", "--bound", 0),
    ("construct", "lens", "--p", 0, "--q", 1),
    ("construct", "lens", "--p", 2, "--q", -1),
    ("construct", "insert", "--position", 0, "--count", 1),
    ("construct", "insert", "--count", -1, "-i", "missing.msd"),
    ("construct", "merge", "--interface", 0),
    ("distinguish", "--sector", 0),
    ("distinguish", "--sector2", -1),
])
def test_numeric_flags_are_range_checked(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_drop_names_a_sector_of_a_trisection(capsys):
    with pytest.raises(SystemExit) as exc:
        run("construct", "trisect-restrict", "--drop", 4, "-i", "missing.msd")
    assert exc.value.code == 2
    assert "argument --drop: invalid choice: 4" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1_0", " 1", "١", "+1", "01"])
@pytest.mark.parametrize("argv", [
    ("construct", "lens", "--q", 1, "--p"),
    ("construct", "glue", "-i", "missing.hd", "--copies"),
    ("construct", "trisect-restrict", "-i", "missing.msd", "--drop"),
], ids=["p", "copies", "drop"])
def test_integer_flags_take_the_one_integer_grammar_of_files(argv, text, capsys):
    # int() reads each of these, but a file refuses them and str() never
    # writes them, so a flag refuses them too
    with pytest.raises(SystemExit) as exc:
        run(*argv, text)
    assert exc.value.code == 2
    assert f"argument {argv[-1]}: invalid int value: {text!r}" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["validate", "pi1"])
@pytest.mark.parametrize("budget", [0, -4])
def test_budget_is_checked_before_input_is_read(verb, budget, tmp_path, capsys):
    # a usage error naming the flag, though the input file does not exist
    with pytest.raises(SystemExit) as exc:
        run(verb, "--budget", budget, "-i", tmp_path / "missing.msd")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --budget: must be at least 1" in err


@pytest.mark.parametrize("argv", [
    ("validate", "--timing"),
    ("pi1", "--timing"),
    ("homology", "--timing"),
    ("homology", "--budget", 5),
])
def test_flags_no_verb_reads_are_usage_errors(lens_msd, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "-i", lens_msd)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_crlf_input_file_is_a_parse_error(lens_msd, tmp_path, capsys):
    # the file is read as written, so the parser sees the carriage returns
    crlf = tmp_path / "crlf.msd"
    crlf.write_bytes(lens_msd.read_bytes().replace(b"\n", b"\r\n"))
    assert run("validate", "-i", crlf, "-o", tmp_path / "r.txt") == 2
    assert "line 1:" in capsys.readouterr().err


def test_output_files_read_back_where_lines_end_in_crlf(tmp_path, monkeypatch):
    # the pure-Python io reads os.linesep when a file is opened, so this
    # is a platform whose text files end lines in \r\n, as on Windows
    monkeypatch.setattr(builtins, "open", _pyio.open)
    monkeypatch.setattr(os, "linesep", "\r\n")
    hd = tmp_path / "win.hd"
    assert run("construct", "lens", "--p", 5, "--q", 2, "-o", hd) == 0
    assert b"\r" not in hd.read_bytes()
    assert run("construct", "bisect", "-i", hd, "-o", tmp_path / "win.msd") == 0


def test_stdout_reads_back_where_lines_end_in_crlf(tmp_path, monkeypatch):
    # a stdout whose text layer ends lines in \r\n, as on Windows: the
    # report goes to the bytes beneath it, so it pipes into the next call
    monkeypatch.setattr(os, "linesep", "\r\n")
    stdout = _pyio.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run("construct", "lens", "--p", 5, "--q", 2) == 0
    piped = stdout.buffer.getvalue()
    assert piped.startswith(b"HD") and b"\r" not in piped
    monkeypatch.setattr(sys, "stdin", _pyio.TextIOWrapper(io.BytesIO(piped)))
    assert run("construct", "bisect", "-o", tmp_path / "win.msd") == 0


def test_failed_self_check_exits_3(lens_msd, monkeypatch, capsys):
    def failing(args):
        raise AssertionError("Smith normal form transforms are not unimodular")

    # the parser binds each verb's handler when it is built, on every call
    monkeypatch.setattr(multisect.cli, "cmd_validate", failing)
    assert run("validate", "-i", lens_msd) == 3
    assert capsys.readouterr().err == (
        "error: internal invariant failed: "
        "Smith normal form transforms are not unimodular\n")


@pytest.mark.parametrize("side", ["rows", "columns"])
def test_tampered_smith_form_operation_exits_3(side, tmp_path, misreport_add, capsys):
    # an elimination step that does not do what it logs is caught by the
    # replay of its log, on either side of the matrix
    # homology reads the simplified pi1, here with the residue diag(2, 3),
    # whose Smith form needs adds on both sides
    path = tmp_path / "lens21_lens31.msd"
    path.write_text(format_diagram(bisection_from_heegaard(
        connected_sum(lens_diagram(2, 1), lens_diagram(3, 1)))))
    misreport_add(side)
    assert run("homology", "-i", path, "-o", tmp_path / "r.txt") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: internal invariant failed: Smith normal form")
    assert "not unimodular" in err


def test_validate_computes_boundary_invariants_once(lens_msd, tmp_path, monkeypatch):
    # every boundary computation is one abelianization through diagrams;
    # the boundary section and the genus bound share it
    calls = []
    original = multisect.diagrams.abelianization

    def counting(pres):
        calls.append(pres)
        return original(pres)

    monkeypatch.setattr(multisect.diagrams, "abelianization", counting)
    out = tmp_path / "report.txt"
    assert run("validate", "-i", lens_msd, "-o", out) == 0
    assert "boundary-h1-rank: 2" in out.read_text()
    assert len(calls) == 1


@pytest.mark.parametrize("p, q, validate_snfs", [
    (2, 1, []),
    # sector (2, 3) read from system 2 keeps one relator on two
    # generators; the reverse reading verifies, so the stuck side's
    # invariants are never needed
    (5, 2, []),
])
def test_validate_and_pi1_take_no_redundant_smith_forms(p, q, validate_snfs,
                                                        tmp_path, monkeypatch):
    # a closed product diagram: every Tietze run that ends free has its
    # invariants by construction, and pi1 takes one Smith normal form, of
    # the simplified presentation
    path = tmp_path / "double.msd"
    path.write_text(format_diagram(double_bisection(
        bisection_from_heegaard(lens_diagram(p, q)))))
    calls = []
    original = multisect.matrices.smith_normal_form

    def counting(rows, cols):
        calls.append((len(rows), cols))
        return original(rows, cols)

    for module in (multisect.matrices, multisect.presentations, multisect.diagrams,
                   multisect.nielsen):
        if getattr(module, "smith_normal_form", None) is original:
            monkeypatch.setattr(module, "smith_normal_form", counting)
    out = tmp_path / "report.txt"
    assert run("validate", "-i", path, "-o", out) == 0
    assert calls == validate_snfs
    calls.clear()
    assert run("pi1", "-i", path, "-o", out) == 0
    assert f"group: Z/{p}" in out.read_text()
    assert calls == [(1, 1)]


def test_homology_shares_the_simplification_of_pi1(tmp_path, monkeypatch):
    # homology reads H1 off the simplified pi1, as pi1 does: its one Smith
    # normal form is of the 1 x 1 residue, never of the raw 6 x 2 matrix
    path = tmp_path / "double.msd"
    path.write_text(format_diagram(double_bisection(
        bisection_from_heegaard(lens_diagram(5, 2)))))
    calls = []
    original = multisect.matrices.smith_normal_form

    def counting(rows, cols):
        calls.append((len(rows), cols))
        return original(rows, cols)

    monkeypatch.setattr(multisect.presentations, "smith_normal_form", counting)
    out = tmp_path / "report.txt"
    assert run("homology", "-i", path, "-o", out) == 0
    assert "group: Z/5\n" in out.read_text()
    assert calls == [(1, 1)]


def test_failed_tietze_row_check_exits_3(lens_msd, monkeypatch, capsys):
    original = multisect.presentations._solve_for

    def wrong(g, rel):
        image = original(g, rel)
        return image + image

    monkeypatch.setattr(multisect.presentations, "_solve_for", wrong)
    assert run("pi1", "-i", lens_msd) == 3
    assert capsys.readouterr().err.startswith(
        "error: internal invariant failed: eliminate generator")


def test_overflowing_sizes_are_input_errors(tmp_path, capsys):
    # a size too large for a float or an index is the input's fault: one
    # error line and exit 2, never a traceback with exit 1
    msd = tmp_path / "l52.msd"
    msd.write_text(format_diagram(bisection_from_heegaard(lens_diagram(5, 2))))
    assert run("render", "-i", msd, "--svg", tmp_path / "o.svg",
               "--size", "1" + "0" * 400) == 2
    err = capsys.readouterr().err
    assert err == "error: integer division result too large for a float\n"
    pres = tmp_path / "p.txt"
    pres.write_text("gens 99999999999999999999\ng1\n")
    assert run("distinguish", "--presentation", pres, "--tuple1", "g2",
               "--tuple2", "g3") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    env = {**os.environ,
           "PYTHONPATH": str(Path(multisect.cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "multisect", "distinguish", "--presentation", str(pres),
         "--tuple1", "g2", "--tuple2", "g3"], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 2
    text = proc.stderr.decode()
    assert text.startswith("error: ") and text.count("\n") == 1, text


def test_distinguish_refuses_free_rank_above_the_width_before_simplifying(
        tmp_path, monkeypatch, capsys):
    # H1 = Z^(10^10) has no generating 1-tuple; that is read off the
    # generator and relator counts, before simplifying would allocate
    # one image per generator
    def refuse(pres, *args, **kwargs):
        raise AssertionError("simplified a presentation of free rank above n")

    monkeypatch.setattr(multisect.nielsen, "tietze_simplify", refuse)
    pres = tmp_path / "p.txt"
    pres.write_text("gens 10000000000\n")
    assert run("distinguish", "--presentation", pres, "--tuple1", "g1",
               "--tuple2", "g2") == 2
    assert capsys.readouterr().err == \
        "error: tuple does not generate the abelianization\n"


def test_a_size_too_large_to_allocate_exits_2(tmp_path, capsys):
    # the list of copies fails to allocate at once, touching no memory
    hd = tmp_path / "lens52.hd"
    hd.write_text(format_heegaard(lens_diagram(5, 2)))
    assert run("construct", "sum", "--copies", 10 ** 15, "-i", hd) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.parametrize("buffering", [[], ["-u"]])
def test_reader_closing_early_exits_2_without_traceback(lens_msd, buffering):
    # the reader is gone before the report is written; the write or the
    # flush fails inside main, which reports it as one error line
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(multisect.cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, *buffering, "-m", "multisect", "pi1", "-o", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env)
    proc.stdout.close()
    _, err = proc.communicate(lens_msd.read_bytes(), timeout=60)
    assert proc.returncode == 2
    text = err.decode()
    assert text.startswith("error: ") and text.count("\n") == 1, text
    assert "Broken pipe" in text


def test_pi1_and_homology_reports(lens_msd, tmp_path):
    out = tmp_path / "pi1.txt"
    assert run("pi1", "-i", lens_msd, "-o", out) == 0
    text = out.read_text()
    assert "== simplified ==" in text
    assert "gens 1" in text
    assert "group: Z/2" in text

    out2 = tmp_path / "hom.txt"
    assert run("homology", "-i", lens_msd, "-o", out2) == 0
    text2 = out2.read_text()
    assert "== boundary-invariants ==" in text2
    assert "torsion: 2 2" in text2


def test_double_insert_merge_pipeline(lens_msd, tmp_path):
    d4 = tmp_path / "d4.msd"
    assert run("construct", "double", "-i", lens_msd, "-o", d4) == 0
    d5 = tmp_path / "d5.msd"
    assert run("construct", "insert", "-i", d4, "--position", 2, "--count", 1,
               "-o", d5) == 0
    parsed = parse_diagram(d5.read_text())
    assert parsed.claimed_types == (1, 2, 1, 1, 1)
    back = tmp_path / "back.msd"
    assert run("construct", "merge", "-i", d5, "--interface", 3, "-o", back) == 0
    assert parse_diagram(back.read_text()) == parse_diagram(d4.read_text())


def _bare_alpha(d, drop=()):
    """``d`` as a user might write it: alpha's standardizer block removed,
    and the readings of the pairs in ``drop``."""
    alpha = replace(d.systems[0], standardizer=None)
    return format_diagram(replace(d, systems=(alpha,) + d.systems[1:], readings=tuple(
        (pair, words) for pair, words in d.readings if pair not in drop)))


def test_validate_reads_a_pair_from_its_readable_side(tmp_path):
    src, out = tmp_path / "b.msd", tmp_path / "report.txt"
    src.write_text(_bare_alpha(bisection_from_heegaard(lens_diagram(5, 2)), {(1, 2)}))
    assert run("validate", "-i", src, "-o", out) == 0
    assert "pair 1 2: Verified(1) claimed 1" in out.read_text()


def test_double_and_insert_read_cached_pairs_of_a_bare_system(tmp_path):
    src = tmp_path / "b.msd"
    src.write_text(_bare_alpha(bisection_from_heegaard(lens_diagram(5, 2))))
    for verb, *flags in (("double",), ("insert", "--count", 1)):
        out, report = tmp_path / f"{verb}.msd", tmp_path / f"{verb}.txt"
        assert run("construct", verb, *flags, "-i", src, "-o", out) == 0
        assert run("validate", "-i", out, "-o", report) == 0
        assert "all-verified: true" in report.read_text()


def test_distinguish_refuses_sectors_of_different_ranks(lens_hd, tmp_path, capsys):
    glued, merged, b = (tmp_path / name for name in ("g.msd", "m.msd", "b.msd"))
    assert run("construct", "glue", "--copies", 1, "--cap", "auto", "-i", lens_hd,
               "-o", glued) == 0
    assert run("construct", "merge", "--interface", 3, "-i", glued, "-o", merged) == 0
    assert run("construct", "trisect-restrict", "--drop", 1, "-i", merged, "-o", b) == 0
    capsys.readouterr()
    assert run("distinguish", "--flip", "--diagram", b) == 2
    assert capsys.readouterr().err == ("error: sector 1 has rank 2 and sector 2 rank 1; "
                                       "spine tuples of different ranks are not comparable\n")


def test_merge_reads_cached_pairs_of_a_bare_system(tmp_path):
    d4 = double_bisection(bisection_from_heegaard(lens_diagram(5, 2)))
    src, out = tmp_path / "d5.msd", tmp_path / "m.msd"
    src.write_text(_bare_alpha(insert_parallel_sectors(d4, 2, 1)))
    assert run("construct", "merge", "--interface", 2, "-i", src, "-o", out) == 0
    merged = parse_diagram(out.read_text())
    assert merged.systems[0].standardizer is None and validate(merged).ok


def test_merge_from_the_second_side_writes_the_double(tmp_path):
    hd, b, d4, d5, back = (tmp_path / name for name in
                           ("l.hd", "b.msd", "d4.msd", "d5.msd", "back.msd"))
    assert run("construct", "lens", "--p", 5, "--q", 2, "-o", hd) == 0
    assert run("construct", "bisect", "-i", hd, "-o", b) == 0
    assert run("construct", "double", "-i", b, "-o", d4) == 0
    assert run("construct", "insert", "-i", d4, "--count", 1, "-o", d5) == 0
    assert run("construct", "merge", "-i", d5, "--interface", 3, "-o", back) == 0
    assert back.read_bytes() == d4.read_bytes()


def test_glue_cap_pipeline(lens_hd, tmp_path):
    closed = tmp_path / "closed.msd"
    assert run("construct", "glue", "-i", lens_hd, "--copies", 2,
               "--cap", "auto", "-o", closed) == 0
    d = parse_diagram(closed.read_text())
    assert d.closed and len(d.systems) == 6

    bounded = tmp_path / "chain.msd"
    assert run("construct", "glue", "-i", lens_hd, "--copies", 2,
               "--cap", "none", "-o", bounded) == 0
    d2 = parse_diagram(bounded.read_text())
    assert not d2.closed and len(d2.systems) == 5


def test_sum_mirror_stabilize(lens_hd, tmp_path):
    out = tmp_path / "sum.hd"
    assert run("construct", "sum", "-i", lens_hd, "--copies", 3, "-o", out) == 0
    from multisect.diagrams import parse_heegaard
    assert parse_heegaard(out.read_text()).genus == 3
    assert run("construct", "mirror", "-i", lens_hd, "-o", tmp_path / "m.hd") == 0
    assert run("construct", "stabilize", "-i", lens_hd, "--times", 2,
               "-o", tmp_path / "s.hd") == 0
    assert parse_heegaard((tmp_path / "s.hd").read_text()).genus == 3


def test_construct_sum_shifts_each_word_once(tmp_path, monkeypatch):
    # one n-ary sum moves each copy's curves and standardizer images into
    # the final rank once, so the shifts double with the copies; a left
    # fold of binary sums re-shifted the sum so far at every step (29,500,
    # 116,620 and 463,660 shifts at 60, 120 and 240 copies)
    base = tmp_path / "base.hd"
    base.write_text(format_heegaard(connected_sum(*(lens_diagram(5, q) for q in range(1, 5)))))
    shifts, shift = [], multisect.words.Word.shift

    def counting(self, offset, rank):
        shifts[-1] += 1
        return shift(self, offset, rank)

    monkeypatch.setattr(multisect.words.Word, "shift", counting)
    for copies in (60, 120, 240):
        shifts.append(0)
        assert run("construct", "sum", "--copies", copies, "-i", base, "-o", tmp_path / "s.hd") == 0
    assert shifts == [1200, 2400, 4800]


def test_trisect_restrict(tmp_path):
    from multisect.diagrams import (CutSystem, MultisectionDiagram, SurfaceModel,
                                    standard_alpha_system)
    from multisect.words import Word, automorphism
    surf = SurfaceModel(1)
    alpha = standard_alpha_system(surf, "alpha")
    beta = CutSystem(surf, (Word(2, (2,)),), automorphism(2, {}, {}), "beta")
    gamma = CutSystem(surf, (Word(2, (1, 2)),),
                      automorphism(2, {1: (1, -2)}, {1: (1, 2)}), "gamma")
    tri = MultisectionDiagram(surf, (alpha, beta, gamma), True, (0, 0, 0))
    src = tmp_path / "tri.msd"
    src.write_text(format_diagram(tri))
    out = tmp_path / "restricted.msd"
    assert run("construct", "trisect-restrict", "-i", src, "--drop", 3,
               "-o", out) == 0
    d = parse_diagram(out.read_text())
    assert not d.closed
    assert d.claimed_types == (0, 0)


def test_distinguish_exit_codes(tmp_path, lens_msd):
    pres = tmp_path / "p.txt"
    pres.write_text("gens 2\ng1 g2 g1^-1 g2^-1\ng1 g1 g1 g1 g1\n"
                    "g2 g2 g2 g2 g2\n")
    out = tmp_path / "cert.txt"
    assert run("distinguish", "--presentation", pres,
               "--tuple1", "g1, g2", "--tuple2", "g1, g2 g2",
               "-o", out) == 0
    assert "verdict: distinct" in out.read_text()
    assert "replay-verified: true" in out.read_text()

    assert run("distinguish", "--presentation", pres,
               "--tuple1", "g1, g2", "--tuple2", "g1, g2",
               "-o", out) == 10

    assert run("distinguish", "--presentation", pres,
               "--tuple1", "g1, g2", "--tuple2", "g1, g2 g2",
               "--bound", 20, "-o", out) == 20


@pytest.mark.parametrize("m, bound", [(997, 10 ** 6), (1009, 2 * 10 ** 6)])
def test_distinguish_reads_generation_off_determinants(tmp_path, m, bound):
    # (Z/m)^2 with m^2 close to or past 10^6: neither deciding nor replaying
    # the certificate builds a subgroup of the quotient
    pres = tmp_path / "p.txt"
    pres.write_text("gens 2\ng1 g2 g1^-1 g2^-1\n"
                    + "".join(" ".join([g] * m) + "\n" for g in ("g1", "g2")))
    out = tmp_path / "cert.txt"
    start = time.perf_counter()
    assert run("distinguish", "--presentation", pres, "--tuple1", "g1, g2",
               "--tuple2", "g1, g2 g2", "--bound", bound, "-o", out) == 0
    assert time.perf_counter() - start < 1.0
    text = out.read_text()
    assert f"quotient: Z/{m} x Z/{m}\n" in text
    assert "replay-verified: true\n" in text


@pytest.mark.parametrize("gens, tuple1, tuple2", [(1, "g1", "g1^-1"),
                                                  (2, "g1, g2", "g2, g1")])
def test_distinguish_over_free_h1_compares_no_determinants(tmp_path, monkeypatch,
                                                           gens, tuple1, tuple2):
    # H1 = Z^n: both tuples generate it, so both determinants are +-1 and
    # no (Z/m)^n separates them, whatever --bound allows
    calls = []
    original = multisect.nielsen._determinant_class

    def counting(det, m):
        calls.append(m)
        return original(det, m)

    monkeypatch.setattr(multisect.nielsen, "_determinant_class", counting)
    pres = tmp_path / "p.txt"
    pres.write_text(f"gens {gens}\n")
    out = tmp_path / "cert.txt"
    assert run("distinguish", "--presentation", pres, "--tuple1", tuple1,
               "--tuple2", tuple2, "--bound", 10 ** 6, "-o", out) == 10
    assert calls == []
    text = out.read_text()
    assert f"searched: H1 = {' + '.join(['Z'] * gens)}; +-det not compared: H1 is free" in text
    assert "replay-verified: true\n" in text


def test_distinguish_skips_the_free_search_when_free_smith_forms_differ(tmp_path):
    # (g1, g2, g3) against (g1, g2, g3^2) in (Z/3)^3: +-det is 1 against 2,
    # equal mod 3, and the exponent sums have Smith forms 1, 1, 1 and 1, 1, 2
    pres = tmp_path / "z3.txt"
    pres.write_text("gens 3\ng1 g2 g1^-1 g2^-1\ng1 g3 g1^-1 g3^-1\ng2 g3 g2^-1 g3^-1\n"
                    + "".join(f"g{k} g{k} g{k}\n" for k in (1, 2, 3)))
    out = tmp_path / "cert.txt"
    assert run("distinguish", "--presentation", pres, "--tuple1", "g1, g2, g3",
               "--tuple2", "g1, g2, g3 g3", "--bound", 30, "-o", out) == 20
    text = out.read_text()
    assert ("; free search not run: exponent-sum Smith forms diag(1, 1, 1) and "
            "diag(1, 1, 2) differ\nreplay-verified: true\n") in text
    assert "exit-code: 20\n" in text


@pytest.mark.parametrize("flag, tuple1, tuple2, entry", [
    ("--tuple2", "g1, g2", "g1,,g2", 2),
    ("--tuple1", ",", "g1, g2", 1),
    ("--tuple2", "g1, g2", "g1, g2,", 3),
    ("--tuple2", "g1, g2", " ", 1),
])
def test_distinguish_refuses_empty_tuple_entries(tmp_path, capsys, flag, tuple1,
                                                 tuple2, entry):
    pres = tmp_path / "p.txt"
    pres.write_text("gens 2\ng1 g2 g1^-1 g2^-1\ng1 g1 g1 g1 g1\n"
                    "g2 g2 g2 g2 g2\n")
    assert run("distinguish", "--presentation", pres, "--tuple1", tuple1,
               "--tuple2", tuple2, "-o", tmp_path / "c.txt") == 2
    assert capsys.readouterr().err.startswith(
        f"error: {flag}: entry {entry} is empty")


@pytest.mark.parametrize("flag, tuple1, tuple2, reason", [
    ("--tuple1", "g1, x2", "g1, g2", "bad word token 'x2'"),
    ("--tuple2", "g1, g2", "g1, g2 g2^-1", "word is not freely reduced"),
    ("--tuple1", "g1, g1  g2", "g1, g2", "bad word token ''"),
])
def test_distinguish_names_the_flag_and_entry_of_a_bad_word(tmp_path, capsys, flag,
                                                           tuple1, tuple2, reason):
    pres = tmp_path / "p.txt"
    pres.write_text("gens 2\ng1 g1 g1 g1 g1\ng2 g2 g2 g2 g2\n")
    assert run("distinguish", "--presentation", pres, "--tuple1", tuple1,
               "--tuple2", tuple2, "-o", tmp_path / "c.txt") == 2
    assert capsys.readouterr().err == f"error: {flag}: entry 2: {reason}\n"


def test_distinguish_tuple_spellings(tmp_path):
    # "1" is the identity word and the empty string the empty tuple;
    # spaces around entries are optional
    z5 = tmp_path / "z5.txt"
    z5.write_text("gens 2\ng1 g1 g1 g1 g1\ng2\n")
    out = tmp_path / "c.txt"
    assert run("distinguish", "--presentation", z5, "--tuple1", "g1, 1",
               "--tuple2", "g1,1", "-o", out) == 10
    assert "tuple1: g1; 1\n" in out.read_text()
    trivial = tmp_path / "trivial.txt"
    trivial.write_text("gens 1\ng1\n")
    assert run("distinguish", "--presentation", trivial, "--tuple1", "",
               "--tuple2", "", "-o", out) == 10
    assert "tuple1: \n" in out.read_text()


def test_distinguish_flip_and_diagram_pair(lens_msd, tmp_path):
    out = tmp_path / "cert.txt"
    assert run("distinguish", "--flip", "--diagram", lens_msd, "-o", out) == 10
    assert run("distinguish", "--diagram", lens_msd, "--diagram2", lens_msd,
               "--sector", 1, "-o", out) == 10
    assert run("distinguish", "--diagram", lens_msd, "--diagram2", lens_msd,
               "--sector", 1, "--sector2", 2, "-o", out) == 10


@pytest.mark.parametrize("argv, flag", [
    (("--presentation", "p.txt", "--tuple1", "g1, g2", "--tuple2", "g1, g2 g2",
      "--flip", "--diagram", "b.msd"), "--flip"),
    (("--flip", "--diagram", "b.msd", "--sector", "2"), "--sector"),
    (("--diagram", "b.msd", "--diagram2", "b.msd", "--tuple1", "g1", "--tuple2", "g2"),
     "--tuple1"),
])
def test_distinguish_refuses_the_flags_of_another_mode(argv, flag, tmp_path, capsys,
                                                       monkeypatch):
    (tmp_path / "p.txt").write_text("gens 2\ng1 g1 g1 g1 g1\ng2 g2 g2 g2 g2\n")
    (tmp_path / "b.msd").write_text(
        format_diagram(bisection_from_heegaard(lens_diagram(5, 2))))
    monkeypatch.chdir(tmp_path)
    try:
        code = run("distinguish", *argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert code == 2
    assert len(errors) == 1 and flag in errors[0], errors


def test_distinguish_mismatched_diagrams(lens_msd, tmp_path, capsys):
    other = tmp_path / "l31.msd"
    other.write_text(format_diagram(bisection_from_heegaard(lens_diagram(3, 1))))
    assert run("distinguish", "--diagram", lens_msd, "--diagram2", other,
               "-o", tmp_path / "c.txt") == 2
    assert capsys.readouterr().err == ("error: the diagrams present different "
                                       "groups; spine tuples are not comparable\n")


def _certificate_section(path) -> str:
    text = path.read_text()
    return text[text.index("== certificate =="):text.index("== summary ==")]


def test_distinguish_compares_a_bisection_with_its_double_and_insert(tmp_path):
    # double and insert add only relabelled copies of existing systems, so
    # their pi1 relator sets equal the bisection's and the spines compare
    b = tmp_path / "b.msd"
    b.write_text(format_diagram(bisection_from_heegaard(lens_diagram(5, 2))))
    d, i = tmp_path / "d.msd", tmp_path / "i.msd"
    assert run("construct", "double", "-i", b, "-o", d) == 0
    assert run("construct", "insert", "-i", d, "--count", 2, "-o", i) == 0
    flip, pair = tmp_path / "flip.txt", tmp_path / "pair.txt"
    assert run("distinguish", "--flip", "--diagram", b, "-o", flip) == 0
    assert run("distinguish", "--diagram", b, "--diagram2", b, "--sector", 1,
               "--sector2", 2, "-o", pair) == 0
    assert _certificate_section(flip) == _certificate_section(pair)

    out = tmp_path / "cert.txt"
    assert run("distinguish", "--diagram", b, "--diagram2", d, "--sector", 1,
               "--sector2", 2, "-o", out) == 0
    assert "verdict: distinct\n" in out.read_text()
    assert "replay-verified: true\n" in out.read_text()
    assert run("distinguish", "--diagram", d, "--diagram2", i, "--sector", 1,
               "--sector2", 1, "-o", out) == 10
    assert "verdict: same_orbit\n" in out.read_text()
    assert "replay-verified: true\n" in out.read_text()


def test_distinguish_reports_are_byte_stable(tmp_path):
    pres = tmp_path / "p.txt"
    pres.write_text("gens 2\ng1 g2 g1^-1 g2^-1\ng1 g1 g1 g1 g1\n"
                    "g2 g2 g2 g2 g2\n")
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run("distinguish", "--presentation", pres, "--tuple1", "g1, g2",
        "--tuple2", "g1, g2 g2", "-o", a)
    run("distinguish", "--presentation", pres, "--tuple1", "g1, g2",
        "--tuple2", "g1, g2 g2", "-o", b)
    assert a.read_bytes() == b.read_bytes()


def test_render(lens_msd, tmp_path):
    svg = tmp_path / "out.svg"
    assert run("render", "-i", lens_msd, "--svg", svg) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<polygon") == 6  # three systems, two curves each
    svg2 = tmp_path / "out2.svg"
    run("render", "-i", lens_msd, "--svg", svg2)
    assert svg.read_bytes() == svg2.read_bytes()


@pytest.mark.parametrize("label", ['g"a<m>&a', "g\xe9a", "g\x7fa"],
                         ids=["markup", "non-ascii", "delete"])
def test_render_escapes_a_label_that_xml_would_misread(label, tmp_path):
    msd = tmp_path / "odd.msd"
    msd.write_text(format_diagram(bisection_from_heegaard(lens_diagram(5, 2)))
                   .replace("system gamma\n", f"system {label}\n"), encoding="utf-8")
    assert run("validate", "-i", msd, "-o", tmp_path / "report.txt") == 0
    svg = tmp_path / "odd.svg"
    assert run("render", "-i", msd, "--svg", svg) == 0
    groups = minidom.parse(str(svg)).getElementsByTagName("g")
    assert [g.getAttribute("data-system") for g in groups if g.hasAttribute("data-system")] \
        == ["alpha", "beta", label]


def test_a_label_xml_cannot_carry_is_an_input_error(tmp_path, capsys):
    msd = tmp_path / "odd.msd"
    msd.write_text(format_diagram(bisection_from_heegaard(lens_diagram(5, 2)))
                   .replace("system gamma\n", "system g\x01a\n"))
    assert run("validate", "-i", msd, "-o", tmp_path / "report.txt") == 2
    assert run("render", "-i", msd, "--svg", tmp_path / "odd.svg") == 2
    assert "XML cannot carry" in capsys.readouterr().err
    assert not (tmp_path / "odd.svg").exists()


def test_render_genus_zero(tmp_path):
    from multisect.diagrams import CutSystem, MultisectionDiagram, SurfaceModel
    from multisect.words import identity_automorphism
    surf = SurfaceModel(0)
    mk = lambda label: CutSystem(surf, (), identity_automorphism(0), label)
    d = MultisectionDiagram(surf, (mk("a"), mk("b"), mk("c")), True, (0, 0, 0))
    src = tmp_path / "empty.msd"
    src.write_text(format_diagram(d))
    svg = tmp_path / "empty.svg"
    assert run("render", "-i", src, "--svg", svg) == 0
    assert "<circle" in svg.read_text()


# sha256 of the help each command line prints at COLUMNS=80, recorded
# once: help and usage text are part of the interface
HELP_DIGESTS = {
    "-h": "632dd34002ab4f62e4aef0cd7ef5d67e4ab770c6943aff5dae851326738b5944",
    "construct -h": "0687982916f3e710ce66050e2bc056c2aa84424f5584dac065a7865e039b0ebb",
    "construct lens -h": "9cba7f8f615bc47f2228448630de2a18148f28556f642f5a69fca58095f84034",
    "construct sum -h": "923f34b5cc094694a5afb7691a4e6d27551af957e01ee3e79ee51cbbe1b2345d",
    "construct mirror -h": "754012fbb5330980343ed1dae29678265aac8e3a56b68f5fa61bf876e02f5ded",
    "construct stabilize -h": "458109dacc85623e0cf23fa634cf46bcf2202faddf1ca40ed9325b607572252f",
    "construct bisect -h": "ded1c2b8efbbf787c861b430c59dc9628de22565202aa9fa5d09d3f749c490ce",
    "construct double -h": "f66964862aa7efbfe64dab1eeb0e02d24760a7abeea325d4ebe9387fdd9d4733",
    "construct trisect-restrict -h":
        "fbf4a7dc2e928fc4187a26d9ea1dddb52185559dd264eb7d4cfacd9532f16811",
    "construct insert -h": "c9b379aad9e62f2c8f50752e49da25bfce1024099a19169a80bf9fc56fbb1ea0",
    "construct glue -h": "ca4e52b62fb5da7ee1ef7f9985099f0eecda263473244f9908c1bed9840e05b8",
    "construct merge -h": "720ea2d61254297668585b374b6b3cf78993bb5e37b82b322700b5b50fb5b9df",
    "validate -h": "62db2873cea541f30f7e9b24d856c0591211c3ead56da25817feae1ad296ca59",
    "pi1 -h": "5f0fb9f1fcc65fcf6854d89e5a9cb8e6dac5970c212f137ba0a2445f0b2cd1b7",
    "homology -h": "dd32a862118489be87df74c2a37bbb9b3d4a3459da9358de0bf006d33aa46d5d",
    "distinguish -h": "feb0d3c5656cd6b55453a6e501d50c63fd9b20ff88c21a2cab5584dc40402f67",
    "render -h": "1c0890eb8165e38fa1c52385c1d8d0fff6f17c9dae4492f874fec3e75cc00520",
}

EVERY_VERB = ("construct", "lens", "sum", "mirror", "stabilize", "bisect", "double",
              "trisect-restrict", "insert", "glue", "merge", "validate", "pi1",
              "homology", "distinguish", "render")


def every_verb_parser(_argv):
    """The parser of every verb, entered from the top: a line not led by a
    verb builds the levels it enters from the top, with the parser of
    every verb it names."""
    return build_parser(["--", *EVERY_VERB])


def _outcome(argv, capsys):
    """Exit code, stdout and stderr of one command line."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("line", list(HELP_DIGESTS))
def test_help_text_is_pinned(line, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _outcome(line.split(), capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[line], out


@pytest.mark.parametrize("line", ["-h", "construct -h", "validate -h"])
def test_help_of_a_fresh_process_is_pinned(line):
    # main(None) reads sys.argv; the verbs it does not name get no parser
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": str(Path(multisect.cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "multisect", *line.split()],
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == HELP_DIGESTS[line]


@pytest.mark.parametrize("line", [
    "", "-h", "construct", "construct -h glue", "-h construct", "-h validate",
    "validate -h render", "-- validate -i missing.msd", "construct -- lens --p 5 --q 2",
    "validate --svg x", "validate -i missing.msd render", "homology -i missing.msd -o render",
    "-o validate", "validat", "construct len", "construct validate", "validate construct",
    "construct lens --p 5", "construct lens --p 0 --q 1", "construct glue -i missing.hd",
    "construct trisect-restrict --drop 4", "construct insert --count -1",
    "validate --budget 0", "pi1 -i missing.msd", "distinguish --bound 0",
    "distinguish --flip --presentation p.txt", "render --size 0", "render --svg",
    "--he", "--hel validate", "construct --he glue", "validate --he",
    "construct frobnicate -h", "construct glue --copies 2 lens",
    "distinguish --fl --diagram x", "construct lens --p 5 --q 2 extra",
    "construct glue --copies 2 --bogus -i missing.hd", "pi1 --budget 1 --budget 2",
    *HELP_DIGESTS])
def test_a_command_line_runs_as_under_a_parser_of_every_verb(line, tmp_path,
                                                             monkeypatch, capsys):
    # a line led by a verb builds that verb's parser alone, any other the
    # levels it enters with the verbs it names; both end as under the top
    # of a tree that holds every verb's parser
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    argv = line.split()
    named = _outcome(argv, capsys)
    monkeypatch.setattr(multisect.cli, "build_parser", every_verb_parser)
    assert _outcome(argv, capsys) == named


def _verbs(parser: argparse.ArgumentParser) -> dict:
    """The parsers of a parser's subcommands, by name."""
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _parsers_built(argv) -> int:
    """How many ArgumentParser objects one build of argv's parser makes."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with patch.object(argparse.ArgumentParser, "__init__", counted):
        build_parser(argv)
    return len(built)


def test_a_command_line_builds_the_parser_of_only_the_verbs_it_names():
    parser, used = build_parser(["validate", "-i", "x", "-o", "y"])
    assert (parser.prog, used) == ("multisect validate", 1)
    assert [a.option_strings for a in parser._actions] == [
        ["-h", "--help"], ["--budget"], ["-i", "--input"], ["-o", "--output"]]
    assert (parser.get_default("command"), parser.get_default("run")) == \
        ("validate", multisect.cli.cmd_validate)
    parser, used = build_parser(["construct", "glue", "--copies", "2"])
    assert (parser.prog, used) == ("multisect construct glue", 2)
    assert [parser.get_default(d) for d in ("command", "verb", "run", "read")] == \
        ["construct", "glue", multisect.cli.cmd_construct, multisect.cli.parse_heegaard]
    # a line not led by a verb enters from the top, and of the verbs it
    # does not name argparse holds only the name and help line
    parser, used = build_parser(["-h", "validate"])
    verbs = _verbs(parser)
    assert (parser.prog, used) == ("multisect", 0)
    assert list(verbs) == ["construct", "validate", "pi1", "homology", "distinguish",
                           "render"]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert [a.dest for a in sub._get_subactions()] == list(verbs)
    assert all(a.help for a in sub._get_subactions())
    assert [name for name, verb in verbs.items() if verb is not None] == ["validate"]
    # a line led by construct but by none of its verbs builds construct's level
    parser, used = build_parser(["construct", "--", "glue"])
    assert (parser.prog, used) == ("multisect construct", 1)
    assert parser.get_default("run") == multisect.cli.cmd_construct
    construct = _verbs(parser)
    assert list(construct) == list(EVERY_VERB[1:11])
    assert [name for name, verb in construct.items() if verb is not None] == ["glue"]
    assert _parsers_built(["validate", "-i", "x", "-o", "y"]) == 1
    assert _parsers_built(["construct", "glue", "--copies", "2"]) == 1
    assert _parsers_built(["distinguish", "--flip", "--diagram", "x"]) == 1
    assert _parsers_built(["-h"]) == 1


@pytest.mark.parametrize("verb, name, text, at, message", [
    ("validate", "big.msd", "MSD 1\ngenus {g}\nclosed true\ntypes 1 1 1\nsystem alpha\n"
     "curve g1\ncurve g3\n", 8, "unexpected end of file"),
    ("validate", "big.msd", "MSD 1\ngenus {g}\nclosed true\ntypes 1 1 1\nsystem alpha\n"
     "curve g1\ncurve g0\n", 7, "generator g0 out of range"),
    ("construct bisect", "big.hd", "HD 1\ngenus {g}\nsystem beta\ncurve g2\n", 5,
     "unexpected end of file"),
    ("construct bisect", "big.hd", "HD 1\ngenus {g}\nsystem beta\ncurve g2 x\n", 4,
     "bad word token 'x'"),
], ids=["msd-end", "msd-token", "hd-end", "hd-token"])
def test_a_huge_declared_genus_fails_at_its_line_at_once(tmp_path, capsys, verb, name, text,
                                                         at, message):
    # the token tables grow with the text read, never with the declared rank
    path = tmp_path / name
    path.write_text(text.format(g=10 ** 20))
    start = time.perf_counter()
    assert run(*verb.split(), "-i", path, "-o", tmp_path / "out") == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {at}: {message}") and err.count("\n") == 1, err
