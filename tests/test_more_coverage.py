"""Edge cases and cross-cutting properties beyond the per-module tests."""

import os
import subprocess
import sys
from pathlib import Path

import multisect
from multisect.cli import main
from multisect.constructions import (auto_cap, bisection_from_heegaard,
                                     cap_off, double_bisection, glue_bisections,
                                     insert_parallel_sectors, lens_diagram,
                                     merge_adjacent_sectors)
from multisect.diagrams import (CutSystem, MultisectionDiagram, SurfaceModel,
                                format_diagram, format_heegaard, parse_diagram,
                                parse_heegaard, pi1_of_diagram, read_against,
                                validate)
from multisect.presentations import (abelianization, parse_presentation,
                                     tietze_simplify)
from multisect.render import diagram_to_svg
from multisect.words import Word


def test_reading_own_curves_vanishes_for_all_systems(lens21_bisection):
    for system in lens21_bisection.systems:
        for curve in system.curves:
            assert read_against(curve, system).is_identity()


def test_merge_at_cyclic_edge_index(lens21_bisection):
    h = lens_diagram(2, 1)
    closed = cap_off(glue_bisections(h, 1), auto_cap(h, 1))
    # rotate by hand so the removable interface sits at position 1
    systems = closed.systems[2:] + closed.systems[:2]
    types = closed.claimed_types[2:] + closed.claimed_types[:2]
    rotated = MultisectionDiagram(closed.surface, systems, True, types)
    assert validate(rotated).ok
    merged = merge_adjacent_sectors(rotated, 1)
    assert len(merged.systems) == 3
    assert sorted(merged.claimed_types) == [1, 1, 2]
    assert validate(merged).ok


def test_insert_into_bounded_bisection(lens21_bisection):
    out = insert_parallel_sectors(lens21_bisection, 2, 1)
    assert not out.closed
    assert len(out.systems) == 4
    assert out.claimed_types == (1, 2, 1)
    assert validate(out).ok
    assert abelianization(pi1_of_diagram(out)) == \
        abelianization(pi1_of_diagram(lens21_bisection))


def test_round_trips_for_every_pipeline_stage(lens21_bisection):
    h = lens_diagram(2, 1)
    chain = glue_bisections(h, 2)
    closed = cap_off(chain, auto_cap(h, 2))
    stages = [
        lens21_bisection,
        double_bisection(lens21_bisection),
        insert_parallel_sectors(double_bisection(lens21_bisection), 2, 2),
        chain,
        closed,
        merge_adjacent_sectors(closed, 3),
    ]
    for d in stages:
        text = format_diagram(d)
        assert parse_diagram(text) == d
        assert format_diagram(parse_diagram(text)) == text


def test_word_shift():
    w = Word(2, (1, 2))
    assert w.shift(2, 4).letters == (3, 4)


def test_tietze_trace_names_eliminated_generators_by_original_id():
    # eliminating g1 renumbers g2 as the first remaining generator; the
    # trace still calls it g2
    pres = parse_presentation("gens 3\ng1\ng2^-1 g1^-1 g2 g1^-1 g2^-1\n")
    result = tietze_simplify(pres)
    eliminations = [step for step in result.trace if step.startswith("eliminate")]
    assert eliminations == ["eliminate generator g1", "eliminate generator g2"]
    assert result.surviving_generators == (3,)


def _validate_assumptions(tmp_path, d) -> list[str]:
    src = tmp_path / "d.msd"
    src.write_text(format_diagram(d))
    out = tmp_path / "r.txt"
    assert main(["validate", "-i", str(src), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    start = lines.index("== assumptions ==")
    return lines[start + 1:lines.index("== verdicts ==")]


def test_validate_report_lists_assumptions(tmp_path):
    d = bisection_from_heegaard(lens_diagram(2, 1))
    standardizers, realizability = _validate_assumptions(tmp_path, d)
    assert standardizers == ("standardizers: checked by composition with "
                             "declared inverse for alpha beta gamma")
    assert realizability.startswith("realizability: ")


def test_validate_report_names_each_standardizer_check(tmp_path):
    # lens(5,2) without its inverse block: gamma carries that standardizer,
    # while alpha and beta are built with tracked inverses
    hd = format_heegaard(lens_diagram(5, 2)).partition("inverse\n")[0]
    d = bisection_from_heegaard(parse_heegaard(hd))
    assert _validate_assumptions(tmp_path, d)[0] == (
        "standardizers: checked by composition with declared inverse for "
        "alpha beta; checked by abelianized determinant only for gamma")


def test_validate_report_without_standardizers(tmp_path):
    surf = SurfaceModel(1)
    bare = lambda letters, label: CutSystem(surf, (Word(2, letters),), None, label)
    systems = (bare((1,), "alpha"), bare((2,), "beta"), bare((1, 2), "gamma"))
    one = (Word(1, (1,)),)
    readings = (((1, 2), one), ((2, 3), one), ((3, 1), one), ((1, 3), one))
    d = MultisectionDiagram(surf, systems, True, (0, 0, 0), readings)
    assert _validate_assumptions(tmp_path, d)[0] == "standardizers: none"


def test_render_marks_parallel_copy_offset(lens21_bisection):
    d4 = double_bisection(lens21_bisection)
    svg = diagram_to_svg(d4)
    assert svg.count("data-system=") == 4
    # delta is a parallel copy of beta: same chord multiset, offset stroke
    import re
    groups = re.findall(r'<g stroke=.*?data-system="(\w+)">(.*?)</g>',
                        svg, re.S)
    chords = {label: re.findall(r'points="([^"]+)"', body)
              for label, body in groups}
    assert len(chords["delta"]) == len(chords["beta"])
    assert chords["delta"] != chords["beta"]  # inset separates the copies


def test_readme_pipeline_via_shell(tmp_path):
    cmd = (f"{sys.executable} -m multisect construct lens --p 2 --q 1 | "
           f"{sys.executable} -m multisect construct bisect | "
           f"{sys.executable} -m multisect validate")
    # The children run in tmp_path, where a relative PYTHONPATH or an
    # uninstalled checkout would not resolve: point them at this package.
    env = dict(os.environ)
    package_root = str(Path(multisect.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(["sh", "-c", cmd], capture_output=True, text=True,
                          cwd=str(tmp_path), env=env)
    assert proc.returncode == 0, proc.stderr
    assert "all-verified: true" in proc.stdout


def test_genus_zero_sphere_pipeline():
    from multisect.constructions import sphere_bundle_sum_diagram
    b = bisection_from_heegaard(sphere_bundle_sum_diagram(0))
    assert b.surface.genus == 0
    assert validate(b).ok
    d4 = double_bisection(b)
    assert validate(d4).ok
    assert abelianization(pi1_of_diagram(d4)).free_rank == 0


def test_no_module_reads_the_environment():
    package = Path(multisect.__file__).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        for name in ("environ", "getenv"):
            assert name not in text, f"{path.name} mentions {name}"
