"""The three benchmark workloads, as CLI stages with expected outputs.

A workload is fixed up to its seed.  The seed picks the order in which
the four units mod 5 appear as the lens-space summands lens(5, q) of the
genus-4 base diagram, and the order of the independent report stages.
Every expected output follows from the stage arguments alone, whatever
the seed: the base is always one lens(5, q) for each unit q, so every
diagram built from it has pi1 = H1 = (Z/5)^g.

Using each unit exactly once keeps the work of a pass the same for every
seed (a whole chain of lens(5, 1) summands costs about a quarter less
than one of lens(5, 2)), so seeds vary the inputs without varying how
much there is to do.  Each workload runs a small and a large case, whose
time ratio is its growth metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REPORT_VERBS = ("validate", "pi1", "homology", "render", "distinguish")

# The small case of each growth ratio runs several times per pass: alone
# it lasts under a second, too short to time steadily on a shared machine.
SMALL_REPS = 3


@dataclass(frozen=True)
class Stage:
    """One ``multisect`` CLI call and what its output must look like."""

    verb: str  # "construct" or one of REPORT_VERBS
    argv: tuple[str, ...]
    output: str  # the file the call writes, relative to the work directory
    chain: str  # the part of the pass this stage belongs to
    exit_code: int = 0
    lines: tuple[str, ...] = ()  # lines the output must contain
    groups: tuple[str, ...] | None = None  # the exact "group:" lines, in order
    prefix: str = ""  # what the output must start with

    @property
    def label(self) -> str:
        return f"{self.chain}:{' '.join(self.argv[:2])}"


@dataclass(frozen=True)
class Plan:
    """A workload instantiated for one seed."""

    stages: tuple[Stage, ...]
    inputs: dict[str, Callable[[object], str]]  # file name -> text maker
    growth: tuple[str, str]  # (small, large) chain names
    growth_note: str
    small_reps: int  # runs of the small chain per pass


def _z5(g: int) -> str:
    return "group: " + " + ".join(["Z/5"] * g)


def _reports(rng: random.Random, chain: str, diagram: str, g: int) -> list[Stage]:
    """The four report verbs on one closed diagram, in seeded order."""
    stages = [
        Stage("validate", ("validate", "-i", diagram, "-o", f"{chain}-validate.txt"),
              f"{chain}-validate.txt", chain, lines=("all-verified: true",)),
        Stage("pi1", ("pi1", "-i", diagram, "-o", f"{chain}-pi1.txt"),
              f"{chain}-pi1.txt", chain, groups=(_z5(g),)),
        Stage("homology", ("homology", "-i", diagram, "-o", f"{chain}-homology.txt"),
              f"{chain}-homology.txt", chain, groups=(_z5(g),)),
        Stage("render", ("render", "-i", diagram, "--svg", f"{chain}.svg"),
              f"{chain}.svg", chain, prefix="<svg"),
    ]
    rng.shuffle(stages)
    return stages


def _construct(chain: str, verb: str, src: str, dst: str, *extra: str) -> Stage:
    return Stage("construct", ("construct", verb, *extra, "-i", src, "-o", dst),
                 dst, chain)


def _base_order(rng: random.Random) -> list[int]:
    units = [1, 2, 3, 4]
    rng.shuffle(units)
    return units


def _bracket(small: list[list[Stage]], first: list[Stage],
             second: list[Stage]) -> tuple[Stage, ...]:
    """The small-case runs before, between and after the two halves of the
    large case: the machine's speed drifts within a pass, and spreading
    the small runs over the large one lets the drift cancel in the ratio."""
    before, between, after = small
    return tuple(before + first + between + second + after)


def _product_chain(rng: random.Random, chain: str,
                   copies: int) -> tuple[list[Stage], list[Stage]]:
    construct = [
        _construct(chain, "sum", "base.hd", f"{chain}-sum.hd", "--copies", str(copies)),
        _construct(chain, "bisect", f"{chain}-sum.hd", f"{chain}-bisect.msd"),
        _construct(chain, "double", f"{chain}-bisect.msd", f"{chain}-double.msd"),
        _construct(chain, "insert", f"{chain}-double.msd", f"{chain}-insert.msd",
                   "--position", "2", "--count", "2"),
    ]
    return construct, _reports(rng, chain, f"{chain}-insert.msd", 4 * copies)


def product_genus(rng: random.Random) -> Plan:
    """lens(5, q) summands -> sum -> bisect -> double -> insert -> reports,
    at central genus 16 (sum of 8) and 40 (sum of 20)."""
    order = _base_order(rng)
    small = [sum(_product_chain(rng, "g16", 2), []) for _ in range(SMALL_REPS)]
    stages = _bracket(small, *_product_chain(rng, "g40", 5))
    return Plan(stages, {"base.hd": _lens_sum(5, order)}, ("g16", "g40"),
                "pass time at central genus 40 / at central genus 16", SMALL_REPS)


def _glue_chain(rng: random.Random, chain: str,
                copies: int) -> tuple[list[Stage], list[Stage]]:
    construct = [
        _construct(chain, "glue", "base.hd", f"{chain}-glue.msd",
                   "--copies", str(copies), "--cap", "auto"),
        _construct(chain, "merge", f"{chain}-glue.msd", f"{chain}-merge.msd",
                   "--interface", "3"),
    ]
    return construct, _reports(rng, chain, f"{chain}-merge.msd", 4)


def glue_chain(rng: random.Random) -> Plan:
    """Genus-4 base -> glue copies with an automatic cap -> merge across
    interface 3 -> reports; 12 copies (25 systems) and 4 copies (9)."""
    order = _base_order(rng)
    small = [sum(_glue_chain(rng, "c4", 4), []) for _ in range(SMALL_REPS)]
    stages = _bracket(small, *_glue_chain(rng, "c12", 12))
    return Plan(stages, {"base.hd": _lens_sum(5, order)}, ("c4", "c12"),
                "pass time of the 12-copy chain / the 4-copy chain", SMALL_REPS)


def _distinguish(chain: str, argv: tuple[str, ...], verdict: str) -> Stage:
    code = {"distinct": 0, "same_orbit": 10, "inconclusive": 20}[verdict]
    out = f"{chain}.txt"
    return Stage("distinguish", ("distinguish", *argv, "-o", out), out, chain,
                 code, (f"verdict: {verdict}", "replay-verified: true",
                        f"exit-code: {code}"))


def nielsen_search(rng: random.Random) -> Plan:
    """Tuple comparisons in finite quotients: presentation mode and the
    flip check of two lens-space bisections."""
    pair = ("--presentation", "z5.txt", "--tuple1", "g1, g2")
    triple = ("--presentation", "z3.txt", "--tuple1", "g1, g2, g3",
              "--tuple2", "g1, g2, g3 g3")
    small = _distinguish("z3-b10", triple + ("--bound", "10"), "inconclusive")
    large = _distinguish("z3-b30", triple + ("--bound", "30"), "inconclusive")
    groups = [
        # a single large stage: the small case runs right before and after it
        [small, large, small],
        [Stage("construct", ("construct", "lens", "--p", "5", "--q", "2", "-o", "l52.hd"),
               "l52.hd", "flip52"),
         _construct("flip52", "bisect", "l52.hd", "l52.msd"),
         _distinguish("flip52", ("--flip", "--diagram", "l52.msd"), "distinct")],
        [_construct("flip77", "bisect", "l72-l73.hd", "l72-l73.msd"),
         _distinguish("flip77", ("--flip", "--diagram", "l72-l73.msd"), "inconclusive")],
        [_distinguish("z5-sq", pair + ("--tuple2", "g1, g2 g2"), "distinct")],
        [_distinguish("z5-4th", pair + ("--tuple2", "g1, g2 g2 g2 g2"), "inconclusive")],
    ]
    rng.shuffle(groups)
    stages = tuple(s for group in groups for s in group)
    inputs = {"z5.txt": _abelian_presentation(2, 5),
              "z3.txt": _abelian_presentation(3, 3),
              "l72-l73.hd": _lens_sum(7, [2, 3])}
    return Plan(stages, inputs, ("z3-b10", "z3-b30"),
                "rank-3 distinguish time at --bound 30 / at --bound 10", 2)


def _relator(letters: list[int]) -> str:
    return " ".join(f"g{lt}" if lt > 0 else f"g{-lt}^-1" for lt in letters)


def _abelian_presentation(rank: int, order: int) -> Callable[[object], str]:
    """(Z/order)^rank: commutators of all generator pairs, then powers."""
    lines = [f"gens {rank}"]
    for a in range(1, rank + 1):
        for b in range(a + 1, rank + 1):
            lines.append(_relator([a, b, -a, -b]))
    lines += [_relator([a] * order) for a in range(1, rank + 1)]
    text = "\n".join(lines) + "\n"
    return lambda package: text


def _lens_sum(p: int, units: list[int]) -> Callable[[object], str]:
    """lens(p, q1) # lens(p, q2) # ..., written as an HD file."""
    def make(package) -> str:
        diagram = package.lens_diagram(p, units[0])
        for q in units[1:]:
            diagram = package.connected_sum(diagram, package.lens_diagram(p, q))
        return package.format_heegaard(diagram)
    return make


def make_inputs(package, plan: Plan, workdir: Path) -> None:
    """Write the plan's input files with the library itself."""
    for name, make in plan.inputs.items():
        (workdir / name).write_text(make(package), encoding="utf-8")


WORKLOADS = {
    "product-genus": product_genus,
    "glue-chain": glue_chain,
    "nielsen-search": nielsen_search,
}
