"""Benchmark of the multisect CLI pipelines, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload product-genus --seed 1 --seconds 40 --trace 0

One process and one thread.  Every stage of a pass is one in-process call
``multisect.cli.main(argv)`` reading and writing files in a work directory
under ``.perfbench/``; the package is imported from ``src/``.  Stages run
back to back with a garbage collection between them (outside the timed
region), which stands in for the fresh interpreter each shell stage of a
pipeline would get.  Passes repeat until the next one would end after
``--seconds``, each after its own set-up; every timing is a median over
the passes (or set-ups) of the run, and is adjusted for the host's speed
at that moment by the probe described at ``PROBE_LOOPS``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (at least one of each) and reports per-layer
metrics from the traced ones, as per-pass means, plus the tracing
overhead; see ``tracing.py``.

Every stage's exit code and output are checked inside the loop, each
output's sha256 must be the same in every pass (traced or not), and after
the loop every emitted HD/MSD file must survive parse/format bit-exactly.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` and ``failed`` (counted in stages) and
``metrics`` (the metrics ``BENCHMARK.json`` declares for the mode).  The
lines before it give every metric with its unit and the run's metadata;
``.perfbench/results/`` keeps the same as JSON, ``.perfbench/spans/`` the
spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"

# The shared host's speed drifts by about 15% over seconds, and a plain
# Python loop slows down with it (correlation 0.97 between run medians).
# Every timed region is therefore scaled by probes of that loop run just
# before and just after it: adjusted = wall * PROBE_REFERENCE_S / (mean of
# the two probes).  Over ten runs per workload this cut the spread of the
# pass time from 10-16% to 3.5-6%; the raw wall times are kept as well.
PROBE_LOOPS = 200_000
PROBE_REFERENCE_S = 0.015  # the probe's typical time on the baseline host


@dataclass
class PassResult:
    traced: bool
    stage_seconds: list[float] = field(default_factory=list)  # adjusted
    stage_wall: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)  # one more than stages
    failures: list[str] = field(default_factory=list)
    wall: float = 0.0


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    start = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return perf_counter() - start


# ---------------------------------------------------------------------------
# set-up


def import_package():
    """Import ``multisect`` from scratch, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "multisect" or n.startswith("multisect.")]:
        del sys.modules[name]
    package = importlib.import_module("multisect")
    return package, importlib.import_module("multisect.cli")


def set_up(plan: workloads.Plan, workdir: Path):
    """Import the package, write the workload's inputs and make one
    throwaway CLI call, so lazy first-call work is not charged to a pass."""
    os.chdir(ROOT)
    shutil.rmtree(workdir, ignore_errors=True)
    gc.collect()  # garbage of the previous set-up is not this one's cost
    start = perf_counter()
    package, cli = import_package()
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    workloads.make_inputs(package, plan, workdir)
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main(["construct", "lens", "--p", "5", "--q", "1", "-o", "warmup.hd"])
    return package, cli, perf_counter() - start


# ---------------------------------------------------------------------------
# stages and passes


def check_output(stage: workloads.Stage, code) -> tuple[str | None, str | None]:
    """(failure, sha256) of a finished stage."""
    if code != stage.exit_code:
        return f"exit code {code}, expected {stage.exit_code}", None
    try:
        data = Path(stage.output).read_bytes()
    except OSError as exc:
        return f"no output: {type(exc).__name__}", None
    digest = hashlib.sha256(data).hexdigest()
    text = data.decode("utf-8", errors="replace")
    lines = text.splitlines()
    missing = [ln for ln in stage.lines if ln not in lines]
    if missing:
        return f"output lacks {missing[0]!r}", digest
    if stage.groups is not None:
        groups = tuple(ln for ln in lines if ln.startswith("group:"))
        if groups != stage.groups:
            return f"group lines {groups!r}", digest
    if not text.startswith(stage.prefix):
        return f"output does not start with {stage.prefix!r}", digest
    return None, digest


def run_stage(cli, stage: workloads.Stage) -> tuple[float, object]:
    """Wall seconds and exit code (or the exception type name) of one CLI
    call; a stage that raises is recorded, not propagated."""
    sink = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
            code = cli.main(list(stage.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the stage failed; the run carries on
        code = f"raised {type(exc).__name__}"
    return perf_counter() - start, code


def run_pass(cli, plan: workloads.Plan, digests: dict[int, str],
             tracer: Tracer | None, number: int) -> PassResult:
    result = PassResult(traced=tracer is not None)
    start = perf_counter()
    gc.collect()
    result.probes.append(probe())
    for k, stage in enumerate(plan.stages):
        if tracer is not None:
            tracer.begin_stage(f"pass{number}:{stage.label}")
        seconds, code = run_stage(cli, stage)
        gc.collect()
        result.probes.append(probe())
        scale = 2 * PROBE_REFERENCE_S / (result.probes[-2] + result.probes[-1])
        if tracer is not None:
            tracer.end_stage(scale)
        result.stage_wall.append(seconds)
        result.stage_seconds.append(seconds * scale)
        failure, digest = check_output(stage, code)
        if failure is None and digests.setdefault(k, digest) != digest:
            failure = "output differs from the first pass"
        if failure is not None:
            result.failures.append(f"pass {number} {stage.label}: {failure}")
    result.wall = perf_counter() - start
    return result


def round_trip_failures(package, workdir: Path) -> list[str]:
    """HD/MSD files whose parse/format round trip is not bit-exact."""
    failures = []
    formats = {".hd": (package.parse_heegaard, package.format_heegaard),
               ".msd": (package.parse_diagram, package.format_diagram)}
    for path in sorted(workdir.iterdir()):
        if path.suffix not in formats:
            continue
        parse, fmt = formats[path.suffix]
        text = path.read_text(encoding="utf-8")
        try:
            if fmt(parse(text)) != text:
                failures.append(f"round trip of {path.name} is not bit-exact")
        except ValueError as exc:
            failures.append(f"{path.name} does not parse: {exc}")
    return failures


# ---------------------------------------------------------------------------
# metrics


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def chain_seconds(plan, result: PassResult, chain: str) -> float:
    return sum(t for s, t in zip(plan.stages, result.stage_seconds) if s.chain == chain)


def verb_seconds(plan, result: PassResult, verbs) -> float:
    return sum(t for s, t in zip(plan.stages, result.stage_seconds) if s.verb in verbs)


def end_to_end(workload: str, plan, passes: list[PassResult],
               setups: list[float]) -> dict[str, float]:
    small, large = plan.growth
    # the small runs bracket the large one within a pass, so the ratio is
    # taken per pass, where a drift in the host's speed cancels
    growth = median([chain_seconds(plan, p, large) * plan.small_reps
                     / chain_seconds(plan, p, small) for p in passes])
    values = {
        "setup_s": median(setups),
        "pass_s": median([sum(p.stage_seconds) for p in passes]),
        "report_s": median([verb_seconds(plan, p, workloads.REPORT_VERBS)
                            for p in passes]),
        "growth_ratio": growth,
        "construct_s": median([verb_seconds(plan, p, ("construct",)) for p in passes]),
    }
    for verb in workloads.REPORT_VERBS:
        values[f"{verb}_s"] = median([verb_seconds(plan, p, (verb,)) for p in passes])
    if workload == "product-genus":
        values["genus_scaling_exp"] = math.log(growth) / math.log(40 / 16)
    if workload == "nielsen-search":
        values["distinguish_bound_growth"] = growth
    return values


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_yield", "_growth", "_exp", "_frac")):
        return "ratio"
    return "count"


def per_layer(tracer: Tracer, traced: list[PassResult],
              untraced: list[PassResult]) -> dict[str, float]:
    n = len(traced)
    values = {}
    for k, name in enumerate(tracer.names):
        values[f"{name}.calls"] = tracer.calls[k] / n
        values[f"{name}.s"] = tracer.inclusive[k] / n
        values[f"{name}.self_s"] = tracer.self_time[k] / n
    for name, count in tracer.counters.items():
        values[name] = count / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    q = "presentations.enumerate_finite_abelian_quotients"
    values["presentations.quotient_yield"] = ratio(values[q + ".surjections"],
                                                   values[q + ".candidates"])
    values["diagrams.validate.verified_ratio"] = ratio(
        values["diagrams.validate.verified"], values["diagrams.validate.pairs"])
    values["nielsen.distinguish.decided_ratio"] = ratio(
        values["nielsen.distinguish.decided"], values["nielsen.distinguish.calls"])
    values["trace.overhead_s"] = (median([sum(p.stage_seconds) for p in traced])
                                  - median([sum(p.stage_seconds) for p in untraced]))
    return values


def top_layers(tracer: Tracer) -> list[tuple[str, float]]:
    """Modules ranked by the self time of their traced functions."""
    by_module: dict[str, float] = {}
    for name, seconds in zip(tracer.names, tracer.self_time):
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + seconds
    return sorted(by_module.items(), key=lambda item: -item[1])


# ---------------------------------------------------------------------------
# metadata


def git_sha() -> str | None:
    """HEAD of the repository, read from .git without running git; None
    in a checkout that is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which names the code measured
    where no git metadata is available."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args, bound_env: str | None) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "MULTISECT_BOUND": "unset" if bound_env is None
        else f"unset by the benchmark (was {bound_env!r})",
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = declared_metrics(args.trace)
    if not (ROOT / "src" / "multisect").is_dir():
        print(f"error: no multisect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # quotient and orbit caps read MULTISECT_BOUND; every commit is
    # measured with the built-in default
    bound_env = os.environ.pop("MULTISECT_BOUND", None)

    plan = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    workdir = STATE / f"work-{os.getpid()}"
    home = os.getcwd()
    tracer = Tracer() if args.trace else None
    passes: list[PassResult] = []
    setups: list[float] = []
    digests: dict[int, str] = {}
    try:
        start = perf_counter()
        last = {False: 0.0, True: 0.0}
        while True:
            # a set-up before every pass spreads the set-up samples over
            # the run instead of timing them all in one moment
            before = probe()
            package, cli, seconds = set_up(plan, workdir)
            setups.append(seconds * 2 * PROBE_REFERENCE_S / (before + probe()))
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install(package)
            try:
                result = run_pass(cli, plan, digests, tracer if traced else None,
                                  len(passes) + 1)
            finally:
                if traced:
                    tracer.uninstall()
            passes.append(result)
            last[traced] = result.wall
            if tracer is not None and len(passes) < 2:
                continue
            next_traced = tracer is not None and len(passes) % 2 == 1
            if perf_counter() - start + last[next_traced] > args.seconds:
                break
        round_trip = round_trip_failures(package, workdir)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    failures = [f for p in passes for f in p.failures] + round_trip
    attempted = sum(len(p.stage_seconds) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    values = end_to_end(args.workload, plan, untraced, setups)
    values["pass_wall_s"] = median([sum(p.stage_wall) for p in untraced])
    values["probe_s"] = median([t for p in passes for t in p.probes])
    values["failed_frac"] = failed / attempted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = []
    if tracer is not None:
        values.update(per_layer(tracer, traced_passes, untraced))
        layers = top_layers(tracer)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    meta = metadata(args, bound_env)
    record = {
        "meta": meta, "metrics": metrics, "values": values,
        "passes": {"untraced": len(untraced), "traced": len(traced_passes)},
        "stage_seconds": [[s.label, [p.stage_seconds[k] for p in untraced]]
                          for k, s in enumerate(plan.stages)],
        "stage_wall": [[s.label, [p.stage_wall[k] for p in untraced]]
                       for k, s in enumerate(plan.stages)],
        "probes": [p.probes for p in passes],
        "setup_seconds": setups, "failures": failures,
        "top_layers_by_self_s": layers, "growth": plan.growth_note,
    }
    out = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        spans = STATE / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans)

    print(f"perfbench {args.workload} seed {args.seed}: {len(untraced)} untraced "
          f"and {len(traced_passes)} traced passes, {attempted} stages, {failed} failed")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in values.items():
        print(f"  {name:<64} {value:>14.6f} {unit_of(name)}")
    print(f"  growth_ratio is {plan.growth_note}")
    if layers:
        print("top layers by self time: " + ", ".join(
            f"{module} {seconds / len(traced_passes):.4f} s" for module, seconds in layers[:3]))
        print(f"spans: {len(tracer.span_start)} written to {spans.relative_to(ROOT)}")
    for failure in failures:
        print("FAILED " + failure)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
