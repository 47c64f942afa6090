"""End-to-end benchmark of the graphbimod CLI over three graph families.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all

Each workload is a closed loop with one client: a fixed list of CLI
cases runs one after another, each in its own child process
(bench/child.py) under an address-space limit and a timeout, never more
than one child at a time.  Graph files are generated from --seed into a
scratch directory inside the checkout; the program receives only those
files.  A pass runs the whole list; passes repeat while another one fits
in --seconds (at least one pass).  Every report is checked outside-in
against exact facts about its graph (bench/checks.py).

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 one untraced pass is followed by traced passes and the last
line carries the per-layer metrics.  Earlier lines name every metric with
its unit and sample count, the environment, and each failed case.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass

import graphs
from checks import check_report, exact_levels

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

AS_LIMIT = 1536 * 2**20
CASE_TIMEOUT = 60.0
RUN_LIMIT = 165.0  # the whole run, every pass included, ends well inside 180 s

SPEC = os.path.join(ROOT, "BENCHMARK.json")


def load_spec() -> dict:
    """Workload reasons and metric units by name, as BENCHMARK.json declares them."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


@dataclass
class Case:
    name: str
    command: str
    graph: str
    param: int  # depth for index/kasparov, degree for residue, 0 for kms
    options: list[str]
    known_defect: str | None = None


@dataclass
class Result:
    case: Case
    wall: float
    setup: float
    compute: float
    rss_mb: float
    problems: list[str]
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


# -- workloads -----------------------------------------------------------------


def build_workload(name: str, seed: int, workdir: str) -> tuple[list[Case], dict[str, dict]]:
    """Generate the graphs of a workload and list its cases, in run order.

    Why each workload exists is stated in BENCHMARK.json and bench/README.md.
    """
    rng = random.Random(f"{name}/{seed}")
    docs: dict[str, dict] = {}
    if name == "primitive-kasparov":
        for n in (2, 3, 4):
            docs[f"O{n}"] = graphs.full_shift(n, rng)
        docs["golden"] = graphs.golden_mean(rng)
        docs["prim6"] = graphs.random_graph(6, 2, rng, primitive=True)
        cases = [
            Case("kasparov-O2-d3", "kasparov", "O2", 3, ["--depth", "3"]),
            Case("kasparov-O3-d2", "kasparov", "O3", 2, ["--depth", "2"]),
            Case("kasparov-O4-d1", "kasparov", "O4", 1, ["--depth", "1"]),
            Case("kasparov-golden-d3", "kasparov", "golden", 3, ["--depth", "3"]),
            Case("kasparov-prim6-d1", "kasparov", "prim6", 1, ["--depth", "1"]),
            Case("kasparov-O3-d3", "kasparov", "O3", 3, ["--depth", "3"],
                 "ROADMAP 4c: dense basis at depth 4 exceeds the memory limit"),
        ]
    elif name == "reducible-residue":
        docs["triangular"] = graphs.reducible_chain([1, 1], rng)
        docs["chain3"] = graphs.reducible_chain([1, 1, 1], rng)
        docs["gapchain3"] = graphs.reducible_chain([2, 1, 2], rng)
        cases = [
            Case("residue-triangular-n3", "residue", "triangular", 3, ["--target", "3", "--kmax", "2000"]),
            Case("residue-chain3-n2", "residue", "chain3", 2, ["--target", "2", "--kmax", "2000"]),
            Case("residue-gapchain3-n1", "residue", "gapchain3", 1, ["--target", "1", "--kmax", "2000"]),
            Case("kasparov-triangular-d2", "kasparov", "triangular", 2, ["--depth", "2"]),
            Case("kasparov-chain3-d2", "kasparov", "chain3", 2, ["--depth", "2"]),
            Case("kasparov-gapchain3-d2", "kasparov", "gapchain3", 2, ["--depth", "2"]),
        ]
    elif name == "random-kms":
        for i in (1, 2, 3):
            docs[f"rand{i}"] = graphs.random_graph(6, 2, rng)
        docs["O3"] = graphs.full_shift(3, rng)
        # three edges of weight >= 1 per source put the Perron root at 3 or
        # more, past the 2.76 at which depth-700 levels overflow a double
        docs["wrand6"] = graphs.random_graph(6, 3, rng, max_weight=3)
        if max(exact_levels(docs["wrand6"], 700)[-1]) <= sys.float_info.max:
            raise AssertionError("B^700 1 must exceed the largest double")
        pair_seed = str(rng.randrange(2**31))
        kms = ["--pairs", "20000", "--seed", pair_seed]
        cases = [
            Case("kms-rand1-l6", "kms", "rand1", 0, kms + ["--length", "6"]),
            Case("kms-rand2-l6", "kms", "rand2", 0, kms + ["--length", "6"]),
            Case("kms-rand3-l6", "kms", "rand3", 0, kms + ["--length", "6"]),
            Case("kms-O3-l8", "kms", "O3", 0, kms + ["--length", "8"]),
            Case("index-wrand6-d700", "index", "wrand6", 700, ["--depth", "700"],
                 "ROADMAP 4b: float levels overflow to inf"),
            Case("index-O3-d40", "index", "O3", 40, ["--depth", "40"],
                 "ROADMAP 4b: absolute tolerance applied above 2^53"),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    for key, doc in docs.items():
        graphs.write_graph(doc, os.path.join(workdir, f"{key}.json"))
    return cases, docs


# -- one case --------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # set iteration order, so counts repeat exactly
    # on a small shared machine a two-thread eigh waits on whichever core is
    # busy elsewhere; one thread made a case's time several times steadier
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_case(case: Case, doc: dict, workdir: str, tag: str, trace: bool, deadline: float) -> Result:
    prefix = os.path.join(workdir, tag)
    graph_path = os.path.join(workdir, f"{case.graph}.json")
    argv = [sys.executable, CHILD, prefix, "1" if trace else "0", str(AS_LIMIT), "--",
            case.command, graph_path, *case.options]
    timeout = min(CASE_TIMEOUT, deadline - time.monotonic())
    if timeout <= 0:
        return Result(case, CASE_TIMEOUT, 0.0, CASE_TIMEOUT, 0.0, ["not started: run time limit reached"])
    killed = threading.Event()
    with open(prefix + ".out", "wb") as out, open(prefix + ".err", "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=_child_env(), cwd=ROOT)

        def kill() -> None:
            # os.kill, not proc.kill: Popen.poll could reap the child under wait4
            killed.set()
            with contextlib.suppress(ProcessLookupError):
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = exited - spawn
    rss_mb = usage.ru_maxrss / 1024.0
    marks = {}
    trace_doc = None
    try:
        with open(prefix + ".json", encoding="utf-8") as fh:
            child = json.load(fh)
        marks = child["marks"]
        if trace:
            trace_doc = _load_trace(prefix, child)
    except (OSError, ValueError, KeyError):
        pass
    setup_end = marks.get("setup_end", marks.get("end", exited))
    if killed.is_set():
        return Result(case, wall, setup_end - spawn, timeout, rss_mb, [f"killed at the {timeout:.0f} s timeout"], trace_doc)
    compute = marks.get("emit_end", marks.get("end", exited)) - setup_end
    try:
        with open(prefix + ".out", encoding="utf-8") as fh:
            report = json.load(fh)
    except ValueError:
        report = None
    if not isinstance(report, dict):
        report = None
    if proc.returncode != 0:
        with open(prefix + ".err", encoding="utf-8", errors="replace") as fh:
            lines = fh.read().strip().splitlines() or [""]
        why = (report or {}).get("failures") or [lines[-1]]
        problems = [f"exit {proc.returncode}: {str(why[0])[:200]}"]
    elif report is None:
        problems = ["exit 0 without a JSON report"]
    else:
        problems = check_report(case.command, doc, case.param, report)
    return Result(case, wall, setup_end - spawn, compute, rss_mb, problems, trace_doc)


def _load_trace(prefix: str, child: dict) -> dict:
    """Per-name calls, total and self seconds from the child's raw spans."""
    names = child["names"]
    flat = array("d")
    with open(prefix + ".spans", "rb") as fh:
        flat.frombytes(fh.read())
    count = len(flat) // 4
    duration = [flat[4 * i + 3] - flat[4 * i + 2] for i in range(count)]
    child_time = [0.0] * count
    for i in range(count):
        parent = int(flat[4 * i + 1])
        if parent >= 0:
            child_time[parent] += duration[i]
    per_name: dict[str, list[float]] = {}
    for i in range(count):
        agg = per_name.setdefault(names[int(flat[4 * i])], [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration[i]
        agg[2] += duration[i] - child_time[i]
    return {
        "spans": {n: {"calls": a[0], "s": a[1], "self_s": a[2]} for n, a in per_name.items()},
        "counts": child.get("counts", {}),
        "maxima": child.get("maxima", {}),
    }


def run_pass(cases, docs, workdir, pass_no, trace, deadline) -> list[Result]:
    out = []
    for case in cases:
        tag = f"p{pass_no}-{case.name}{'-t' if trace else ''}"
        out.append(run_case(case, docs[case.graph], workdir, tag, trace, deadline))
    return out


# -- metrics ---------------------------------------------------------------------

def case_medians(passes: list[list[Result]], attr: str) -> list[float]:
    """Each case's median over the passes of one Result field.

    A median per case, not an aggregate per pass, so that one case caught
    by a slow moment of a shared machine moves no metric; the maximum of
    a pass picks exactly those moments.
    """
    return [statistics.median(getattr(p[i], attr) for p in passes) for i in range(len(passes[0]))]


def end_to_end(passes: list[list[Result]]) -> tuple[dict, dict]:
    """Metric values and their sample counts over untraced passes."""
    results = [r for p in passes for r in p]
    values = {
        "setup_s": statistics.median(r.setup for r in results),
        "compute_s": sum(case_medians(passes, "compute")),
        "case_s.p50": statistics.median(r.wall for r in results),
        "case_s.max": max(case_medians(passes, "wall")),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "passed_share": sum(not r.failed for r in results) / len(results),
    }
    per_case = ("compute_s", "case_s.max")
    samples = {k: len(passes) if k in per_case else len(results) for k in values}
    return values, samples


def layer_values(results: list[Result], names) -> dict:
    """Per-layer metrics of one traced pass, summed over its cases."""
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    maxima: dict[str, float] = {}
    for r in results:
        if r.trace is None:
            continue
        for name, agg in r.trace["spans"].items():
            tot = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in tot:
                tot[key] += agg[key]
        for key, v in r.trace["counts"].items():
            counts[key] = counts.get(key, 0) + v
        for key, v in r.trace["maxima"].items():
            maxima[key] = max(maxima.get(key, v), v)

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    out = {}
    for name in names:
        if name.startswith("trace."):
            continue
        stem, _, key = name.rpartition(".")
        if name == "cli.cmd.self_s":
            out[name] = sum(a["self_s"] for n, a in spans.items() if n.startswith("cli.cmd_"))
        elif name == "cuntz_pimsner.residue.hit_ratio":
            calls = span("cuntz_pimsner.residue", "calls")
            out[name] = counts.get("cuntz_pimsner.residue.hits", 0) / calls if calls else 0.0
        elif key in ("s", "self_s", "calls"):
            out[name] = span(stem, key)
        else:
            out[name] = maxima.get(name, counts.get(name, 0))
    return out


def per_layer(untraced: list[list[Result]], traced: list[list[Result]], names) -> dict:
    per_pass = [layer_values(p, names) for p in traced]
    out = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    traced_compute = sum(case_medians(traced, "compute"))
    plain_compute = sum(case_medians(untraced, "compute"))
    out["trace.compute_s"] = traced_compute
    out["trace.overhead_s"] = traced_compute - plain_compute
    return out


# -- entry point -----------------------------------------------------------------


def probe_environment() -> dict | None:
    """Import the program once in a child; None when it cannot be run here."""
    if not os.path.isfile(os.path.join(ROOT, "src", "graphbimod", "cli.py")):
        return None
    try:
        proc = subprocess.run([sys.executable, CHILD, "--probe"], capture_output=True, text=True,
                              env=_child_env(), cwd=ROOT, timeout=120)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout)


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float, env: dict,
                 units: dict) -> dict:
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        cases, docs = build_workload(name, seed, workdir)
        start = time.monotonic()
        untraced: list[list[Result]] = []
        traced: list[list[Result]] = []
        while True:
            t0 = time.monotonic()
            if trace and untraced:
                traced.append(run_pass(cases, docs, workdir, len(traced), True, deadline))
            else:
                untraced.append(run_pass(cases, docs, workdir, len(untraced), False, deadline))
            # start another pass only if one more of the same length fits
            last = time.monotonic() - t0
            if trace and not traced:
                continue
            if time.monotonic() - start + last > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    measured = traced if trace else untraced
    results = [r for p in measured for r in p]
    failed = [r for r in results if r.failed]
    out = {
        "workload": name,
        "correct": all(r.case.known_defect for r in failed),
        "attempted": len(results),
        "failed": len(failed),
        "failures": sorted({f"{r.case.name}: {r.problems[0]}" + (f" [known: {r.case.known_defect}]" if r.case.known_defect else "")
                            for r in failed}),
        "passes": len(measured),
        "first_pass": measured[0],
    }
    if trace:
        values = per_layer(untraced, traced, units)
        samples = {k: len(traced) for k in units}
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace-{name}-seed{seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "passes": [[{"case": r.case.name, **(r.trace or {})} for r in p]
                                                      for p in traced]}, fh, indent=1)
    else:
        values, samples = end_to_end(untraced)
    out["metrics"] = {k: (values[k], units[k], samples[k]) for k in units}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = load_spec()
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = probe_environment()
    if env is None:
        print("error: graphbimod is not importable from src/ in this checkout", file=sys.stderr)
        return 2
    print("environment " + json.dumps(env, sort_keys=True))
    names = sorted(spec["workloads"]) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT * len(names)
    units = spec["per_layer"] if args.trace else spec["end_to_end"]
    outs = [run_workload(n, args.seed, args.seconds, bool(args.trace), deadline, env, units) for n in names]
    metrics = {}
    for out in outs:
        print(f"workload {out['workload']}: {out['passes']} passes, {out['attempted']} cases, "
              f"{out['failed']} failed  ({spec['workloads'][out['workload']]})")
        for line in out["failures"]:
            print(f"  failed {line}")
        for r in out["first_pass"]:
            print(f"  case {r.case.name}: wall {r.wall:.3f} s, setup {r.setup:.3f} s, "
                  f"compute {r.compute:.3f} s, rss {r.rss_mb:.0f} MB, {'FAILED' if r.failed else 'ok'}")
        for key, (value, unit, count) in out["metrics"].items():
            print(f"  {key} = {value:.6g} {unit}  (n={count})")
            label = key if len(outs) == 1 else f"{out['workload']}/{key}"
            metrics[label] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(o["correct"] for o in outs),
        "attempted": sum(o["attempted"] for o in outs),
        "failed": sum(o["failed"] for o in outs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
