"""Command line front end: graph JSON in, deterministic reports out.

Subcommands: index (k-step index levels), residue (limit coefficients),
kasparov (Gram ranks and positivity, commutator checks), kms (invariant
traces and their exact descent certificate).  Reports are byte-identical
across runs with the same inputs; timing data is added only on request.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

# the other modules are imported by the subcommands that use them, before
# the graph is read, so that each route compiles and runs only its own code
from .bimodule import Edge, GraphBimodule, GraphStructureError, beta_is_central

SCHEMA_VERSION = 1

# residue --target N lists every path of length N, one report row each, and
# its time and memory grow with their number and length (2-CPU machine, one
# run each: O2 at --target 16, 65,536 rows, 5.6 s and 320 MiB; golden mean
# at --target 22, 75,025 rows of 22 edges, 8.5 s and 413 MiB), so this many
# keep a run under about 6 s and 350 MiB
RESIDUE_MAX_ROWS = 2**16

# index writes a level past the double range as its exact digits, and
# CPython turns no int of more than 4300 digits into a string (the default
# of sys.get_int_max_str_digits); one vertex with ten loops passes that at
# --depth 4300
INDEX_MAX_DIGITS = 4300
_DIGITS_CAP = 10**INDEX_MAX_DIGITS


class CliError(Exception):
    pass


def load_graph(path: str) -> GraphBimodule:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    if not isinstance(doc, dict):
        raise CliError(f"{path}: top level must be an object")
    verts = doc.get("vertices")
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise CliError(f"{path}: 'vertices' must be a list of strings")
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise CliError(f"{path}: 'edges' must be a list")
    edges = []
    for i, item in enumerate(raw_edges):
        if not isinstance(item, dict):
            raise CliError(f"{path}: edges[{i}] must be an object")
        fields = {}
        for name, keys in (("id", ("id",)), ("r", ("r", "range")), ("s", ("s", "source"))):
            present = [k for k in keys if k in item]
            if not present:
                raise CliError(f"{path}: edges[{i}] missing key '{keys[0]}'")
            value = item[present[0]]
            if not isinstance(value, str):
                raise CliError(f"{path}: edges[{i}].{present[0]} must be a string")
            fields[name] = value
        weight = item.get("weight", 1.0)
        if not isinstance(weight, (int, float)) or isinstance(weight, bool):
            raise CliError(f"{path}: edges[{i}].weight must be a number")
        try:
            weight = float(weight)
        except OverflowError:
            raise CliError(f"{path}: edges[{i}].weight is past the double range")
        try:
            edges.append(Edge(fields["id"], fields["r"], fields["s"], weight))
        except ValueError as exc:
            raise CliError(f"{path}: edges[{i}]: {exc}")
    try:
        return GraphBimodule(verts, edges)
    except GraphStructureError as exc:
        raise CliError(f"{path}: {exc}")


def _leaf(obj):
    """A report leaf as JSON holds it: a Fraction or non-finite float as a string."""
    if isinstance(obj, float) and obj - obj != 0:
        return "nan" if obj != obj else "inf" if obj > 0 else "-inf"
    return str(obj) if isinstance(obj, Fraction) else obj


def _json(obj, nl: str, out: list) -> None:
    """Append obj as json.dumps(obj, indent=2, sort_keys=True) writes it at
    indent nl, with string keys and each leaf through `_leaf`."""
    if isinstance(obj, dict):
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for k, v in sorted({str(k): v for k, v in obj.items()}.items()):
            out.append(f"{sep}{_quote(k)}: ")
            _json(v, inner, out)
            sep = comma
        out.append(nl + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for v in obj:
            out.append(sep)
            _json(v, inner, out)
            sep = comma
        out.append(nl + "]" if obj else "[]")
    else:
        obj = _leaf(obj)
        if isinstance(obj, float):
            out.append(float.__repr__(obj))
        elif isinstance(obj, str):
            out.append(_quote(obj))
        elif obj is None or obj is True or obj is False:
            out.append("null" if obj is None else "true" if obj else "false")
        elif isinstance(obj, int):
            out.append(int.__repr__(obj))
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _flatten(obj, prefix, rows):
    if isinstance(obj, dict):
        for k, v in sorted({str(k): v for k, v in obj.items()}.items()):
            _flatten(v, f"{prefix}.{k}" if prefix else k, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, _leaf(obj)))


def emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        out: list[str] = []
        _json(report, "\n", out)
        out.append("\n")
        sys.stdout.write("".join(out))
    else:
        import csv
        import io

        rows: list[tuple[str, object]] = []
        _flatten(report, "", rows)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([("key", "value"), *rows])
        sys.stdout.write(buf.getvalue())


def _level_value(num: int, den: int, k: int) -> float | dict[str, str]:
    """num / den, an entry of level k, as the nearest float while that is finite.

    Past the double range a JSON number is not portable, so the entry is
    an object holding the exact value as an integer or "p/q" string; there
    the numerator is the longer of the two, and one of more than
    INDEX_MAX_DIGITS digits is refused.
    """
    try:
        return num / den
    except OverflowError:
        g = math.gcd(num, den)
        num, den = num // g, den // g
    if abs(num) >= _DIGITS_CAP:
        raise CliError(
            f"level {k} needs more than {INDEX_MAX_DIGITS} digits, above the limit of "
            f"{INDEX_MAX_DIGITS} digits of an exact level"
        )
    return {"exact": f"{num}/{den}" if den > 1 else str(num)}


def cmd_index(args) -> int:
    from .fock import index_levels

    module = load_graph(args.graph)
    start = time.perf_counter()
    failures: list[str] = []
    central = beta_is_central(module)
    # B^k 1 = A^k 1 / D^k and beta^k = (D beta)^k / D^k
    D = module.denominator
    levels = {}
    kept = []  # the integer levels, for the collapse check
    den = 1
    for k, vec in zip(range(args.depth + 1), index_levels(module)):
        levels[str(k)] = {v: _level_value(x, den, k) for v, x in zip(module.vertices, vec)}
        if central:
            kept.append(vec)
        den *= D
    stages = {"levels": time.perf_counter() - start}
    worst = Fraction(0)
    if central:
        mark = time.perf_counter()
        index = [int(module.index_exact[v] * D) for v in module.vertices]
        power = [1] * len(index)
        den = 1
        for vec in kept:
            # |B^k 1 - beta^k| relative to max(1, |beta^k|), both over D^k
            gap = max(abs(x - p) for x, p in zip(vec, power))
            if gap:
                worst = max(worst, Fraction(gap, max(den, max(power))))
            power = [p * x for p, x in zip(power, index)]
            den *= D
        stages["central_collapse"] = time.perf_counter() - mark
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "index",
        "graph": args.graph,
        "parameters": {"depth": args.depth},
        "vertices": list(module.vertices),
        "edges": [g.id for g in module.edges],
        "index": module.index_float,
        "central": central,
    }
    if central:
        # a central index collapses every level to a plain power, exactly
        report["central_collapse_max_error"] = float(worst)
        if worst:
            failures.append(f"central collapse error {float(worst)} is not zero")
    report["levels"] = levels
    report["failures"] = failures
    if args.timings:
        report["timings"] = {
            "seconds": time.perf_counter() - start,
            "stages": stages,
            "counters": {"depth": args.depth},
        }
    emit(report, args.format)
    return 1 if failures else 0


def _residue_entry(rep, stride: int) -> dict:
    r, s, n = rep.target
    return {
        "target": {"range": r, "source": s, "length": n},
        "value": rep.value,
        "converged": rep.converged,
        "method": rep.method,
        "delta": rep.delta,
        "r_squared": rep.r_squared,
        "k_max": rep.k_max,
        "sample_stride": stride,
        "samples": [list(p) for p in rep.samples],
    }


def cmd_residue(args) -> int:
    from .fock import make_path, path_counts, paths
    from .spectral import GrowthTable, check_kmax, eta_tilde, sample_stride

    module = load_graph(args.graph)
    start = time.perf_counter()
    if re.fullmatch(r"\d+", args.target):
        n = int(args.target)
        check_kmax(args.kmax, n)
        rows = sum(path_counts(module, n)[n].values())
        if rows > RESIDUE_MAX_ROWS:
            raise CliError(
                f"--target {n} needs {rows} paths of length {n}, above the limit of "
                f"{RESIDUE_MAX_ROWS} rows (about 6 s and 350 MiB)"
            )
        pool = paths(module, n)
        if not pool:
            raise CliError(f"no paths of length {n}")
    else:
        ids = [t for t in args.target.split(",") if t]
        try:
            pool = [make_path(module, ids)]
        except (KeyError, ValueError) as exc:
            raise CliError(f"bad target {args.target!r}: {exc}")
        n = len(pool[0])
        check_kmax(args.kmax, n)
    table = GrowthTable(module, args.kmax)
    table.columns  # every class reads its top half: build the levels in this stage
    stages = {"growth_table": time.perf_counter() - start}
    mark = time.perf_counter()
    entries = {}
    for r, s in sorted({(p.r, p.s) for p in pool}):
        rep = eta_tilde(table, (r, s, n), tol=args.tol, force_iterative=args.force_iterative)
        entries[(r, s)] = _residue_entry(rep, sample_stride(n, args.kmax))
    stages["classes"] = time.perf_counter() - mark
    rows = []
    for p in sorted(pool, key=lambda q: q.sort_key()):
        cls = entries[(p.r, p.s)]
        rows.append(
            {
                "path": p.label(),
                "edges": list(p.ids),
                "range": p.r,
                "source": p.s,
                "length": n,
                "value": cls["value"],
                "converged": cls["converged"],
                "method": cls["method"],
                "delta": cls["delta"],
            }
        )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "residue",
        "graph": args.graph,
        "parameters": {
            "target": args.target,
            "kmax": args.kmax,
            "tol": args.tol,
            "force_iterative": args.force_iterative,
        },
        "paths": rows,
        "classes": list(entries.values()),
    }
    if args.timings:
        methods = Counter(cls["method"] for cls in entries.values())
        report["timings"] = {
            "seconds": time.perf_counter() - start,
            "stages": stages,
            "counters": {
                "classes": len(entries),
                "method": dict(methods),
                "level_bits": table.level_bits,
            },
        }
    emit(report, args.format)
    return 0


def cmd_kasparov(args) -> int:
    from .cuntz_pimsner import ConditionalExpectation, ResidueUncertifiedError, gram

    module = load_graph(args.graph)
    start = time.perf_counter()
    failures: list[str] = []
    expectation = ConditionalExpectation(module, args.kmax, args.tol)
    header = {
        "schema_version": SCHEMA_VERSION,
        "command": "kasparov",
        "graph": args.graph,
        "parameters": {"depth": args.depth, "kmax": args.kmax, "tol": args.tol},
    }
    try:
        gdata = gram(module, args.depth, expectation)
    except ResidueUncertifiedError as exc:
        emit({**header, "failures": [str(exc)]}, args.format)
        return 1
    stages = {"gram": time.perf_counter() - start}
    iso_defect = gdata.isometry_defect()
    if min(gdata.psd_min) < -args.tol:
        failures.append(f"gram not positive: min pivot {min(gdata.psd_min)}")
    if iso_defect > args.tol:
        failures.append(f"path block not isometric: defect {iso_defect}")
    commutators = []
    for rep in gdata.commutators:
        commutators.append(
            {
                "edge": rep.edge,
                "ranks": rep.ranks,
                "total_rank": rep.total_rank,
                "predicted": rep.predicted,
                "predicted_total": rep.predicted_total,
                "matches": rep.matches,
            }
        )
        if not rep.matches:
            failures.append(
                f"commutator {rep.edge}: rank {rep.total_rank} != predicted {rep.predicted_total}"
            )
    report = {
        **header,
        "basis_size": gdata.basis_size,
        "gram": {
            "psd_min": {v: m for v, m in zip(gdata.vertex_names, gdata.psd_min)},
            "isometry_defect": iso_defect,
            "ranks": {v: r for v, r in zip(gdata.vertex_names, gdata.gram_ranks)},
        },
        "commutators": commutators,
        "failures": failures,
    }
    if args.timings:
        report["timings"] = {
            "seconds": time.perf_counter() - start,
            "stages": stages,
            "counters": {
                "basis": gdata.basis_size,
                "blocks": gdata.blocks,
                "classes": gdata.classes,
                "level_bits": expectation.table.level_bits,
            },
        }
    emit(report, args.format)
    return 1 if failures else 0


def cmd_kms(args) -> int:
    from .fock import paths
    from .kms import descent_residual, invariant_traces

    module = load_graph(args.graph)
    start = time.perf_counter()
    failures: list[str] = []
    family = invariant_traces(module)
    stages = {"trace_solve": time.perf_counter() - start}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "kms",
        "graph": args.graph,
        "parameters": {},
        "feasible": family.feasible,
        "dimension": family.dimension,
        "generators": [dict(t) for t in family.basis],
    }
    if family.feasible and family.canonical is not None:
        trace = family.canonical
        report["canonical"] = dict(trace.weights)
        report["canonical_float"] = trace.float_weights()
        report["phi_d"] = [
            {"path": p.label(), "length": k, "value": trace.diagonal(p, 1.0)}
            for k in range(3)
            for p in paths(module, k)
        ]
        # the exact certificate: each weight vector is a state (nonnegative,
        # of mass 1) and descends through p_v = sum over r(e) = v of S_e S_e*
        mark = time.perf_counter()
        named = [(f"generator {i}", w) for i, w in enumerate(family.basis)]
        worst = Fraction(0)
        for name, weights in named + [("canonical", trace.weights)]:
            if any(x < 0 for x in weights.values()):
                failures.append(f"{name} has a negative weight")
            total = sum(weights.values())
            if total != 1:
                failures.append(f"{name} sums to {total}, not 1")
            residual = descent_residual(module, weights)
            if residual:
                failures.append(f"{name} breaks descent: residual {residual}")
            worst = max(worst, residual)
        stages["certificate"] = time.perf_counter() - mark
        report["descent_residual"] = worst
    report["failures"] = failures
    if args.timings:
        report["timings"] = {
            "seconds": time.perf_counter() - start,
            "stages": stages,
            "counters": {},
        }
    emit(report, args.format)
    return 1 if failures else 0


def _count(text: str) -> int:
    """Argument type of the nonnegative integer options."""
    if not re.fullmatch(r"\d+", text):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    """Argument type of --tol: a finite number >= 0.

    Under inf no check can fail, and under nan or a negative value the
    tolerance alone would decide the checks.
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite nonnegative number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphbimod",
        description="Index, residue, projection, and trace reports for finite graph bimodules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", help="path to a graph JSON file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument(
            "--timings",
            action="store_true",
            help="include wall-clock timings (breaks byte-identical output)",
        )

    p_index = sub.add_parser("index", help="index element and its k-step levels")
    common(p_index)
    p_index.add_argument("--depth", type=_count, default=3)
    p_index.set_defaults(func=cmd_index)

    p_res = sub.add_parser("residue", help="residue limits of growth ratios")
    common(p_res)
    p_res.add_argument(
        "--target",
        required=True,
        help="integer degree (all classes) or comma-separated edge ids (one path)",
    )
    p_res.add_argument("--kmax", type=_count, default=200)
    p_res.add_argument("--force-iterative", action="store_true")
    p_res.set_defaults(func=cmd_residue)

    p_kas = sub.add_parser("kasparov", help="gram and commutator checks")
    common(p_kas)
    p_kas.add_argument("--depth", type=_count, default=3)
    p_kas.add_argument("--kmax", type=_count, default=200)
    p_kas.set_defaults(func=cmd_kasparov)
    # not on index or kms: their checks are exact, so no tolerance decides them
    for p in (p_res, p_kas):
        p.add_argument("--tol", type=_tolerance, default=1e-10)

    p_kms = sub.add_parser("kms", help="invariant traces and their descent certificate")
    common(p_kms)
    # the options of the retired random exchange sweep, still passed by the
    # benchmark cases; they go once bench/ stops passing them (ROADMAP item 1)
    for flag in ("--pairs", "--seed", "--length"):
        p_kms.add_argument(flag, type=_count, help="ignored")
    p_kms.set_defaults(func=cmd_kms)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
