"""Outside-in checks of CLI reports against exact facts about the input graph.

Each checker takes the graph document the CLI was given, the arguments
of the case and the parsed report, and returns a list of problems; an
empty list means the report passed.  The facts are recomputed here in
exact integer or rational arithmetic, never taken from the package.
"""

from __future__ import annotations

from fractions import Fraction

from graphs import adjacency

INDEX_REL_TOL = 1e-12
# the range-vertex sum of weighted residue limits is exactly 1 at every
# level; the reducible chains measure at most 5e-13 off, and 1e-10 is the
# CLI's default --tol
RESIDUE_SUM_TOL = 1e-10


def _index_vectors(doc: dict) -> dict[str, Fraction]:
    verts, B = adjacency(doc)
    return {v: sum(row, Fraction(0)) for v, row in zip(verts, B)}


def exact_levels(doc: dict, depth: int) -> list[list[Fraction]]:
    """B^k 1 for k = 0..depth, exactly."""
    _, B = adjacency(doc)
    n = len(B)
    vec = [Fraction(1)] * n
    out = [vec]
    for _ in range(depth):
        vec = [sum(B[i][j] * vec[j] for j in range(n)) for i in range(n)]
        out.append(vec)
    return out


def paths_by_source(doc: dict, depth: int) -> list[dict[str, int]]:
    """Number of length-k paths with each source vertex, for k = 0..depth."""
    verts = list(doc["vertices"])
    counts = [{v: 1 for v in verts}]
    for _ in range(depth):
        prev = counts[-1]
        # a length-k path with source v ends in an edge g with s(g) = v,
        # after a length-(k-1) path whose source is r(g)
        nxt = {v: 0 for v in verts}
        for e in doc["edges"]:
            nxt[e["s"]] += prev[e["r"]]
        counts.append(nxt)
    return counts


def _as_fraction(x) -> Fraction | None:
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        return None
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


def check_index(doc: dict, depth: int, report: dict) -> list[str]:
    problems = []
    levels = report.get("levels", {})
    if sorted(levels, key=int) != [str(k) for k in range(depth + 1)]:
        return [f"levels are not 0..{depth}"]
    verts = list(doc["vertices"])
    for k, vec in enumerate(exact_levels(doc, depth)):
        for v, want in zip(verts, vec):
            got = _as_fraction(levels[str(k)].get(v))
            if got is None or abs(got - want) > INDEX_REL_TOL * want:
                problems.append(f"level {k} at {v}: {levels[str(k)].get(v)!r} != B^k 1")
                break
        if problems:
            break
    return problems


def check_residue(doc: dict, degree: int, report: dict) -> list[str]:
    problems = []
    edges = {e["id"]: e for e in doc["edges"]}
    for cls in report.get("classes", []):
        if cls.get("converged") is not True:
            problems.append(f"class {cls.get('target')} not converged ({cls.get('method')})")
    rows = report.get("paths", [])
    want_count = sum(paths_by_source(doc, degree)[degree].values())
    seen = {tuple(row.get("edges", ())) for row in rows}
    if len(rows) != want_count or len(seen) != want_count:
        problems.append(f"{len(rows)} path rows, {len(seen)} distinct, want {want_count}")
    totals: dict[str, Fraction] = {}
    for row in rows:
        ids = row.get("edges", [])
        if len(ids) != degree or any(i not in edges for i in ids):
            problems.append(f"row {row.get('path')!r} is not a length-{degree} path")
            continue
        chain = [edges[i] for i in ids]
        if any(a["s"] != b["r"] for a, b in zip(chain, chain[1:])):
            problems.append(f"row {row.get('path')!r} does not compose")
            continue
        if row.get("range") != chain[0]["r"] or row.get("source") != chain[-1]["s"]:
            problems.append(f"row {row.get('path')!r} has wrong endpoints")
            continue
        value = _as_fraction(row.get("value"))
        if value is None:
            problems.append(f"row {row.get('path')!r} has value {row.get('value')!r}")
            continue
        weight = Fraction(1)
        for e in chain:
            weight *= Fraction(e.get("weight", 1))
        r = chain[0]["r"]
        totals[r] = totals.get(r, Fraction(0)) + weight * value
    for v, total in sorted(totals.items()):
        if abs(total - 1) > RESIDUE_SUM_TOL:
            problems.append(f"weighted limits at range {v} sum to {float(total)!r}, not 1")
    return problems


def check_kasparov(doc: dict, depth: int, report: dict) -> list[str]:
    problems = []
    if report.get("failures") != []:
        problems.append(f"failures reported: {report.get('failures')!r}")
    counts = paths_by_source(doc, depth)
    want = sum(sum(c[v] for c in counts) ** 2 for v in doc["vertices"])
    if report.get("basis_size") != want:
        problems.append(f"basis_size {report.get('basis_size')!r} != {want}")
    return problems


def check_kms(doc: dict, report: dict) -> list[str]:
    if report.get("feasible") is not True or not report.get("generators"):
        return ["no invariant trace reported"]
    problems = []
    index = _index_vectors(doc)
    into: dict[str, list[str]] = {v: [] for v in doc["vertices"]}
    for e in doc["edges"]:
        into[e["r"]].append(e["s"])
    for i, gen in enumerate(report["generators"]):
        w = {v: _as_fraction(gen.get(v)) for v in doc["vertices"]}
        if any(x is None for x in w.values()):
            problems.append(f"generator {i} is not a rational vector")
            continue
        if any(x < 0 for x in w.values()):
            problems.append(f"generator {i} has a negative weight")
        if sum(w.values()) != 1:
            problems.append(f"generator {i} sums to {sum(w.values())}, not 1")
        for v in doc["vertices"]:
            if w[v] * index[v] != sum((w[s] for s in into[v]), Fraction(0)):
                problems.append(f"generator {i} breaks the trace equation at {v}")
                break
    return problems


def check_report(command: str, doc: dict, param: int, report: dict) -> list[str]:
    """Dispatch on the subcommand; `param` is the depth or the degree."""
    if report.get("command") != command:
        return [f"report is for {report.get('command')!r}, not {command!r}"]
    if command == "index":
        return check_index(doc, param, report)
    if command == "residue":
        return check_residue(doc, param, report)
    if command == "kasparov":
        return check_kasparov(doc, param, report)
    return check_kms(doc, report)
