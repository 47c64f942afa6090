"""Seeded graph generators for the benchmark.

Every generator draws only from the `random.Random` it is given, checks
the structural property it promises before returning, and returns a plain
graph document in the CLI's input format.  `write_graph` serialises a
document canonically, so the same seed gives byte-identical files.

The seed changes labels, edge ids and, for the random families, the edge
set; it never changes the vertex or edge count of a family, nor the number
of paths of each length with a given source, so the work a case does
stays close across seeds.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


# -- structure helpers (pure Python, exact) ---------------------------------


def adjacency(doc: dict) -> tuple[list[str], list[list[Fraction]]]:
    """Vertex list and exact weighted adjacency B[r][s] of a graph document."""
    verts = list(doc["vertices"])
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    B = [[Fraction(0)] * n for _ in range(n)]
    for e in doc["edges"]:
        B[idx[e["r"]]][idx[e["s"]]] += Fraction(e.get("weight", 1))
    return verts, B


def _pattern(doc: dict) -> list[list[bool]]:
    _, B = adjacency(doc)
    return [[x > 0 for x in row] for row in B]


def _bool_mul(A: list[list[bool]], B: list[list[bool]]) -> list[list[bool]]:
    n = len(A)
    return [[any(A[i][k] and B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def has_no_sources_or_sinks(doc: dict) -> bool:
    M = _pattern(doc)
    n = len(M)
    return all(any(M[i]) for i in range(n)) and all(any(M[i][j] for i in range(n)) for j in range(n))


def is_strongly_connected(doc: dict) -> bool:
    M = _pattern(doc)
    n = len(M)
    for forward in (True, False):
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                edge = M[i][j] if forward else M[j][i]
                if edge and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != n:
            return False
    return True


def is_primitive(doc: dict) -> bool:
    """Some power of the 0/1 pattern is all positive (Wielandt bound)."""
    M = _pattern(doc)
    n = len(M)
    P = M
    for _ in range(n * n - 2 * n + 1):
        if all(all(row) for row in P):
            return True
        P = _bool_mul(P, M)
    return all(all(row) for row in P)


def is_reducible_chain(doc: dict, order: list[str]) -> bool:
    """Vertices in `order`, each with a loop, linked only to the next one."""
    verts, B = adjacency(doc)
    n = len(verts)
    pos = {v: i for i, v in enumerate(order)}
    for r in range(n):
        for s in range(n):
            linked = B[r][s] > 0
            pr, ps = pos[verts[r]], pos[verts[s]]
            if linked != (pr == ps or pr == ps + 1):
                return False
    return True


# -- labels ------------------------------------------------------------------


def _labels(rng: random.Random, prefix: str, count: int) -> list[str]:
    """`count` distinct labels in a seeded order, so sort order varies by seed."""
    pool = [f"{prefix}{i:02d}" for i in range(count)]
    rng.shuffle(pool)
    return pool


def _document(vertices: list[str], edges: list[tuple], rng: random.Random) -> dict:
    ids = _labels(rng, "e", len(edges))
    out = []
    for eid, (r, s, w) in zip(ids, edges):
        item = {"id": eid, "r": r, "s": s}
        if w != 1:
            item["weight"] = w
        out.append(item)
    out.sort(key=lambda item: item["id"])
    return {"vertices": sorted(vertices), "edges": out}


# -- families ----------------------------------------------------------------


def full_shift(n_edges: int, rng: random.Random) -> dict:
    """O_N: one vertex carrying N loops."""
    (v,) = _labels(rng, "z", 1)
    doc = _document([v], [(v, v, 1)] * n_edges, rng)
    if not (is_primitive(doc) and len(doc["edges"]) == n_edges):
        raise AssertionError("full shift must be one primitive vertex with N loops")
    return doc


def golden_mean(rng: random.Random) -> dict:
    """Loop at u and a two-cycle through v; adjacency [[1, 1], [1, 0]]."""
    u, v = _labels(rng, "g", 2)
    doc = _document([u, v], [(u, u, 1), (u, v, 1), (v, u, 1)], rng)
    if not is_primitive(doc):
        raise AssertionError("golden mean graph must be primitive")
    return doc


def reducible_chain(weights: list[int], rng: random.Random) -> dict:
    """Chain c_0 -> c_1 -> ... with a loop of the given weight at each vertex.

    Equal loop weights give a Jordan-type adjacency (polynomial growth
    between classes); unequal ones give a growth gap.  Links have weight 1.
    """
    order = _labels(rng, "c", len(weights))
    edges = [(v, v, w) for v, w in zip(order, weights)]
    edges += [(order[i + 1], order[i], 1) for i in range(len(order) - 1)]
    doc = _document(order, edges, rng)
    if not (has_no_sources_or_sinks(doc) and is_reducible_chain(doc, order)):
        raise AssertionError("chain must be reducible with a loop at each vertex")
    if len(weights) > 1 and is_strongly_connected(doc):
        raise AssertionError("chain must not be strongly connected")
    return doc


def random_graph(
    n_vertices: int,
    per_source: int,
    rng: random.Random,
    max_weight: int = 1,
    primitive: bool = False,
) -> dict:
    """Random strongly connected graph in which every vertex is the source
    of exactly `per_source` edges.

    A seeded Hamiltonian cycle makes it strongly connected; the ranges of
    the remaining edges are drawn uniformly (loops and parallel edges
    allowed).  A fixed count per source fixes the number of length-k paths
    with each source at per_source^k, so the path spaces have the same size
    for every seed while the index (edges per range) varies.  Weights are
    integers in [1, max_weight], so exact arithmetic is possible.  With
    `primitive`, draws repeat until the pattern is primitive.
    """
    if per_source < 1:
        raise ValueError("every vertex needs at least one edge with it as source")
    names = _labels(rng, "v", n_vertices)
    while True:
        edges = []
        for i, s in enumerate(names):
            ranges = [names[(i + 1) % n_vertices]]
            ranges += [rng.choice(names) for _ in range(per_source - 1)]
            edges += [(r, s, rng.randint(1, max_weight)) for r in ranges]
        doc = _document(names, edges, rng)
        if not primitive or is_primitive(doc):
            break
    sources = [e["s"] for e in doc["edges"]]
    if any(sources.count(v) != per_source for v in names):
        raise AssertionError("every vertex must be the source of per_source edges")
    if not (has_no_sources_or_sinks(doc) and is_strongly_connected(doc)):
        raise AssertionError("random graph must be strongly connected without sources or sinks")
    if primitive and not is_primitive(doc):
        raise AssertionError("graph must be primitive")
    return doc


def write_graph(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True))
        fh.write("\n")
