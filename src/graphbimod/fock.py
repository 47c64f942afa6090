"""Path spaces of the graph, their counts, and the k-step index levels.

A path of length k is a sequence (g_1, ..., g_k) of edges with
s(g_i) = r(g_{i+1}); its range is r(g_1) and its source is s(g_k), so paths
compose in the same order as the tensor factors of the Fock module.
Length-0 paths are the vertices themselves.  Path lists are always in
lexicographic order of the edge id sequence, vertex paths in vertex order.
The Fock module itself, with its actions, inner products and traces, is
the test oracle in `tests/symbolic.py`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .bimodule import Edge, GraphBimodule, _Frozen


class Path(_Frozen):
    """A path as its edge tuple and range vertex.

    Immutable, and equal to a path with the same edges and base.  The
    hash, hash((edges, base)), is computed on first use and kept on the
    instance: symbol dicts hash the same path many times, and each time
    would otherwise hash every edge again.
    """

    __slots__ = ("edges", "base", "_hash")

    def __init__(self, edges: tuple[Edge, ...], base: str):
        # base equals r(edges[0]) when nonempty; the vertex itself when empty
        if edges:
            if base != edges[0].r:
                raise ValueError("base vertex must equal the range of the first edge")
            for a, b in zip(edges, edges[1:]):
                if a.s != b.r:
                    raise ValueError(
                        f"edges {a.id!r} and {b.id!r} do not compose (s != r)"
                    )
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_hash", None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.edges, self.base) == (other.edges, other.base)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.edges, self.base))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # string hashes differ between processes, so a copy rehashes
        return (Path, (self.edges, self.base))

    @property
    def r(self) -> str:
        return self.base

    @property
    def s(self) -> str:
        return self.edges[-1].s if self.edges else self.base

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    def label(self) -> str:
        return ".".join(self.ids) if self.edges else f"({self.base})"

    def sort_key(self):
        return (len(self.edges), self.ids if self.edges else (self.base,))


def make_path(module: GraphBimodule, edge_ids: Sequence[str]) -> Path:
    if not edge_ids:
        raise ValueError("a path needs at least one edge id")
    edges = tuple(module.edge(i) for i in edge_ids)
    return Path(edges, edges[0].r)


def paths(module: GraphBimodule, k: int) -> list[Path]:
    """All length-k paths in canonical order."""
    if k < 0:
        raise ValueError("path length must be nonnegative")
    if k == 0:
        return [Path((), v) for v in module.vertices]
    level = [(e,) for e in module.edges]
    for _ in range(k - 1):
        level = [
            tup + (e,) for tup in level for e in module.edges_with_range(tup[-1].s)
        ]
    # module.edges and each edges_with_range(v) are id-sorted, so the
    # levels come out in lexicographic order of the id sequence
    return [Path(tup, tup[0].r) for tup in level]


def path_counts(module: GraphBimodule, depth: int) -> list[dict[str, int]]:
    """Number of paths of each length 0..depth, by source vertex.

    The counts are exact integers built edge by edge, so no path is
    enumerated: a length-k path with source v is a length-(k-1) path with
    source r(g) followed by an edge g with s(g) = v.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    levels = [{v: 1 for v in module.vertices}]
    for _ in range(depth):
        prev = levels[-1]
        nxt = {v: 0 for v in module.vertices}
        for g in module.edges:
            nxt[g.s] += prev[g.r]
        levels.append(nxt)
    return levels


def path_totals(counts: list[dict[str, int]]) -> dict[str, int]:
    """Number of paths of length at most the depth of `counts`, by source."""
    return {v: sum(level[v] for level in counts) for v in counts[0]}


def index_levels(module: GraphBimodule) -> Iterator[list[int]]:
    """A^k 1 for k = 0, 1, 2, ... in integers, one adjacency pass per level.

    A and D are the module's integer adjacency and denominator, so the
    k-step index B^k 1 is exactly this level over D^k at every depth.
    """
    rows = module.integer_adjacency
    vec = [1] * len(rows)
    while True:
        yield vec
        vec = [sum(a * vec[j] for j, a in row) for row in rows]
