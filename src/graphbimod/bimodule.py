"""Finite directed graph and the exact data of its edge bimodule.

An edge g runs from its source vertex s(g) to its range vertex r(g), and
carries a weight c_g > 0 (default 1).  Graphs must have no sources and no
sinks (every vertex has at least one incoming and one outgoing edge); this
is validated at construction.  The actions and inner products of the edge
module, with the rest of its symbol calculus, are the test oracle in
`tests/symbolic.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .algebra import VertexSet


class GraphStructureError(ValueError):
    """Raised when a graph fails the structural requirements."""


class _Frozen:
    """Refuses assignment and deletion, so that a stored hash stays valid;
    `__init__` sets the slots through `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Edge(_Frozen):
    """An edge with its id, range, source and weight.

    Immutable, and equal to an edge with the same four fields.  The hash,
    hash((id, r, s, weight)), is computed at construction and kept on the
    instance: paths and grouping keys hash the same edges many times.
    """

    __slots__ = ("id", "r", "s", "weight", "_hash")

    def __init__(self, id: str, r: str, s: str, weight: float = 1.0):
        if weight <= 0:
            raise GraphStructureError(f"edge {id!r} has nonpositive weight")
        if not math.isfinite(weight):
            raise GraphStructureError(f"edge {id!r} has non-finite weight")
        put = object.__setattr__
        put(self, "id", id)
        put(self, "r", r)
        put(self, "s", s)
        put(self, "weight", weight)
        put(self, "_hash", hash((id, r, s, weight)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.id, self.r, self.s, self.weight) == (
            other.id, other.r, other.s, other.weight
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes, so a copy rehashes
        return (Edge, (self.id, self.r, self.s, self.weight))


def _strong_components(
    succ: list[list[int]],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[frozenset[int], ...]]:
    """Kosaraju with explicit stacks: a component label per node, and a
    period and the set of successor components per component.

    The second pass emits the labels in topological order (an edge v -> w
    across components has label[v] < label[w]), one DFS per component over
    the reversed edges.  With level(v) the depth of v in that DFS, the
    period is the gcd of level(w) + 1 - level(v) over the component's edges
    v -> w, and 0 when it has none.
    """
    n = len(succ)
    order: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        stack = [(root, 0)]
        seen[root] = True
        while stack:
            node, ptr = stack.pop()
            if ptr < len(succ[node]):
                stack.append((node, ptr + 1))
                nxt = succ[node][ptr]
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, 0))
            else:
                order.append(node)
    pred: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)
    comp = [-1] * n
    level = [0] * n
    label = 0
    for root in reversed(order):
        if comp[root] >= 0:
            continue
        stack = [root]
        comp[root] = label
        while stack:
            node = stack.pop()
            for w in pred[node]:
                if comp[w] < 0:
                    comp[w] = label
                    level[w] = level[node] + 1
                    stack.append(w)
        label += 1
    period = [0] * label
    after: list[set[int]] = [set() for _ in range(label)]
    for v in range(n):
        for w in succ[v]:
            if comp[v] == comp[w]:
                period[comp[v]] = math.gcd(period[comp[v]], level[w] + 1 - level[v])
            else:
                after[comp[v]].add(comp[w])
    return tuple(comp), tuple(period), tuple(frozenset(s) for s in after)


def _radius_vs_one(rows: list[list[int]], m: int) -> tuple[int, int]:
    """The sign of rho(N) - lam, and the last positive pivot (1 if none).

    The first m columns of rows hold an integer Z-matrix M = lam I - N with
    N >= 0 irreducible, each row divided by a positive integer; columns
    after them ride along.  Bareiss elimination in place, without pivoting,
    makes the k-th pivot a positive multiple of the k-th leading principal
    minor: M is a nonsingular M-matrix (rho < lam, for any N) when all m are
    positive, a singular one (rho = lam) when only the last is 0, and no
    M-matrix (rho > lam) otherwise.
    """
    prev = 1
    for k in range(m):
        pivot = rows[k][k]
        if pivot <= 0:
            return (0 if k == m - 1 and pivot == 0 else 1), prev
        top = rows[k][k + 1:]
        for i in range(k + 1, m):
            lead = rows[i][k]
            rows[i][k + 1:] = [
                (pivot * a - lead * b) // prev for a, b in zip(rows[i][k + 1:], top)
            ]
        prev = pivot
    return -1, prev


def _back_substitute(rows: list[list[int]], size: int, col: int, scale: int) -> list[int]:
    """y with rows[i] . (y, scale in column col) = 0 for i < size, on rows
    left upper triangular by `_radius_vs_one`.  With scale the size-th
    pivot, y is an integer vector by Cramer's rule: every division is exact.
    """
    y = [0] * size
    for i in reversed(range(size)):
        row = rows[i]
        acc = row[col] * scale + sum(row[j] * y[j] for j in range(i + 1, size))
        y[i] = -acc // row[i]
    return y


class GraphBimodule:
    """Finite directed graph together with its weighted edge bimodule.

    Vertices and edges are stored in lexicographic label order; every array
    in the package uses these orders.  The exact data is built here once:
    B = A / D with A integral (`integer_adjacency`, per range vertex the
    sorted (source column, entry) pairs) and D (`denominator`) the common
    denominator of the binary weights; the index (`index_exact`) and its
    floats (`index_float`).
    The condensation of the range-to-source graph is built here too:
    `component` labels each vertex with its strongly connected component,
    in topological order (an edge r <- s across components has
    component[r] < component[s]); `period` gives each component's period
    (0 on no cycle) and `successors` the other components its edges reach.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        self.vertices = VertexSet(vertices)
        ordered = tuple(sorted(edges, key=lambda e: e.id))
        ids = [e.id for e in ordered]
        if len(set(ids)) != len(ids):
            raise GraphStructureError("duplicate edge ids")
        for e in ordered:
            for v in (e.r, e.s):
                if v not in self.vertices:
                    raise GraphStructureError(
                        f"edge {e.id!r} touches unknown vertex {v!r}"
                    )
        self.edges = ordered
        self._edge_index = {e.id: i for i, e in enumerate(ordered)}
        self._by_range: dict[str, tuple[Edge, ...]] = {
            v: tuple(e for e in ordered if e.r == v) for v in self.vertices
        }
        sources = {e.s for e in ordered}
        missing_out = [v for v in self.vertices if not self._by_range[v]]
        missing_in = [v for v in self.vertices if v not in sources]
        if missing_out or missing_in:
            raise GraphStructureError(
                f"graph has sources or sinks: no outgoing edge at {missing_out}, "
                f"no incoming edge at {missing_in}"
            )
        weights = [Fraction(e.weight) for e in ordered]
        D = math.lcm(*(w.denominator for w in weights))
        rows: list[dict[int, int]] = [{} for _ in self.vertices]
        for e, w in zip(ordered, weights):
            row = rows[self.vertices.index(e.r)]
            j = self.vertices.index(e.s)
            row[j] = row.get(j, 0) + int(w * D)
        self.integer_adjacency = tuple(tuple(sorted(row.items())) for row in rows)
        self.denominator = D
        self.index_exact = {
            v: Fraction(sum(row.values()), D) for v, row in zip(self.vertices, rows)
        }
        self.index_float = {v: float(x) for v, x in self.index_exact.items()}
        succ = [[j for j, _ in row] for row in self.integer_adjacency]
        self.component, self.period, self.successors = _strong_components(succ)

    # -- structure ------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edges[self._edge_index[edge_id]]
        except KeyError:
            raise KeyError(f"unknown edge {edge_id!r}") from None

    def edges_with_range(self, v: str) -> tuple[Edge, ...]:
        return self._by_range[v]


def beta_is_central(module: GraphBimodule) -> bool:
    """Whether log of the index vector commutes with the module actions.

    True exactly when the exact index takes equal values at the two ends of
    every edge, which makes the k-step index collapse to pointwise powers.
    """
    index = module.index_exact
    return all(index[e.r] == index[e.s] for e in module.edges)
