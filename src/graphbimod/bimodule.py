"""Edge module of a finite directed graph as a two-sided inner-product module.

Conventions, fixed throughout the package:

* an edge g runs from its source vertex s(g) to its range vertex r(g);
* the vertex algebra acts on edge functions by a.e.b (g) = a(r(g)) e(g) b(s(g));
* the right inner product <e|f>_R(v) sums conj(e_g) f_g over edges with
  s(g) = v and is conjugate linear in the first slot;
* the left inner product <e|f>_L(v) sums c_g e_g conj(f_g) over edges with
  r(g) = v, where c_g > 0 is the per-edge weight (default 1).

Graphs must have no sources and no sinks (every vertex has at least one
incoming and one outgoing edge); this is validated at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .algebra import AlgebraElement, VertexSet


class GraphStructureError(ValueError):
    """Raised when a graph fails the structural requirements."""


@dataclass(frozen=True)
class Edge:
    """An edge with its id, range, source and weight.

    The hash is the dataclass one, hash((id, r, s, weight)), computed at
    construction and kept on the instance: paths and grouping keys hash
    the same edges many times.
    """

    id: str
    r: str
    s: str
    weight: float = 1.0

    def __post_init__(self):
        if self.weight <= 0:
            raise GraphStructureError(f"edge {self.id!r} has nonpositive weight")
        if not math.isfinite(self.weight):
            raise GraphStructureError(f"edge {self.id!r} has non-finite weight")
        object.__setattr__(self, "_hash", hash((self.id, self.r, self.s, self.weight)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes, so a copy rehashes
        return (Edge, (self.id, self.r, self.s, self.weight))


def _strong_components(
    succ: list[list[int]],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Kosaraju with explicit stacks: a component label per node, and a
    period per component.

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
    for v in range(n):
        for w in succ[v]:
            if comp[v] == comp[w]:
                period[comp[v]] = math.gcd(period[comp[v]], level[w] + 1 - level[v])
    return tuple(comp), tuple(period)


class GraphBimodule:
    """Finite directed graph together with its weighted edge bimodule.

    Vertices and edges are stored in lexicographic label order; every array
    in the package uses these orders.  The exact data is built here once:
    B = A / D with A integral (`integer_adjacency`, per range vertex the
    sorted (source column, entry) pairs) and D (`denominator`) the common
    denominator of the binary weights; B itself, read-only, as
    `adjacency()`; the index (`index_exact`) and its floats (`index_float`).
    The condensation of the range-to-source graph is built here too:
    `component` labels each vertex with its strongly connected component,
    in topological order (an edge r <- s across components has
    component[r] < component[s]), and `period` gives each component's
    period, 0 for a vertex on no cycle.
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
        self._by_source: dict[str, tuple[Edge, ...]] = {
            v: tuple(e for e in ordered if e.s == v) for v in self.vertices
        }
        missing_out = [v for v in self.vertices if not self._by_range[v]]
        missing_in = [v for v in self.vertices if not self._by_source[v]]
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
        self._adjacency = np.zeros((len(rows), len(rows)))
        for i, row in enumerate(rows):
            for j, a in row.items():
                self._adjacency[i, j] = a / D
        self._adjacency.flags.writeable = False
        self.index_exact = {
            v: Fraction(sum(row.values()), D) for v, row in zip(self.vertices, rows)
        }
        self.index_float = {v: float(x) for v, x in self.index_exact.items()}
        succ = [[j for j, _ in row] for row in self.integer_adjacency]
        self.component, self.period = _strong_components(succ)

    # -- structure ------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edges[self._edge_index[edge_id]]
        except KeyError:
            raise KeyError(f"unknown edge {edge_id!r}") from None

    def edge_position(self, edge_id: str) -> int:
        return self._edge_index[edge_id]

    def edges_with_range(self, v: str) -> tuple[Edge, ...]:
        return self._by_range[v]

    def edges_with_source(self, v: str) -> tuple[Edge, ...]:
        return self._by_source[v]

    def adjacency(self) -> np.ndarray:
        """Read-only B, B[r(g), s(g)] the correctly rounded sum of the weights c_g."""
        return self._adjacency

    def __repr__(self) -> str:
        return (
            f"GraphBimodule({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges)"
        )

    # -- module vectors -------------------------------------------------

    def zero_vector(self) -> "ModuleVector":
        return ModuleVector(self, np.zeros(len(self.edges), dtype=complex))

    def delta(self, edge_id: str) -> "ModuleVector":
        vals = np.zeros(len(self.edges), dtype=complex)
        vals[self.edge_position(edge_id)] = 1.0
        return ModuleVector(self, vals)

    def frame(self) -> list["ModuleVector"]:
        """The edge point masses; they reconstruct every vector exactly."""
        return [self.delta(e.id) for e in self.edges]

    def vector(self, values) -> "ModuleVector":
        return ModuleVector(self, values)

    def random_vector(self, rng: np.random.Generator) -> "ModuleVector":
        n = len(self.edges)
        return ModuleVector(self, rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def random_algebra_element(self, rng: np.random.Generator) -> AlgebraElement:
        n = len(self.vertices)
        return AlgebraElement(
            self.vertices, rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )


@dataclass(frozen=True)
class ModuleVector:
    """Complex function on the edges, in the module's canonical edge order."""

    module: GraphBimodule = field(repr=False)
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=complex).reshape(-1).copy()
        if arr.shape != (len(self.module.edges),):
            raise ValueError("value vector does not match the edge count")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        return ModuleVector(self.module, self.values + other.values)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return ModuleVector(self.module, self.values - other.values)

    def __mul__(self, scalar) -> "ModuleVector":
        return ModuleVector(self.module, self.values * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "ModuleVector":
        return ModuleVector(self.module, -self.values)

    def norm(self) -> float:
        """Module norm: sup over vertices of sqrt(<x|x>_R)."""
        return float(np.sqrt(right_inner(self, self).norm()))

    def __getitem__(self, edge_id: str) -> complex:
        return complex(self.values[self.module.edge_position(edge_id)])


# -- actions and inner products -----------------------------------------


def left_action(a: AlgebraElement, x: ModuleVector) -> ModuleVector:
    """(a.x)(g) = a(r(g)) x(g)."""
    m = x.module
    scale = np.array([a[e.r] for e in m.edges])
    return ModuleVector(m, scale * x.values)


def right_action(x: ModuleVector, a: AlgebraElement) -> ModuleVector:
    """(x.a)(g) = x(g) a(s(g))."""
    m = x.module
    scale = np.array([a[e.s] for e in m.edges])
    return ModuleVector(m, x.values * scale)


def right_inner(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """<x|y>_R(v) = sum over s(g) = v of conj(x_g) y_g."""
    m = x.module
    vals = np.zeros(len(m.vertices), dtype=complex)
    prod = np.conj(x.values) * y.values
    for i, e in enumerate(m.edges):
        vals[m.vertices.index(e.s)] += prod[i]
    return AlgebraElement(m.vertices, vals)


def left_inner(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """<x|y>_L(v) = sum over r(g) = v of c_g x_g conj(y_g)."""
    m = x.module
    vals = np.zeros(len(m.vertices), dtype=complex)
    prod = x.values * np.conj(y.values)
    for i, e in enumerate(m.edges):
        vals[m.vertices.index(e.r)] += e.weight * prod[i]
    return AlgebraElement(m.vertices, vals)


def watatani_phi(module: GraphBimodule, T: np.ndarray) -> AlgebraElement:
    """Left-inner-product trace of an edge-space operator.

    Phi(T)(v) = sum over r(g) = v of c_g T[g, g].  Applied to the identity it
    gives the one-step index vector.
    """
    T = np.asarray(T, dtype=complex)
    n = len(module.edges)
    if T.shape != (n, n):
        raise ValueError(f"operator must be {n}x{n}")
    vals = np.zeros(len(module.vertices), dtype=complex)
    for i, e in enumerate(module.edges):
        vals[module.vertices.index(e.r)] += e.weight * T[i, i]
    return AlgebraElement(module.vertices, vals)


def index_element(module: GraphBimodule) -> AlgebraElement:
    """One-step index e^beta = Phi(Id): weighted out-degree per vertex."""
    return AlgebraElement.from_dict(module.vertices, module.index_float)


def beta_is_central(module: GraphBimodule) -> bool:
    """Whether log of the index vector commutes with the module actions.

    True exactly when the exact index takes equal values at the two ends of
    every edge, which makes the k-step index collapse to pointwise powers.
    """
    index = module.index_exact
    return all(index[e.r] == index[e.s] for e in module.edges)


# -- structural checks ----------------------------------------------------


@dataclass
class AxiomReport:
    trials: int
    seed: int
    residuals: dict[str, float]
    passed: bool

    def worst(self) -> float:
        return max(self.residuals.values())


def check_bimodule_axioms(
    module: GraphBimodule,
    trials: int = 100,
    seed: int = 42,
    tol: float = 1e-12,
) -> AxiomReport:
    """Randomized check of the two-sided inner-product module axioms.

    Covers linearity of both inner products in their linear slots, the
    adjoint relations between the two actions, positivity of both inner
    products, and the frame reconstruction identity.
    """
    rng = np.random.default_rng(seed)
    res = {
        "right_linearity": 0.0,
        "left_linearity": 0.0,
        "right_adjoint": 0.0,
        "left_adjoint": 0.0,
        "right_positivity": 0.0,
        "left_positivity": 0.0,
        "hermitian_symmetry": 0.0,
        "frame_reconstruction": 0.0,
    }
    for _ in range(trials):
        x = module.random_vector(rng)
        y = module.random_vector(rng)
        a = module.random_algebra_element(rng)

        lhs = right_inner(x, right_action(y, a))
        rhs = right_inner(x, y) * a
        res["right_linearity"] = max(res["right_linearity"], (lhs - rhs).norm())

        lhs = left_inner(left_action(a, x), y)
        rhs = a * left_inner(x, y)
        res["left_linearity"] = max(res["left_linearity"], (lhs - rhs).norm())

        lhs = right_inner(left_action(a, x), y)
        rhs = right_inner(x, left_action(a.adjoint(), y))
        res["right_adjoint"] = max(res["right_adjoint"], (lhs - rhs).norm())

        lhs = left_inner(right_action(x, a), y)
        rhs = left_inner(x, right_action(y, a.adjoint()))
        res["left_adjoint"] = max(res["left_adjoint"], (lhs - rhs).norm())

        rpos = right_inner(x, x).values
        res["right_positivity"] = max(
            res["right_positivity"],
            float(np.max(np.abs(rpos.imag))),
            float(max(0.0, -np.min(rpos.real))),
        )
        lpos = left_inner(x, x).values
        res["left_positivity"] = max(
            res["left_positivity"],
            float(np.max(np.abs(lpos.imag))),
            float(max(0.0, -np.min(lpos.real))),
        )

        sym = right_inner(x, y) - right_inner(y, x).adjoint()
        res["hermitian_symmetry"] = max(res["hermitian_symmetry"], sym.norm())

        rebuilt = module.zero_vector()
        for g in module.frame():
            rebuilt = rebuilt + right_action(g, right_inner(g, x))
        res["frame_reconstruction"] = max(
            res["frame_reconstruction"], max(np.abs(rebuilt.values - x.values))
        )
    return AxiomReport(trials, seed, res, all(v <= tol for v in res.values()))


@dataclass
class SmebResult:
    holds: bool
    witness: tuple[str, str, str] | None
    defect: float


def smeb_check(module: GraphBimodule, tol: float = 1e-10) -> SmebResult:
    """Test <g|h>_L . k = g . <h|k>_R on all edge-basis triples.

    Holds exactly when both endpoint maps are injective and the weights are
    all 1, i.e. for unit-weight permutation graphs.  Returns the first
    failing triple as a witness.
    """
    worst = 0.0
    witness = None
    for g in module.edges:
        dg = module.delta(g.id)
        for h in module.edges:
            dh = module.delta(h.id)
            for k in module.edges:
                dk = module.delta(k.id)
                lhs = left_action(left_inner(dg, dh), dk)
                rhs = right_action(dg, right_inner(dh, dk))
                defect = float(np.max(np.abs(lhs.values - rhs.values)))
                worst = max(worst, defect)
                if defect > tol and witness is None:
                    witness = (g.id, h.id, k.id)
    return SmebResult(worst <= tol, witness, worst)
