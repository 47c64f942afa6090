"""Path spaces, the Fock module of the edge module E, and the k-step index.

`FockVector` is the one vector type: the length-k paths span E^k, and the
degree-1 vectors are E itself.  `phi_k` at k = 1 is Watatani's trace on
the edge operators.

A path of length k is a sequence (g_1, ..., g_k) of edges with
s(g_i) = r(g_{i+1}); its range is r(g_1) and its source is s(g_k), so paths
compose in the same order as the module tensor factors.  Length-0 paths are
the vertices themselves.  Path lists are always in lexicographic order of
the edge id sequence, vertex paths in vertex order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import AlgebraElement
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

    @property
    def weight(self) -> float:
        w = 1.0
        for e in self.edges:
            w *= e.weight
        return w

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    def label(self) -> str:
        return ".".join(self.ids) if self.edges else f"({self.base})"

    def sort_key(self):
        return (len(self.edges), self.ids if self.edges else (self.base,))

    def head(self, n: int) -> "Path":
        """First n edges as a path (the outer tensor factors)."""
        if n == 0:
            return Path((), self.base)
        return Path(self.edges[:n], self.base)

    def tail(self, n: int) -> "Path":
        """Last n edges as a path (the inner tensor factors)."""
        if n == 0:
            return Path((), self.s)
        rest = self.edges[len(self.edges) - n :]
        return Path(rest, rest[0].r)

    def concat(self, other: "Path") -> "Path":
        if self.s != other.r:
            raise ValueError("paths do not compose")
        if not other.edges:
            return self
        if not self.edges:
            return other
        return Path(self.edges + other.edges, self.base)

    def extends(self, prefix: "Path") -> bool:
        """Whether `prefix` is an initial segment of this path."""
        if len(prefix) > len(self):
            return False
        if not prefix.edges:
            return prefix.base == self.r
        return self.edges[: len(prefix)] == prefix.edges

    def __repr__(self) -> str:
        return f"Path({self.label()})"


def vertex_path(module: GraphBimodule, v: str) -> Path:
    module.vertices.index(v)
    return Path((), v)


def make_path(module: GraphBimodule, edge_ids: Sequence[str], base: str | None = None) -> Path:
    if not edge_ids:
        if base is None:
            raise ValueError("a length-0 path needs a base vertex")
        return vertex_path(module, base)
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


class FockVector:
    """Finitely supported complex combination of paths.

    Degrees may mix; the inner products pair only identical paths, so mixed
    degrees are orthogonal automatically.
    """

    __slots__ = ("module", "terms")

    def __init__(self, module: GraphBimodule, terms: Mapping[Path, complex] | None = None):
        self.module = module
        self.terms: dict[Path, complex] = {}
        if terms:
            for p, c in terms.items():
                c = complex(c)
                if c != 0:
                    self.terms[p] = c

    @classmethod
    def delta(cls, module: GraphBimodule, path: Path) -> "FockVector":
        return cls(module, {path: 1.0})

    @classmethod
    def from_edges(cls, module: GraphBimodule, values: Iterable[complex]) -> "FockVector":
        """Degree-1 vector with the given values in module.edges order."""
        values = list(values)
        if len(values) != len(module.edges):
            raise ValueError("value vector does not match the edge count")
        return cls(module, {Path((e,), e.r): c for e, c in zip(module.edges, values)})

    def degree(self) -> int:
        """Common path length; raises if the support mixes lengths."""
        lengths = {len(p) for p in self.terms}
        if len(lengths) > 1:
            raise ValueError("vector is not homogeneous")
        return lengths.pop() if lengths else 0

    def is_homogeneous(self) -> bool:
        return len({len(p) for p in self.terms}) <= 1

    def __add__(self, other: "FockVector") -> "FockVector":
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0.0) + c
        return FockVector(self.module, out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "FockVector":
        z = complex(scalar)
        return FockVector(self.module, {p: c * z for p, c in self.terms.items()})

    __rmul__ = __mul__

    def coefficient(self, path: Path) -> complex:
        return self.terms.get(path, 0.0)

    def norm(self) -> float:
        """Module norm via the right inner product."""
        return math.sqrt(right_inner(self, self).norm())

    def sup_coefficient(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __repr__(self) -> str:
        inner = " + ".join(f"{c:.4g}*{p.label()}" for p, c in sorted(
            self.terms.items(), key=lambda item: item[0].sort_key()))
        return f"FockVector({inner or '0'})"


def left_action(a: AlgebraElement, x: FockVector) -> FockVector:
    """(a.x)(p) = a(r(p)) x(p)."""
    return FockVector(x.module, {p: a[p.r] * c for p, c in x.terms.items()})


def right_action(x: FockVector, a: AlgebraElement) -> FockVector:
    """(x.a)(p) = x(p) a(s(p))."""
    return FockVector(x.module, {p: c * a[p.s] for p, c in x.terms.items()})


def right_inner(x: FockVector, y: FockVector) -> AlgebraElement:
    """<x|y>_R(v) over paths with source v; distinct paths are orthogonal."""
    m = x.module
    vals = [0j] * len(m.vertices)
    for p, c in x.terms.items():
        d = y.terms.get(p)
        if d is not None:
            vals[m.vertices.index(p.s)] += c.conjugate() * d
    return AlgebraElement(m.vertices, vals)


def left_inner(x: FockVector, y: FockVector) -> AlgebraElement:
    """<x|y>_L(v) over paths with range v, weighted by the path weight."""
    m = x.module
    vals = [0j] * len(m.vertices)
    for p, c in x.terms.items():
        d = y.terms.get(p)
        if d is not None:
            vals[m.vertices.index(p.r)] += p.weight * c * d.conjugate()
    return AlgebraElement(m.vertices, vals)


# -- k-step index and compressions ----------------------------------------


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


def beta_k(module: GraphBimodule, k: int) -> AlgebraElement:
    """k-step index vector e^{beta_k} = (B^k 1), B the weighted adjacency.

    Equals the sum of the left inner squares of the length-k path basis.
    Each entry is the correctly rounded float of the exact level; past the
    double range the division raises OverflowError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    level = next(islice(index_levels(module), k, None))
    den = module.denominator**k
    return AlgebraElement(module.vertices, [x / den for x in level])


def phi_k(module: GraphBimodule, k: int, T) -> AlgebraElement:
    """Weighted diagonal sum of a level-k operator, grouped by path range.

    T is a square matrix over the length-k paths in `paths` order, as rows
    (a nested sequence or a 2-d array).  Phi_k(T)(v) sums
    weight(p) T[p, p] over the length-k paths p with r(p) = v.  At k = 1
    this is Watatani's trace on the edge operators, and
    phi_k(module, k, Id) is the k-step index.
    """
    plist = paths(module, k)
    if len(T) != len(plist) or any(len(row) != len(plist) for row in T):
        raise ValueError(f"operator must be {len(plist)}x{len(plist)}")
    vals = [0j] * len(module.vertices)
    for i, p in enumerate(plist):
        vals[module.vertices.index(p.r)] += p.weight * complex(T[i][i])
    return AlgebraElement(module.vertices, vals)


def rank_one_phi(
    module: GraphBimodule, k: int, xi: FockVector, eta: FockVector
) -> AlgebraElement:
    """Level-k diagonal sum of a rank-one operator, in closed form.

    For xi, eta homogeneous of degree n <= k the compression of the rank-one
    operator (tensored with the identity on the remaining k-n factors) has
    weighted diagonal sum <xi | eta . e^{beta_{k-n}}>_L.
    """
    n = xi.degree()
    if eta.degree() != n:
        raise ValueError("xi and eta must have equal degree")
    if k < n:
        raise ValueError("k must be at least the degree")
    growth = beta_k(module, k - n)
    return left_inner(xi, right_action(eta, growth))


# -- structural checks on the edge module ----------------------------------


class AxiomReport(namedtuple("AxiomReport", "trials seed residuals passed")):
    """Worst residual of each axiom over `trials` draws from `seed`
    (residuals: name -> float), and whether all are within tolerance."""

    __slots__ = ()

    def worst(self) -> float:
        return max(self.residuals.values())


def _random_edge_vector(module: GraphBimodule, rng) -> FockVector:
    n = len(module.edges)
    return FockVector.from_edges(module, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def check_bimodule_axioms(
    module: GraphBimodule,
    trials: int = 100,
    seed: int = 42,
    tol: float = 1e-12,
) -> AxiomReport:
    """Randomized check of the two-sided inner-product module axioms on E.

    Covers linearity of both inner products in their linear slots, the
    adjoint relations between the two actions, positivity of both inner
    products, and the frame reconstruction identity, on random degree-1
    vectors, drawn from numpy's `default_rng(seed)`.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    res = dict.fromkeys(
        ("right_linearity", "left_linearity", "right_adjoint", "left_adjoint",
         "right_positivity", "left_positivity", "hermitian_symmetry", "frame_reconstruction"),
        0.0,
    )
    # the edge point masses, which reconstruct every degree-1 vector exactly
    frame = [FockVector.delta(module, p) for p in paths(module, 1)]
    for _ in range(trials):
        x = _random_edge_vector(module, rng)
        y = _random_edge_vector(module, rng)
        a = module.random_algebra_element(rng)
        sides = {
            "right_linearity": (right_inner(x, right_action(y, a)), right_inner(x, y) * a),
            "left_linearity": (left_inner(left_action(a, x), y), a * left_inner(x, y)),
            "right_adjoint": (
                right_inner(left_action(a, x), y), right_inner(x, left_action(a.adjoint(), y))
            ),
            "left_adjoint": (
                left_inner(right_action(x, a), y), left_inner(x, right_action(y, a.adjoint()))
            ),
            "hermitian_symmetry": (right_inner(x, y), right_inner(y, x).adjoint()),
        }
        for name, (lhs, rhs) in sides.items():
            res[name] = max(res[name], (lhs - rhs).norm())
        for name, inner in (("right_positivity", right_inner), ("left_positivity", left_inner)):
            vals = inner(x, x).values
            res[name] = max(
                res[name], max(abs(v.imag) for v in vals), -min(v.real for v in vals)
            )
        rebuilt = FockVector(module)
        for g in frame:
            rebuilt = rebuilt + right_action(g, right_inner(g, x))
        res["frame_reconstruction"] = max(
            res["frame_reconstruction"], (rebuilt - x).sup_coefficient()
        )
    return AxiomReport(trials, seed, res, all(v <= tol for v in res.values()))


class SmebResult(namedtuple("SmebResult", "holds witness defect")):
    """Whether the exchange identity holds (bool), the first failing edge
    triple or None, and the worst defect (float)."""

    __slots__ = ()


def smeb_check(module: GraphBimodule, tol: float = 1e-10) -> SmebResult:
    """Test <g|h>_L . k = g . <h|k>_R on all edge-basis triples.

    Holds exactly when both endpoint maps are injective and the weights are
    all 1, i.e. for unit-weight permutation graphs.  Returns the first
    failing triple as a witness.
    """
    worst = 0.0
    witness = None
    frame = [FockVector.delta(module, p) for p in paths(module, 1)]
    for g, dg in zip(module.edges, frame):
        for h, dh in zip(module.edges, frame):
            for k, dk in zip(module.edges, frame):
                lhs = left_action(left_inner(dg, dh), dk)
                rhs = right_action(dg, right_inner(dh, dk))
                defect = (lhs - rhs).sup_coefficient()
                worst = max(worst, defect)
                if defect > tol and witness is None:
                    witness = (g.id, h.id, k.id)
    return SmebResult(worst <= tol, witness, worst)
