"""Time evolution from the index weights and the traces it fixes.

A path scales under the flow by the product of index values along its
range vertices; the flow rotates a symbol by the ratio of the two path
scales.  States built from vertex weights satisfy the exchange relation
for the flow exactly on symbols; descending to the quotient by the
covariance relations additionally requires the weights to reproduce
themselves under the index-normalized edge sum, which is solved here
exactly in rational arithmetic and re-checked by `descent_residual`.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from .algebra import AlgebraElement
from .bimodule import GraphBimodule
from .fock import FockVector, Path, right_inner

if TYPE_CHECKING:
    # imported where used: the kms route never loads the Kasparov module
    from .cuntz_pimsner import SpanningElement


def d_weight(module: GraphBimodule, path: Path) -> float:
    """Flow scale of a path: product of index values at the range vertices."""
    index = module.index_float
    out = 1.0
    for e in path.edges:
        out *= index[e.r]
    return out


def gamma(module: GraphBimodule, x: SpanningElement, t: float) -> SpanningElement:
    """Flow at time t: symbol (mu, nu) rotates by the scale ratio to the power it."""
    from .cuntz_pimsner import SpanningElement

    out = {}
    for (mu, nu), c in x.terms.items():
        angle = math.log(d_weight(module, mu)) - math.log(d_weight(module, nu))
        out[(mu, nu)] = c * cmath.exp(1j * t * angle)
    return SpanningElement(module, out)


def gamma_minus_i(module: GraphBimodule, x: SpanningElement) -> SpanningElement:
    """Analytic continuation of the flow to -i: scales by the ratio itself."""
    from .cuntz_pimsner import SpanningElement

    out = {}
    for (mu, nu), c in x.terms.items():
        out[(mu, nu)] = c * d_weight(module, mu) / d_weight(module, nu)
    return SpanningElement(module, out)


class TraceState(namedtuple("TraceState", "module weights")):
    """Vertex weights defining a state on the symbol algebra.

    The value of a diagonal symbol (mu, mu) is the weight of the source of
    mu divided by the flow scale of mu; off-diagonal symbols get zero.
    Weights are kept as exact fractions, in a mapping by vertex name.
    """

    __slots__ = ()

    def weight(self, v: str) -> Fraction:
        return self.weights[v]

    def float_weights(self) -> dict[str, float]:
        return {v: float(self.weights[v]) for v in self.module.vertices}

    def mass(self) -> Fraction:
        return sum(self.weights[v] for v in self.module.vertices)

    def evaluate_algebra(self, a: AlgebraElement) -> complex:
        return sum(a[v] * float(self.weights[v]) for v in self.module.vertices)

    def diagonal(self, mu: Path, c: complex) -> complex:
        """Value of c times the diagonal symbol (mu, mu)."""
        return c * float(self.weights[mu.s]) / d_weight(self.module, mu)

    def evaluate(self, x: SpanningElement) -> complex:
        total = 0.0 + 0.0j
        for (mu, nu), c in x.terms.items():
            if mu == nu:
                total += self.diagonal(mu, c)
        return total


def tr_phi(trace: TraceState, xi: FockVector, eta: FockVector) -> complex:
    """Pairing of two Fock vectors through the state on the vertex algebra."""
    return trace.evaluate_algebra(right_inner(eta, xi))


def kms_check(
    module: GraphBimodule,
    trace: TraceState,
    x: SpanningElement,
    y: SpanningElement,
) -> float:
    """Exchange defect |phi(xy) - phi(gamma_{-i}(y) x)| for one pair.

    The state vanishes off the diagonal, so each side is summed over the
    term pairs whose product reduces to a diagonal symbol, without
    building xy or gamma_{-i}(y) x.  Each term keeps the arithmetic of
    the built products: the coefficient product, gamma's scale ratio
    d(sigma) / d(rho) on y's coefficient, then the weight over d(mu).
    """
    from .cuntz_pimsner import _check_pair, _compose_symbol

    lhs = rhs = 0.0 + 0.0j
    for (mu, nu), c in x.terms.items():
        for (sigma, rho), b in y.terms.items():
            xy = _compose_symbol(mu, nu, sigma, rho)
            if xy is not None:
                _check_pair(*xy)
                if xy[0] == xy[1]:
                    lhs += trace.diagonal(xy[0], c * b)
            yx = _compose_symbol(sigma, rho, mu, nu)
            if yx is not None:
                _check_pair(*yx)
                if yx[0] == yx[1]:
                    scaled = b * d_weight(module, sigma) / d_weight(module, rho)
                    rhs += trace.diagonal(yx[0], scaled * c)
    return abs(lhs - rhs)


# -- exact solve of the descent condition ----------------------------------


def descent_residual(module: GraphBimodule, weights: Mapping[str, Fraction]) -> Fraction:
    """Largest |w_v * index(v) - sum of w_{s(e)} over r(e) = v|, exactly.

    Zero exactly when the weights descend through the covariance relation
    p_v = sum over r(e) = v of S_e S_e*, the system `invariant_traces`
    solves; nonzero for a trace that breaks it, whatever the exchange
    relation says on symbols.
    """
    return max(
        abs(
            weights[v] * module.index_exact[v]
            - sum((weights[g.s] for g in module.edges_with_range(v)), Fraction(0))
        )
        for v in module.vertices
    )


def _rational_nullspace(rows: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Nullspace basis of a rational matrix by Gauss-Jordan elimination."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][col]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -mat[pr][fc]
        basis.append(vec)
    return basis


class TraceFamily(
    namedtuple(
        "TraceFamily",
        "module dimension basis canonical feasible",
        defaults=(-1, (), None, False),
    )
):
    """All states whose weights survive the quotient descent.

    basis holds one normalized weight vector per independent direction;
    canonical is their average (the uniform state on a connected graph
    with unit weights).  feasible is False when no nonnegative nonzero
    solution was found, in which case canonical is None and dimension -1.
    Each basis vector is a dict of Fractions by vertex name.
    """

    __slots__ = ()


def invariant_traces(module: GraphBimodule) -> TraceFamily:
    """Solve w_v * index(v) = sum of w over edge sources at v, exactly.

    The system splits over undirected components; each component either
    supports a unique normalized solution, supports none, or (for
    disconnected graphs) contributes an independent simplex direction.
    Sign-indefinite null directions are discarded since states need
    nonnegative weights.
    """
    verts = list(module.vertices)
    vidx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in module.edges:
        a, b = find(vidx[g.r]), find(vidx[g.s])
        if a != b:
            parent[a] = b
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)

    generators: list[list[Fraction]] = []
    for members in comps.values():
        local = {v: i for i, v in enumerate(members)}
        m = len(members)
        rows = []
        for v in members:
            row = [Fraction(0)] * m
            row[local[v]] += module.index_exact[verts[v]]
            for g in module.edges_with_range(verts[v]):
                row[local[vidx[g.s]]] -= 1
            rows.append(row)
        for vec in _rational_nullspace(rows, m):
            if all(x >= 0 for x in vec) or all(x <= 0 for x in vec):
                total = sum(vec)
                if total == 0:
                    continue
                norm = [x / total for x in vec]
                full = [Fraction(0)] * n
                for v, i in local.items():
                    full[v] = norm[i]
                generators.append(full)

    if not generators:
        return TraceFamily(module)
    count = len(generators)
    canonical_vec = [
        sum(g[i] for g in generators) / count for i in range(n)
    ]
    canonical = TraceState(
        module, {verts[i]: canonical_vec[i] for i in range(n)}
    )
    basis = tuple({verts[i]: g[i] for i in range(n)} for g in generators)
    return TraceFamily(module, count - 1, basis, canonical, True)
