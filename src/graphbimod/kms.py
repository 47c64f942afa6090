"""Time evolution from the index weights and the traces it fixes.

A path scales under the flow by the product of index values along its
range vertices; the flow rotates a symbol by the ratio of the two path
scales.  States built from vertex weights satisfy the exchange relation
for the flow exactly on symbols (the flow and the exchange defect on
symbols are the test oracle in `tests/symbolic.py`); descending to the
quotient by the covariance relations additionally requires the weights to
reproduce themselves under the index-normalized edge sum, which is solved
here exactly, in integers class by class over the condensation, and
re-checked by `descent_residual`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Mapping

from .bimodule import GraphBimodule
from .fock import Path


def d_weight(module: GraphBimodule, path: Path) -> float:
    """Flow scale of a path: product of index values at the range vertices."""
    index = module.index_float
    out = 1.0
    for e in path.edges:
        out *= index[e.r]
    return out


class TraceState(namedtuple("TraceState", "module weights")):
    """Vertex weights defining a state on the symbol algebra.

    The value of a diagonal symbol (mu, mu) is the weight of the source of
    mu divided by the flow scale of mu; off-diagonal symbols get zero.
    Weights are kept as exact fractions, in a mapping by vertex name.
    """

    __slots__ = ()

    def float_weights(self) -> dict[str, float]:
        return {v: float(self.weights[v]) for v in self.module.vertices}

    def diagonal(self, mu: Path, c: complex) -> complex:
        """Value of c times the diagonal symbol (mu, mu)."""
        return c * float(self.weights[mu.s]) / d_weight(self.module, mu)


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


def _radius_vs_one(rows: list[list[int]], m: int) -> tuple[int, int]:
    """The sign of rho(K_C) - 1, and the last positive pivot (1 if none).

    The first m columns of rows hold M_C = diag(D * index) - D * N_C for a
    strong class C, each row divided by a positive integer; columns after
    them ride along.  Bareiss elimination in place, without pivoting, makes
    the k-th pivot a positive multiple of the k-th leading principal minor.
    The irreducible Z-matrix M_C is a nonsingular M-matrix (rho < 1) when
    all m are positive, a singular one (rho = 1) when only the last is 0,
    and no M-matrix (rho > 1) otherwise.
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


class TraceFamily(
    namedtuple(
        "TraceFamily",
        "module dimension basis canonical feasible",
        defaults=(-1, (), None, False),
    )
):
    """All states whose weights survive the quotient descent.

    basis holds one normalized weight vector per extreme ray of the cone
    of nonnegative solutions, ordered by the least vertex of its support;
    canonical is their average (the uniform state on a connected graph with
    unit weights).  feasible is False when the cone is {0}, and then
    canonical is None and dimension -1.  Vectors are Fractions by vertex.
    """

    __slots__ = ()


def invariant_traces(module: GraphBimodule) -> TraceFamily:
    """Solve w_v * index(v) = sum of w over edge sources at v, exactly.

    With K = diag(index)^-1 N, N[v][u] the number of edges from u to v, the
    extreme rays are one to one with the distinguished strong classes: C
    with rho(K_C) = 1 where every other class with access to C has rho < 1
    (Schneider, LAA 84, 1986).  The condensation is read last label first,
    one Bareiss elimination per class.  A class with rho = 1 starts a ray,
    its positive null vector; one with rho < 1 extends each ray that its
    successors carry by solving M_A x_A = D * N x; one with rho >= 1 ends
    each ray that reaches it.
    """
    verts = list(module.vertices)
    D = module.denominator
    members: list[list[int]] = [[] for _ in module.period]
    for v, c in enumerate(module.component):
        members[c].append(v)
    rays: list[list[int]] = []
    for c in reversed(range(len(members))):
        reaching = [x for x in rays if any(x[members[d][0]] for d in module.successors[c])]
        rays = [x for x in rays if x not in reaching]
        local = {v: i for i, v in enumerate(members[c])}
        m = len(local)
        rows = []
        for v in local:
            row = [0] * (m + len(reaching))
            diag = sum(a for _, a in module.integer_adjacency[v])
            g = math.gcd(D, diag)
            row[local[v]] = diag // g
            for e in module.edges_with_range(verts[v]):
                u = module.vertices.index(e.s)
                if u in local:
                    row[local[u]] -= D // g
                else:
                    for r, x in enumerate(reaching):
                        row[m + r] -= D // g * x[u]
            rows.append(row)
        sign, scale = _radius_vs_one(rows, m)
        if sign < 0:
            for r, x in enumerate(reaching):
                x[:] = [scale * a for a in x]
                for v, a in zip(local, _back_substitute(rows, m, m + r, scale)):
                    x[v] = a
                rays.append(x)
        elif sign == 0:
            rays.append([0] * len(verts))
            for v, a in zip(local, _back_substitute(rows, m - 1, m - 1, scale) + [scale]):
                rays[-1][v] = a

    if not rays:
        return TraceFamily(module)
    basis = []
    for x in sorted(rays, key=lambda x: next(v for v, a in enumerate(x) if a)):
        total = sum(x)
        basis.append({v: Fraction(a, total) for v, a in zip(verts, x)})
    canonical = {v: sum(b[v] for b in basis) / len(basis) for v in verts}
    return TraceFamily(module, len(basis) - 1, tuple(basis), TraceState(module, canonical), True)
