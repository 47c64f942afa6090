"""The residue expectation, and the Gram of the spanning family with the
compact commutators of the Fock projection.

A symbol (mu, nu), two paths with a common source, stands for the partial
isometry built from mu times the adjoint of the one built from nu.  The
expectation sends a symbol to zero unless mu equals nu, and weighs the
diagonal by the path weight times the residue limit of its class.  The
symbols themselves, their products and the expectation on them are the
test oracle in `tests/symbolic.py`; here the Gram and the commutators are
read from counted residue classes, and no symbol is built.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Mapping

from .bimodule import Edge, GraphBimodule
from .fock import path_counts, path_totals
from .spectral import ResidueLimit, ResidueLimits, residue_limit


class ResidueUncertifiedError(RuntimeError):
    """A residue limit needed by the expectation did not certify."""


# -- the residue expectation ------------------------------------------------


class ConditionalExpectation:
    """The residue limits that weigh the expectation's diagonal symbols:
    one `spectral.ResidueLimits` for every class (range, source, length),
    each solved once and kept; an uncertified one raises
    `ResidueUncertifiedError`."""

    def __init__(self, module: GraphBimodule):
        self.module = module
        self._reports: dict[tuple[str, str, int], ResidueLimit] = {}
        self.limits = ResidueLimits(module)

    def residue(self, r: str, s: str, n: int) -> ResidueLimit:
        key = (r, s, n)
        if key not in self._reports:
            self._reports[key] = residue_limit(self.limits, key)
        return self._reports[key]

    def limit(self, r: str, s: str, n: int) -> float:
        """Certified residue limit of the class (r, s, n)."""
        rep = self.residue(r, s, n)
        if not rep.converged:
            raise ResidueUncertifiedError(
                f"residue limit for class {rep.target} did not converge (method {rep.method})"
            )
        return rep.value


# -- the Gram by inertia, and the commutators ------------------------------
#
# Phi(x_i* x_j) vanishes unless one symbol extends the other by a common
# suffix, (mu_j, nu_j) = (mu_i rho, nu_i rho) or the reverse.  The Gram of
# the spanning family is therefore block-diagonal, one block per
# suffix-reduced symbol (mu_0, nu_0), the pair left after stripping the
# trailing edges mu and nu share.  The members of a block are
# (mu_0 rho, nu_0 rho) for the paths rho with range u = s(nu_0) and
# |rho| <= L = depth - max(|mu_0|, |nu_0|); two members pair to c, the
# coefficient of the longer second leg, when one rho is a prefix of the
# other, and to zero otherwise.  With X[a, rho] = 1 when a is a prefix of
# rho, the block is X diag(d) X^T, with the pivots
#
#     d(rho) = c(nu_0 rho) - sum over r(e) = s(rho) of c(nu_0 rho e)   if |rho| < L
#     d(rho) = c(nu_0 rho)                                          if |rho| = L.
#
# X is unitriangular, so by Sylvester's law of inertia a block is positive
# semidefinite exactly when its pivots are nonnegative, and its rank is
# the number of positive pivots.  A pivot is weight(nu_0) weight(rho) times
# a harmonic defect h of the residues, which depends on rho only through
# s(rho), |rho| and whether |rho| = L.  Path weights are positive, so a
# pivot has the sign of h: the rank is a sum over the residue classes
# (r(nu_0), |nu_0|, u, L) of integer path counts, and the weights enter
# only the lowest pivot, through their extremes.  One recursion counts the
# rho by (range, source), and one edge on the second legs nu_0; no path is
# built, and nothing is eigensolved.

# Harmonic defects above this count towards the rank, and so do operators
# whose quotient norm exceeds it: the zero test for residue round-off
_TOL = 1e-10
# A run takes a step per second-leg group and first-leg length, and one per
# rho cell of each class row.  On a 2-CPU machine a step took 1.7-2.9 us
# with closed-form residues: golden mean at depth 120, 0.14 million steps,
# 0.34 s; a 20-vertex graph with 3 edges per source at depth 20, 1.5
# million, 4.3 s.  So this many keep a run under about 10 s.  A reducible
# graph's residues, solved once per reach radius, add little:
# tests/data/reducible_weighted.json at depth 40, 76 thousand steps, takes
# 0.22 s wall and 0.10 s in its Gram, 1.4 us a step (medians of 5)
GRAM_MAX_PIVOTS = 4_000_000


def _symbol_count(counts: list[dict[str, int]]) -> int:
    """Number of symbols (mu, nu) with |mu|, |nu| <= depth and s(mu) = s(nu),
    from the path counts by source to that depth."""
    return sum(t * t for t in path_totals(counts).values())


class CommutatorReport(
    namedtuple(
        "CommutatorReport", "edge ranks total_rank predicted predicted_total matches"
    )
):
    """Commutator of the projection with one edge isometry.

    `ranks` and `predicted` are the measured and predicted ranks by vertex,
    `total_rank` and `predicted_total` their sums, and `matches` whether
    the two agree.
    """

    __slots__ = ()


class GramData(
    namedtuple(
        "GramData",
        "vertex_names psd_min gram_ranks basis_size blocks classes vacuum commutators",
    )
):
    """Inertia of the vertex-sliced Gram of the depth-limited spanning family.

    `gram_ranks` and `psd_min` are per vertex slice, in `vertex_names`
    order: the number of positive pivots, and the lowest pivot, capped at
    0 when other slices exist, since the symbols of those are zero rows of
    this one.  `basis_size` counts the spanning symbols, `blocks` the
    suffix-reduced symbols and `classes` the residue classes
    (r(nu_0), |nu_0|, s(nu_0), L) of the blocks, each solved once.
    `vacuum` holds c(v), the Gram entry of the vacuum symbol (v, v), the
    rho = () member of the vacuum block of v.  `commutators` holds the
    report of [P, S_g] for each edge g, in edge order.
    """

    __slots__ = ()

    def operator_rank(
        self, row_norms: Mapping[str, float]
    ) -> tuple[dict[str, int], int]:
        """Per-vertex rank in the quotient of an operator living on vacuum rows.

        row_norms[v] is the squared norm of the operator's one nonzero row,
        at the vacuum symbol (v, v), over any columns.  The quotient sends
        that symbol to a vector of norm sqrt(c(v)), so the operator has
        rank one at v when sqrt(c(v)) times the norm of the row exceeds
        _TOL, and zero otherwise.
        """
        ranks = {}
        for v, c in zip(self.vertex_names, self.vacuum):
            norm = math.sqrt(row_norms.get(v, 0.0))
            ranks[v] = int(math.sqrt(max(c, 0.0)) * norm > _TOL)
        return ranks, sum(ranks.values())

    def isometry_defect(self) -> float:
        """Worst deviation of the plain path block from the identity.

        Path symbols with an empty second leg pair to the point mass at
        their common source when equal and to zero otherwise, so the
        module map from the path space is isometric.  Each such symbol is
        the rho = () member of a block with nu_0 = (), whose entry is the
        vacuum coefficient c(v); every residue branch fixes it at one.
        """
        return max(abs(c - 1.0) for c in self.vacuum)


def _pivot_limit(depth: int) -> ValueError:
    return ValueError(
        f"the Gram at depth {depth} passes the limit of {GRAM_MAX_PIVOTS} steps (about 10 s)"
    )


def _fold(cell: list, other: list) -> None:
    """Add `other` into `cell`: [count, least weight, greatest weight], and
    for a rho cell the sum of squared weights."""
    cell[0] += other[0]
    if other[1] < cell[1]:
        cell[1] = other[1]
    if other[2] > cell[2]:
        cell[2] = other[2]
    if len(cell) > 3:
        cell[3] += other[3]


def _merge(table: dict, key, cell: list) -> None:
    old = table.setdefault(key, cell)
    if old is not cell:
        _fold(old, cell)


def _class_levels(module: GraphBimodule, depth: int) -> tuple[list[dict], dict]:
    """Count the paths of length <= depth by residue class, level by level.

    Returns (levels, legs).  Level j maps (r(rho), s(rho)) to the cell
    [count, least weight, greatest weight, sum of squared weights] of the
    rho of length j.  `legs` maps (r(nu), |nu|, s(nu), r of the last edge
    of nu or None) to [count, least weight, greatest weight] of the paths
    nu of length <= depth: the second legs of the Gram, the cells one edge
    on.  No path is built.  Weights are multiplied left to right from 1.0,
    as a path weight is taken, and rounding is monotone, so the extremes are
    those of the rounded path weights.  Keys come in the order of their
    first path in paths(module, j).

    Each leg group costs `gram` depth + 1 steps, so it raises once the
    groups pass `GRAM_MAX_PIVOTS` steps, as it counts them.
    """
    levels = [{(v, v): [1, 1.0, 1.0, 1.0] for v in module.vertices}]
    legs = {(v, 0, v, None): [1, 1.0, 1.0] for v in module.vertices}
    edges_in = module.edges_with_range
    for n in range(1, depth + 1):
        prev, level = levels[-1], {}
        if n == 1:  # paths(module, 1) lists the edges in module order
            steps = [((e.r, e.r), (e,)) for e in module.edges]
        else:
            steps = [(key, edges_in(key[1])) for key in prev]
        for (r0, s), out in steps:
            k, lo, hi, squares = prev[r0, s]
            for e in out:
                x = e.weight
                _merge(level, (r0, e.s), [k, lo * x, hi * x, squares * x * x])
                _merge(legs, (r0, n, e.s, s), [k, lo * x, hi * x])
            if len(legs) * (depth + 1) > GRAM_MAX_PIVOTS:
                raise _pivot_limit(depth)
        levels.append(level)
    return levels, legs


def _lowest(blocks: list, lo: float, hi: float, h: float) -> float:
    """The lowest pivot weight(nu_0) weight(rho) h over the weight(nu_0)
    extremes of `blocks` and the extremes lo, hi of a rho cell."""
    return blocks[1] * lo * h if h >= 0 else blocks[2] * hi * h


def gram(
    module: GraphBimodule, depth: int, expectation: ConditionalExpectation
) -> GramData:
    """Ranks, positivity and commutators of the depth-limited spanning family.

    One recursion, `_class_levels`, counts the paths of length <= depth by
    (range, source) without building one: by range, they are the rho cells
    of the blocks, and one edge on, the second legs nu_0.  The first legs
    mu_0 of each length a with source s(nu_0) are counted: all of them,
    less those ending in the last edge e of nu_0, which would share it,
    counted as the length-(a-1) paths with source r(e).  Each residue
    class (r(nu_0), |nu_0|, s(nu_0)) reads its row of residues once, in
    (|rho|, rho) order, through `ConditionalExpectation.limit`, so an
    uncertified class raises `ResidueUncertifiedError`; only classes of
    length <= depth are read.  A pivot counts towards the rank when its
    harmonic defect h exceeds the tolerance; the lowest pivot is
    weight(nu_0) weight(rho) h at the least weights when h >= 0 and at the
    greatest when h < 0.  More than `GRAM_MAX_PIVOTS` steps raise
    `ValueError` while the classes are counted, before any residue is read.

    P is the projection onto the plain path symbols: it sends (mu, nu) to
    the path symbol of the head of mu, scaled by c(nu), when the tail of
    mu is nu, and to zero otherwise.  Take a column (rho, sigma) of
    [P, S_g] with r(rho) = s(g).  When |sigma| <= |rho|, the two terms of
    the commutator land on the same plain symbol with the same coefficient
    and cancel; when |sigma| = |rho| + 1, only sigma = g rho survives, in
    the vacuum row (r(g), r(g)), with the residue coefficient of g rho.  So
    the commutator is that one row, over the rho cells of s(g) shorter
    than the depth, with the residues of the row (r(g), 1, s(g)) that the
    class of nu_0 = g has read, and `GramData.operator_rank` ranks its
    squared norm.  The prediction is one at r(g) when a coefficient
    exceeds the rank tolerance, zero elsewhere; the vacuum coefficient is
    one, so the two agree.
    """
    counts = path_counts(module, depth)
    vertices = module.vertices
    vidx = {v: i for i, v in enumerate(vertices)}
    levels, legs = _class_levels(module, depth)
    # u -> the cells (s(rho), cell) of the rho with range u, by length
    rhos: dict[str, list[list[tuple[str, list]]]] = {u: [[] for _ in levels] for u in vertices}
    for j, level in enumerate(levels):
        for (u, s), cell in level.items():
            rhos[u][j].append((s, cell))

    # (r(nu_0), |nu_0|, s(nu_0)) -> L -> [blocks, least and greatest
    # weight(nu_0)].  Every leg has a block with a = 0, so every class
    # reads its row to L = depth - |nu_0|
    classes: dict[tuple[str, int, str], dict[int, list]] = {leg[:3]: {} for leg in legs}
    steps = len(legs) * (depth + 1)
    steps += sum(len(level) for _, n, u in classes for level in rhos[u][: depth - n + 1])
    if steps > GRAM_MAX_PIVOTS:
        raise _pivot_limit(depth)
    for (r0, n, u, shared), (count, lo, hi) in legs.items():
        for a in range(depth + 1):
            mult = counts[a][u]
            if shared is not None and a:
                mult -= counts[a - 1][shared]
            if mult:
                _merge(classes[r0, n, u], depth - max(a, n), [count * mult, lo, hi])

    # (r(nu_0), s(rho), |nu_0 rho|) -> the weighted residues one edge on
    outflow: dict[tuple[str, str, int], float] = {}
    # (r(nu_0), |nu_0|, u) -> the residues of the rho levels, by level and s(rho)
    rows: dict[tuple[str, int, str], list[dict[str, float]]] = {}
    edges_in = module.edges_with_range
    V = len(vertices)
    low = [math.inf] * V
    ranks = [0] * V
    for (r0, n, u), by_depth in classes.items():
        top = depth - n
        walk = rhos[u][: top + 1]
        # the row is read level by level, each level in the order of its
        # cells, that of their first rho: so the classes are first read in
        # the order of the rho themselves, the order that decides which
        # uncertified class a failing run names
        res = rows[r0, n, u] = [
            {s: expectation.limit(r0, s, n + j) for s, _ in level}
            for j, level in enumerate(walk)
        ]
        rank, lowest = 0, math.inf
        # the blocks with L above level j, for which its pivots are inner
        deeper = [0, math.inf, -math.inf]
        for j in range(top, -1, -1):
            here = by_depth.get(j)
            for s, (k, lo, hi, _) in walk[j]:
                c = res[j][s]
                if here:
                    rank += here[0] * k * (c > _TOL)
                    lowest = min(lowest, _lowest(here, lo, hi, c))
                if j < top:
                    key = (r0, s, n + j)
                    if key not in outflow:
                        outflow[key] = sum(e.weight * res[j + 1][e.s] for e in edges_in(s))
                    h = c - outflow[key]
                    rank += deeper[0] * k * (h > _TOL)
                    lowest = min(lowest, _lowest(deeper, lo, hi, h))
            if here:
                _fold(deeper, here)
        vi = vidx[r0]
        low[vi] = min(low[vi], lowest)
        ranks[vi] += rank
    fields = dict(
        vertex_names=tuple(vertices),
        psd_min=tuple(min(lo, 0.0) if V > 1 else lo for lo in low),
        gram_ranks=tuple(ranks),
        basis_size=_symbol_count(counts),
        blocks=sum(b[0] for by_depth in classes.values() for b in by_depth.values()),
        classes=sum(map(len, classes.values())),
        vacuum=tuple(expectation.limit(v, v, 0) for v in vertices),
    )
    data = GramData(**fields, commutators=())
    # the class (r(g), 1, s(g)) has read the row of g to the depth; at
    # depth 0 there is none, and no rho to read
    reports = tuple(
        _commutator(data, g, rhos[g.s][:depth], rows.get((g.r, 1, g.s), ()))
        for g in module.edges
    )
    return GramData(**fields, commutators=reports)


def _commutator(data: GramData, g: Edge, walk, res) -> CommutatorReport:
    """[P, S_g] from the rho cells `walk` of s(g) and their residues `res`.

    A cell adds (weight(g) c)^2 times its sum of squared weights to the
    squared norm of the row, and its entries survive when the one of its
    greatest weight does.
    """
    norm2, survives = 0.0, False
    for level, limits in zip(walk, res):
        for s, (_, _, hi, squares) in level:
            c = limits[s]
            # a product, not ** 2: a square past the double range is inf, and inf * 0 nan
            if c:
                norm2 += (g.weight * c) * (g.weight * c) * squares
                survives = survives or abs(g.weight * hi * c) > _TOL
    ranks, total = data.operator_rank({g.r: norm2})
    predicted = {v: int(v == g.r and survives) for v in data.vertex_names}
    return CommutatorReport(
        edge=g.id,
        ranks=ranks,
        total_rank=total,
        predicted=predicted,
        predicted_total=int(survives),
        matches=ranks == predicted and total == survives,
    )
