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
from operator import sub
from typing import Mapping

from .bimodule import Edge, GraphBimodule
from .fock import path_counts, path_totals
from .spectral import ResidueLimit, ResidueLimits, structural_zero


class ResidueUncertifiedError(RuntimeError):
    """A residue limit needed by the expectation did not certify."""


# -- the residue expectation ------------------------------------------------


class ConditionalExpectation:
    """The residue limits that weigh the expectation's diagonal symbols:
    one `spectral.ResidueLimits` for every class (range, source, length),
    each solved once and kept; an uncertified one raises
    `ResidueUncertifiedError`.  Every class read here is that of a path,
    so none is checked for a realizing path."""

    def __init__(self, module: GraphBimodule):
        self.module = module
        self._reports: dict[tuple[str, str, int], ResidueLimit] = {}
        self.limits = ResidueLimits(module)

    def residue(self, r: str, s: str, n: int) -> ResidueLimit:
        key = (r, s, n)
        if key not in self._reports:
            self._reports[key] = self.limits.limit(r, s, n)
        return self._reports[key]

    def limit(self, r: str, s: str, n: int) -> float:
        """Certified residue limit of the class (r, s, n)."""
        rep = self.residue(r, s, n)
        if not rep.converged:
            raise ResidueUncertifiedError(
                f"residue limit for class {rep.target} did not converge (method {rep.method})"
            )
        return rep.value


# -- the Gram by counting, and the commutators -----------------------------
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
# X is unitriangular, so by Sylvester's law of inertia a block's rank is
# its number of positive pivots.  A pivot is weight(nu_0) weight(rho) times
# a harmonic defect h of the residue class (r(nu_0), s(rho), |nu_0 rho|).
# The limits keep the path-sum identity of the growth ratios, so an inner
# pivot (|rho| < L) has h = 0, and a top one has h = c, the limit itself,
# positive off the growth gaps (`spectral.structural_zero`): there it is
# a Perron projection of a positive vector (Schneider, LAA 84, 1986).  So
# the rank is a count: per block, the top rho whose class is no structural
# zero.  No residue value enters it.  The identity and the positivity are
# certified instead: `GramData.harmonic_defect` reads each class once.
# One recursion counts the rho by (range, source), and one edge on the
# second legs nu_0; no path is built, and nothing is eigensolved.

# Operators whose quotient norm exceeds this have rank one: the zero test
# for residue round-off in the commutators
_TOL = 1e-10
# A run takes a step per second-leg group and first-leg length; the rest,
# the levels, the counts of the top rho and the certificate's class reads,
# grows with V^2 depth.  On a 2-CPU machine, `--timings` gram stage, median
# of 5: golden mean at depth 120, 86,878 steps, 0.024 s; tests/data/
# reducible_weighted.json at depth 40, 45,018 steps, 0.027 s; a 20-vertex
# graph with 3 edges per source at depth 20, 391,335 steps, 0.20 s; the
# complete graph on 20 vertices at depth 19, 2.9 million steps, 1.2 s.  At
# up to 0.6 us a step, this many keep a run under about 2 s
GRAM_MAX_PIVOTS = 3_000_000


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
        "vertex_names harmonic_defect gram_ranks basis_size blocks classes vacuum commutators",
    )
):
    """Ranks and positivity certificate of the vertex-sliced Gram of the
    depth-limited spanning family.

    `gram_ranks` are per vertex slice, in `vertex_names` order: the number
    of top pivots whose class is no structural zero.  `harmonic_defect`
    certifies the two facts that count rests on: it is the largest |h| / c
    over the inner classes (r, s, m), m < depth, with
    h = c(r, s, m) - sum over r(e) = s of w_e c(r, s(e), m+1), and inf
    when a class read, of any length up to the depth, has c <= 0; the
    structural zeros, with h = 0 exactly, are not read.  `basis_size`
    counts the spanning symbols, `blocks` the suffix-reduced symbols and
    `classes` the classes (r(nu_0), |nu_0|, s(nu_0), L) of the blocks.
    `vacuum` holds c(v), the Gram entry of the vacuum symbol (v, v), the
    rho = () member of the vacuum block of v.  `commutators` holds the
    report of [P, S_g] for each edge g, in edge order.
    """

    __slots__ = ()

    def operator_rank(self, row_norms: Mapping[str, float]) -> tuple[dict[str, int], int]:
        """Per-vertex rank in the quotient of an operator living on vacuum rows.

        row_norms[v] is the norm of the operator's one nonzero row, at the
        vacuum symbol (v, v), over any columns.  The quotient sends that
        symbol to a vector of norm sqrt(c(v)), so the operator has rank one
        at v when sqrt(c(v)) times the norm of the row exceeds _TOL, and
        zero otherwise.
        """
        ranks = {}
        for v, c in zip(self.vertex_names, self.vacuum):
            ranks[v] = int(math.sqrt(max(c, 0.0)) * row_norms.get(v, 0.0) > _TOL)
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
        f"the Gram at depth {depth} passes the limit of {GRAM_MAX_PIVOTS} steps (about 2 s)"
    )


def _scaled(hi: float, squares: float, x: float, xsquares: float) -> tuple[float, float]:
    """Blue's scaled sum of squares (ACM TOMS 4, 1978), as in LAPACK's
    dnrm2: the sums hi^2 squares and x^2 xsquares, added as the larger of
    hi and x and the sum over its square, which lies in [1, count] and
    neither underflows nor overflows."""
    if x > hi:
        hi, squares, x, xsquares = x, xsquares, hi, squares
    if x:
        squares += (x / hi) * (x / hi) * xsquares
    return hi, squares


def _class_levels(module: GraphBimodule, depth: int) -> tuple[list[dict], dict]:
    """Count the paths of length <= depth by residue class, level by level.

    Returns (levels, legs).  Level j maps (r(rho), s(rho)) to the cell
    [count, greatest weight, sum of (weight / greatest weight)^2] of the rho
    of length j.  `legs` maps (r(nu), |nu|, s(nu), r of the last edge of nu
    or None) to the count of the paths nu of length <= depth: the second
    legs of the Gram, the cells one edge on.  No path is built.  Weights are
    multiplied left to right from 1.0, as a path weight is taken, and
    rounding is monotone, so the greatest weight is that of the rounded path
    weights.  Keys come in the order of their first path in
    paths(module, j).

    Each leg group costs `gram` depth + 1 steps, so it raises once the
    groups pass `GRAM_MAX_PIVOTS` steps, as it counts them.
    """
    levels = [{(v, v): [1, 1.0, 1.0] for v in module.vertices}]
    legs = {(v, 0, v, None): 1 for v in module.vertices}
    edges_in = module.edges_with_range
    for n in range(1, depth + 1):
        prev, level = levels[-1], {}
        if n == 1:  # paths(module, 1) lists the edges in module order
            steps = [((e.r, e.r), (e,)) for e in module.edges]
        else:
            steps = [(key, edges_in(key[1])) for key in prev]
        for (r0, s), out in steps:
            k, hi, squares = prev[r0, s]
            for e in out:
                cell = level.setdefault((r0, e.s), [0, 0.0, 0.0])
                cell[0] += k
                cell[1:] = _scaled(cell[1], cell[2], hi * e.weight, squares)
                leg = (r0, n, e.s, s)
                legs[leg] = legs.get(leg, 0) + k
            if len(legs) * (depth + 1) > GRAM_MAX_PIVOTS:
                raise _pivot_limit(depth)
        levels.append(level)
    return levels, legs


def gram(
    module: GraphBimodule, depth: int, expectation: ConditionalExpectation
) -> GramData:
    """Ranks, positivity certificate and commutators of the depth-limited
    spanning family.

    One recursion, `_class_levels`, counts the paths of length <= depth by
    (range, source) without building one: by range, they are the rho cells
    of the blocks, and one edge on, the second legs nu_0.  The first legs
    mu_0 of each length a with source s(nu_0) are counted: all of them,
    less those ending in the last edge e of nu_0, which would share it,
    counted as the length-(a-1) paths with source r(e).  A block adds to
    the rank of r(nu_0) its top rho whose class is no structural zero, read
    from the growth profile; no residue is read for a rank.  More than
    `GRAM_MAX_PIVOTS` steps raise `ValueError` while the paths are counted,
    before any residue is read.

    The certificate then reads each class (r, s, m), m <= depth, that is no
    structural zero, once, through `ConditionalExpectation.limit`, so an
    uncertified class raises `ResidueUncertifiedError`.  The order is r in
    vertex order, then m, then s in the order of the first path of length
    m from s to r in paths(module, m): the first uncertified class a run
    names is the first in that order.

    P is the projection onto the plain path symbols: it sends (mu, nu) to
    the path symbol of the head of mu, scaled by c(nu), when the tail of
    mu is nu, and to zero otherwise.  Take a column (rho, sigma) of
    [P, S_g] with r(rho) = s(g).  When |sigma| <= |rho|, the two terms of
    the commutator land on the same plain symbol with the same coefficient
    and cancel; when |sigma| = |rho| + 1, only sigma = g rho survives, in
    the vacuum row (r(g), r(g)), with the residue coefficient of g rho.  So
    the commutator is that one row, over the rho cells of s(g) shorter
    than the depth, with the residues of the row (r(g), 1, s(g)), and
    `GramData.operator_rank` ranks its norm.  The prediction is one at
    r(g) when a coefficient exceeds the rank tolerance, zero elsewhere; the
    vacuum coefficient is one, so the two agree.
    """
    counts = path_counts(module, depth)
    vertices = module.vertices
    levels, legs = _class_levels(module, depth)
    # u -> the cells (s(rho), cell) of the rho with range u, by length
    rhos: dict[str, list[list[tuple[str, list]]]] = {u: [[] for _ in levels] for u in vertices}
    for j, level in enumerate(levels):
        for (u, s), cell in level.items():
            rhos[u][j].append((s, cell))

    # (r(nu_0), |nu_0|, s(nu_0)) -> L -> blocks.  The first legs of length
    # a <= |nu_0| leave L = depth - |nu_0|, and a longer one L = depth - a
    classes: dict[tuple[str, int, str], dict[int, int]] = {leg[:3]: {} for leg in legs}
    by_source = {v: [level[v] for level in counts] for v in vertices}
    for (r0, n, u, shared), count in legs.items():
        mults = by_source[u]
        if shared is not None:
            mults = mults[:1] + list(map(sub, mults[1:], by_source[shared]))
        by_depth = classes[r0, n, u]
        by_depth[depth - n] = by_depth.get(depth - n, 0) + count * sum(mults[: n + 1])
        for L, mult in zip(range(depth - n - 1, -1, -1), mults[n + 1 :]):
            if mult:
                by_depth[L] = by_depth.get(L, 0) + count * mult
    profile = expectation.limits.profile
    live = {r: {s for s in vertices if not structural_zero(profile, r, s)} for r in vertices}
    # (r(nu_0), u, L) -> the top rho of the blocks that count
    tops: dict[tuple[str, str, int], int] = {}
    ranks = dict.fromkeys(vertices, 0)
    for (r0, n, u), by_depth in classes.items():
        for L, blocks in by_depth.items():
            key = (r0, u, L)
            if key not in tops:
                tops[key] = sum(cell[0] for s, cell in rhos[u][L] if s in live[r0])
            ranks[r0] += blocks * tops[key]

    edges_in = module.edges_with_range
    defect = 0.0
    for r in vertices:
        row = [{s: expectation.limit(r, s, m) for s, _ in level if s in live[r]}
               for m, level in enumerate(rhos[r])]
        for m, here in enumerate(row):
            after = row[m + 1] if m < depth else None
            for s, c in here.items():
                h = 0.0 if after is None else c - sum(
                    e.weight * after.get(e.s, 0.0) for e in edges_in(s))
                defect = max(defect, abs(h) / c if c > 0 else math.inf)
    fields = dict(
        vertex_names=tuple(vertices),
        harmonic_defect=defect,
        gram_ranks=tuple(ranks.values()),
        basis_size=_symbol_count(counts),
        blocks=sum(sum(by_depth.values()) for by_depth in classes.values()),
        classes=sum(map(len, classes.values())),
        vacuum=tuple(expectation.limit(v, v, 0) for v in vertices),
    )
    data = GramData(**fields, commutators=())
    # the row (r(g), 1, s(g)) to the depth; at depth 0 there is none, and
    # no rho to read
    rows: dict[tuple[str, str], list[dict[str, float]]] = {}
    for g in module.edges:
        if (g.r, g.s) not in rows:
            rows[g.r, g.s] = [{s: expectation.limit(g.r, s, 1 + j) for s, _ in level}
                              for j, level in enumerate(rhos[g.s][:depth])]
    reports = tuple(
        _commutator(data, g, rhos[g.s][:depth], rows[g.r, g.s]) for g in module.edges
    )
    return GramData(**fields, commutators=reports)


def _commutator(data: GramData, g: Edge, walk, res) -> CommutatorReport:
    """[P, S_g] from the rho cells `walk` of s(g) and their residues `res`.

    A cell adds (weight(g) c)^2 times its sum of squared weights to the
    squared norm of the row, taken as a scaled sum (`_scaled`) over the
    cells' terms weight(g) (greatest weight) c, and its entries survive
    when the one of its greatest weight does.
    """
    scale, squares, survives = 0.0, 0.0, False
    for level, limits in zip(walk, res):
        for s, (_, hi, cell_squares) in level:
            t = abs(g.weight * hi * limits[s])
            if t:
                scale, squares = _scaled(scale, squares, t, cell_squares)
                survives = survives or t > _TOL
    ranks, total = data.operator_rank({g.r: scale * math.sqrt(squares)})
    predicted = {v: int(v == g.r and survives) for v in data.vertex_names}
    return CommutatorReport(
        edge=g.id,
        ranks=ranks,
        total_rank=total,
        predicted=predicted,
        predicted_total=int(survives),
        matches=ranks == predicted and total == survives,
    )
