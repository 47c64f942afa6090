"""Symbol algebra on path pairs, the residue expectation, the Gram of the
spanning family, and the compact commutators of the Fock projection.

An element is a finite combination of symbols (mu, nu), two paths with a
common source, standing for the partial isometry built from mu times the
adjoint of the one built from nu.  Products reduce by prefix matching, so
the combination is closed under multiplication and adjoint.  The
expectation sends a symbol to zero unless mu equals nu, and weighs the
diagonal by the path weight times the residue coefficient of its class.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping

from .algebra import AlgebraElement
from .bimodule import Edge, GraphBimodule
from .fock import Path, path_counts, path_totals, paths
from .spectral import GrowthTable, ResidueReport, eta_tilde


class ResidueUncertifiedError(RuntimeError):
    """A residue limit needed by the expectation did not certify."""


@dataclass(frozen=True)
class ResidueConfig:
    k_max: int = 200
    tol: float = 1e-10


def _check_pair(mu: Path, nu: Path) -> None:
    if mu.s != nu.s:
        raise ValueError(
            f"paths {mu.label()} and {nu.label()} have different sources"
        )


def _compose_symbol(
    mu1: Path, nu1: Path, mu2: Path, nu2: Path
) -> tuple[Path, Path] | None:
    """Reduce the product of two symbols to a single symbol, or None."""
    if mu2.extends(nu1):
        rest = mu2.tail(len(mu2) - len(nu1))
        return (mu1.concat(rest), nu2)
    if nu1.extends(mu2):
        rest = nu1.tail(len(nu1) - len(mu2))
        return (mu1, nu2.concat(rest))
    return None


class SpanningElement:
    """Finite combination of path-pair symbols with a common-source rule."""

    __slots__ = ("module", "terms")

    def __init__(
        self,
        module: GraphBimodule,
        terms: Mapping[tuple[Path, Path], complex] | None = None,
    ):
        self.module = module
        self.terms: dict[tuple[Path, Path], complex] = {}
        if terms:
            for (mu, nu), c in terms.items():
                _check_pair(mu, nu)
                c = complex(c)
                if c != 0:
                    self.terms[(mu, nu)] = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def symbol(cls, module: GraphBimodule, mu: Path, nu: Path) -> "SpanningElement":
        _check_pair(mu, nu)
        out = cls.__new__(cls)
        out.module = module
        out.terms = {(mu, nu): 1 + 0j}
        return out

    @classmethod
    def generator(cls, module: GraphBimodule, edge_id: str) -> "SpanningElement":
        e = module.edge(edge_id)
        return cls(module, {(Path((e,), e.r), Path((), e.s)): 1.0})

    @classmethod
    def from_algebra(cls, module: GraphBimodule, a: AlgebraElement) -> "SpanningElement":
        terms = {}
        for v in module.vertices:
            if a[v] != 0:
                p = Path((), v)
                terms[(p, p)] = a[v]
        return cls(module, terms)

    @classmethod
    def identity(cls, module: GraphBimodule) -> "SpanningElement":
        return cls.from_algebra(module, AlgebraElement.one(module.vertices))

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "SpanningElement") -> "SpanningElement":
        self._same(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return SpanningElement(self.module, out)

    def __sub__(self, other: "SpanningElement") -> "SpanningElement":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, SpanningElement):
            self._same(other)
            out: dict[tuple[Path, Path], complex] = {}
            for (m1, n1), c1 in self.terms.items():
                for (m2, n2), c2 in other.terms.items():
                    res = _compose_symbol(m1, n1, m2, n2)
                    if res is None:
                        continue
                    out[res] = out.get(res, 0.0) + c1 * c2
            return SpanningElement(self.module, out)
        z = complex(other)
        return SpanningElement(
            self.module, {k: z * c for k, c in self.terms.items()}
        )

    def __rmul__(self, other):
        return self * other

    def __neg__(self) -> "SpanningElement":
        return (-1.0) * self

    def adjoint(self) -> "SpanningElement":
        return SpanningElement(
            self.module,
            {(nu, mu): c.conjugate() for (mu, nu), c in self.terms.items()},
        )

    def _same(self, other: "SpanningElement") -> None:
        if other.module is not self.module:
            raise ValueError("elements belong to different modules")

    # -- inspection -----------------------------------------------------

    def degrees(self) -> set[int]:
        return {len(mu) - len(nu) for mu, nu in self.terms}

    def sup_coefficient(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def isclose(self, other: "SpanningElement", tol: float = 1e-12) -> bool:
        self._same(other)
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= tol
            for k in keys
        )

    def as_fock_matrix(self, k: int):
        """Level-k compression over the length-k path basis, a dense numpy matrix.

        Unbalanced symbols shift the level and are cut off by the
        compression, so only terms with equal path lengths contribute.
        """
        import numpy as np

        plist = paths(self.module, k)
        idx = {p: i for i, p in enumerate(plist)}
        M = np.zeros((len(plist), len(plist)), dtype=complex)
        by_len: dict[int, list[Path]] = {}
        for (mu, nu), c in self.terms.items():
            n = len(nu)
            if len(mu) != n or n > k:
                continue
            rest_len = k - n
            if rest_len not in by_len:
                by_len[rest_len] = paths(self.module, rest_len)
            for rho in by_len[rest_len]:
                if rho.r != nu.s:
                    continue
                M[idx[mu.concat(rho)], idx[nu.concat(rho)]] += c
        return M

    def __repr__(self) -> str:
        parts = []
        for (mu, nu), c in sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()),
        ):
            parts.append(f"{c:.4g}*S[{mu.label()}]S[{nu.label()}]*")
        return f"SpanningElement({' + '.join(parts) or '0'})"


def gauge_scaled(x: SpanningElement, theta: float) -> SpanningElement:
    """Circle action: each symbol picks up exp(i theta (|mu| - |nu|))."""
    return SpanningElement(
        x.module,
        {
            (mu, nu): c * cmath.exp(1j * theta * (len(mu) - len(nu)))
            for (mu, nu), c in x.terms.items()
        },
    )


def covariance_substitute(module: GraphBimodule, a: AlgebraElement) -> SpanningElement:
    """Difference between a vertex function and its edge-sum replacement.

    These elements generate the kernel of the quotient that identifies a
    vertex projection with the range sum of its edge isometries; any
    reasonable state of the quotient must kill them.
    """
    out = SpanningElement.from_algebra(module, a)
    for g in module.edges:
        coef = a[g.r]
        if coef == 0:
            continue
        p = Path((g,), g.r)
        out = out - coef * SpanningElement.symbol(module, p, p)
    return out


# -- the residue expectation ------------------------------------------------


class ConditionalExpectation:
    """Diagonal expectation weighted by residue coefficients.

    Symbols with mu != nu are sent to zero.  A diagonal symbol (mu, mu)
    contributes its path weight times the residue limit of the class
    (range, source, length) of mu, placed at the range vertex.  One growth
    table, `table`, up to the configured k_max serves every class, and
    residue reports are kept per class; an unconverged limit raises
    `ResidueUncertifiedError`.
    """

    def __init__(self, module: GraphBimodule, config: ResidueConfig | None = None):
        self.module = module
        self.config = config or ResidueConfig()
        self._reports: dict[tuple[str, str, int], ResidueReport] = {}
        self.table = GrowthTable(module, self.config.k_max)

    def residue(self, r: str, s: str, n: int) -> ResidueReport:
        key = (r, s, n)
        if key not in self._reports:
            self._reports[key] = eta_tilde(self.table, key, tol=self.config.tol)
        return self._reports[key]

    def limit(self, r: str, s: str, n: int) -> float:
        """Certified residue limit of the class (r, s, n)."""
        rep = self.residue(r, s, n)
        if not rep.converged:
            raise ResidueUncertifiedError(
                f"residue limit for class {rep.target} did not converge "
                f"(method {rep.method}, k_max {rep.k_max})"
            )
        return rep.value

    def coeff(self, mu: Path) -> float:
        return mu.weight * self.limit(mu.r, mu.s, len(mu))

    def phi(self, x: SpanningElement) -> AlgebraElement:
        vals = [0j] * len(self.module.vertices)
        for (mu, nu), c in x.terms.items():
            if mu == nu:
                vals[self.module.vertices.index(mu.r)] += c * self.coeff(mu)
        return AlgebraElement(self.module.vertices, vals)

    def finite_level(self, x: SpanningElement, k: int) -> AlgebraElement:
        """Level-k compression average, the finite stage of the limit.

        Equals the diagonal sum of the level-k compression of x divided by
        the k-step index, computed without forming the level matrix.  The
        level must not exceed the configured k_max.
        """
        if k > self.table.k_max:
            raise ValueError(f"level {k} above k_max {self.table.k_max}")
        vals = [0j] * len(self.module.vertices)
        for (mu, nu), c in x.terms.items():
            if mu != nu:
                continue
            if len(mu) > k:
                raise ValueError(f"level {k} below symbol length {len(mu)}")
            ratio = self.table.ratio(mu.s, mu.r, len(mu), k)
            vals[self.module.vertices.index(mu.r)] += c * mu.weight * ratio
        return AlgebraElement(self.module.vertices, vals)

    def partition_defect(self) -> float:
        """Deviation of the weighted edge residues from a partition of one."""
        worst = 0.0
        for v in self.module.vertices:
            total = 0.0
            for g in self.module.edges_with_range(v):
                total += self.coeff(Path((g,), g.r))
            worst = max(worst, abs(total - 1.0))
        return worst


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
# a harmonic defect of the residues, which depends on rho only through
# s(rho) and |rho|; the block as a whole depends only on its signature
# (r(nu_0), |nu_0|, weight(nu_0), u, L).  One counted walk groups the rho,
# which the commutators read too, and one edge on gives the second legs
# nu_0; no path is built, and nothing is eigensolved.  A run costs one
# pivot per signature and rho group.

# Gram pivots above this count towards the rank, and so do operators whose
# quotient norm exceeds it
_TOL = 1e-10
# On a 2-CPU machine, one run each, a pivot took 1.8-2.4 us, residues
# included: 4 vertices with weights 0.1 to 3 at depth 13, 2.68 million
# pivots, 5.5 s; O2 with weights 0.1 and 3 at depth 30, 2.58 million,
# 4.5 s; golden mean at depth 100, 0.72 million, 1.7 s.  So this many keep
# a run under about 10 s
GRAM_MAX_PIVOTS = 4_000_000


def spanning_basis_size(module: GraphBimodule, depth: int) -> int:
    """Number of symbols (mu, nu) with |mu|, |nu| <= depth and s(mu) = s(nu).

    Read from path counts by source, so no path is enumerated.
    """
    return _symbol_count(path_counts(module, depth))


def _symbol_count(counts: list[dict[str, int]]) -> int:
    return sum(t * t for t in path_totals(counts).values())


@dataclass(frozen=True)
class CommutatorReport:
    """Commutator of the projection with one edge isometry."""

    edge: str
    ranks: dict[str, int]
    total_rank: int
    predicted: dict[str, int]
    predicted_total: int
    surviving: int
    matches: bool


@dataclass(frozen=True)
class GramData:
    """Inertia of the vertex-sliced Gram of the depth-limited spanning family.

    `gram_ranks` and `psd_min` are per vertex slice, in `vertex_names`
    order: the number of positive pivots, and the lowest pivot, capped at
    0 when other slices exist, since the symbols of those are zero rows of
    this one.  `basis_size` counts the spanning symbols, `blocks` the
    suffix-reduced symbols and `signatures` the distinct blocks, each
    solved once.  `vacuum` holds c(v), the Gram entry of the vacuum symbol
    (v, v), the rho = () member of the vacuum block of v.  `commutators`
    holds the report of [P, S_g] for each edge g, in edge order.
    """

    vertex_names: tuple[str, ...]
    psd_min: tuple[float, ...]
    gram_ranks: tuple[int, ...]
    basis_size: int
    blocks: int
    signatures: int
    vacuum: tuple[float, ...]
    commutators: tuple[CommutatorReport, ...]

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
        f"the Gram at depth {depth} passes the limit of {GRAM_MAX_PIVOTS} pivots (about 10 s)"
    )


def _extensions(module: GraphBimodule, level: dict, j: int):
    """The keys of paths of length j, each with the edges that extend it.

    Yields (r(rho), s(rho), weight(rho), count, edges e) for the keys of
    `level` in order, where rho e is a path one edge longer.  At length 0
    each vertex r(e) is extended by e alone, for e in module.edges in
    order; from there each key by the edges with range s(rho), in id
    order.
    """
    if j == 0:
        return ((e.r, e.r, 1.0, 1, (e,)) for e in module.edges)
    edges_in = module.edges_with_range
    return ((r0, s, w, k, edges_in(s)) for (r0, s, w), k in level.items())


def _rho_levels(module: GraphBimodule, depth: int) -> list[dict[tuple[str, str, float], int]]:
    """Count the paths rho of length <= depth by (r(rho), s(rho), weight(rho)).

    Level j maps a key to the number of rho of length j with it.  The paths
    are walked level by level as counted keys, by `_extensions`, so none is
    built, and the weight is multiplied left to right from 1.0, as
    Path.weight does.  The keys of a level therefore come in the order of
    their first path in paths(module, j).

    It raises past `GRAM_MAX_PIVOTS` pivots of the vacuum blocks as it
    walks: every vertex is the source of paths of every length, so the
    block of u has a signature with L = depth - a for each a <= depth, and
    each has a pivot per key with range u of length <= L.
    """
    levels = [{(v, v, 1.0): 1 for v in module.vertices}]
    pivots = 0
    for j in range(1, depth + 1):
        uses = depth - j + 1
        level: dict[tuple[str, str, float], int] = {}
        for r0, s, w, k, out in _extensions(module, levels[-1], j - 1):
            for e in out:
                key = (r0, e.s, w * e.weight)
                level[key] = level.get(key, 0) + k
            if pivots + len(level) * uses > GRAM_MAX_PIVOTS:
                raise _pivot_limit(depth)
        pivots += len(level) * uses
        levels.append(level)
    return levels


def gram(
    module: GraphBimodule, depth: int, expectation: ConditionalExpectation
) -> GramData:
    """Ranks, positivity and commutators of the depth-limited spanning family.

    One walk, `_rho_levels`, counts the paths of length <= depth by key
    without building one: by range, they are the rho groups of the blocks,
    and one edge on, the second legs nu_0.  The first legs mu_0 of each
    length a with source s(nu_0) are
    counted: all of them, less those ending in the last edge e of nu_0,
    which would share it, counted as the length-(a-1) paths with source
    r(e).  Each signature (r(nu_0), |nu_0|, weight(nu_0), s(nu_0), L) is
    solved once, with one pivot per rho group of length <= L.  Residues
    are read through `ConditionalExpectation.limit`, in (|rho|, rho)
    order, so an uncertified class raises `ResidueUncertifiedError`; only
    classes of length <= depth are read.  More than `GRAM_MAX_PIVOTS`
    pivots raise `ValueError` while the keys are counted, before any
    residue is read.

    P is the projection onto the plain path symbols: it sends (mu, nu) to
    the path symbol of the head of mu, scaled by c(nu), when the tail of
    mu is nu, and to zero otherwise.  Take a column (rho, sigma) of
    [P, S_g] with r(rho) = s(g).  When |sigma| <= |rho|, the two terms of
    the commutator land on the same plain symbol with the same coefficient
    and cancel; when |sigma| = |rho| + 1, only sigma = g rho survives, in
    the vacuum row (r(g), r(g)), with the residue coefficient of g rho.  So
    the commutator is that one row, over the rho groups of s(g) shorter
    than the depth, with the residues of the row (r(g), 1, s(g)) that the
    signatures of nu_0 = g have read, and `GramData.operator_rank` ranks
    its squared norm.  The prediction is one at r(g) when a surviving
    coefficient exceeds the rank tolerance, zero elsewhere; the vacuum
    coefficient is one, so the two agree.
    """
    counts = path_counts(module, depth)
    vertices = module.vertices
    vidx = {v: i for i, v in enumerate(vertices)}
    levels = _rho_levels(module, depth)
    # u -> the rho with range u by length, grouped by (s(rho), weight(rho))
    rhos: dict[str, list[dict[tuple[str, float], int]]] = {
        u: [{} for _ in levels] for u in vertices
    }
    for j, level in enumerate(levels):
        for (u, s, w), k in level.items():
            rhos[u][j][(s, w)] = k
    # u -> number of rho groups of length <= L, by L
    groups = {u: list(itertools.accumulate(map(len, walk))) for u, walk in rhos.items()}

    # the second legs: each vertex, and each rho of length < depth extended
    # by an edge e, so that the range of the last edge is s(rho).  A leg key
    # that two (rho, e) reach comes twice, first in the order of its first
    # path, and the second only adds blocks to the signatures of the first
    legs = itertools.chain(
        ((v, 0, 1.0, v, None, 1) for v in vertices),
        (
            (r0, j + 1, w * e.weight, e.s, s, k)
            for j in range(depth)
            for r0, s, w, k, out in _extensions(module, levels[j], j)
            for e in out
        ),
    )
    # signature -> number of blocks that have it
    signatures: dict[tuple[str, int, float, str, int], int] = {}
    pivots = 0
    for r0, n, w0, u, shared, count in legs:
        for a in range(depth + 1):
            mult = counts[a][u]
            if shared is not None and a:
                mult -= counts[a - 1][shared]
            if mult:
                L = depth - max(a, n)
                key = (r0, n, w0, u, L)
                if key not in signatures:
                    signatures[key] = 0
                    pivots += groups[u][L]
                    if pivots > GRAM_MAX_PIVOTS:
                        raise _pivot_limit(depth)
                signatures[key] += count * mult

    # (r(nu_0), s(rho), |nu_0 rho|) -> the weighted residues one edge on
    outflow: dict[tuple[str, str, int], float] = {}
    # (r(nu_0), |nu_0|, u) -> the residues of the rho levels, by level and
    # s(rho); a row is read only as deep as its signatures need
    rows: dict[tuple[str, int, str], list[dict[str, float]]] = {}
    edges_in = module.edges_with_range
    V = len(vertices)
    low = [math.inf] * V
    ranks = [0] * V
    for (r0, n, w0, u, L), mult in signatures.items():
        walk = rhos[u][: L + 1]
        # a row grows level by level, each level in the order of its
        # groups, that of their first rho, before any pivot: so the classes
        # are first read signature by signature in the order of the rho
        # themselves, the order that decides which uncertified class a
        # failing run names
        res = rows.setdefault((r0, n, u), [])
        for j in range(len(res), L + 1):
            res.append({s: expectation.limit(r0, s, n + j) for s, _ in walk[j]})
        lowest, rank = math.inf, 0
        for j, level in enumerate(walk):
            for (s, w), k in level.items():
                h = res[j][s]
                if j < L:
                    key = (r0, s, n + j)
                    if key not in outflow:
                        outflow[key] = sum(e.weight * res[j + 1][e.s] for e in edges_in(s))
                    h -= outflow[key]
                d = w0 * w * h
                lowest = min(lowest, d)
                if d > _TOL:
                    rank += k
        vi = vidx[r0]
        low[vi] = min(low[vi], lowest)
        ranks[vi] += mult * rank
    data = GramData(
        vertex_names=tuple(vertices),
        psd_min=tuple(min(lo, 0.0) if V > 1 else lo for lo in low),
        gram_ranks=tuple(ranks),
        basis_size=_symbol_count(counts),
        blocks=sum(signatures.values()),
        signatures=len(signatures),
        vacuum=tuple(expectation.limit(v, v, 0) for v in vertices),
        commutators=(),
    )
    # the signature (r(g), 1, weight(g), s(g), depth - 1) has read the row
    # of g to the depth; at depth 0 there is none, and no rho to read
    reports = tuple(
        _commutator(data, g, rhos[g.s][:depth], rows.get((g.r, 1, g.s), ()))
        for g in module.edges
    )
    return replace(data, commutators=reports)


def _commutator(data: GramData, g: Edge, walk, res) -> CommutatorReport:
    """[P, S_g] from the rho groups `walk` of s(g) and their residues `res`."""
    norm2, surviving = 0.0, 0
    for level, limits in zip(walk, res):
        for (s, w), m in level.items():
            coef = g.weight * w * limits[s]
            # a count past the double range would not convert
            norm2 += coef * coef * min(m, 1e300)
            surviving += m * (abs(coef) > _TOL)
    ranks, total = data.operator_rank({g.r: norm2})
    predicted = {v: 0 for v in data.vertex_names}
    predicted[g.r] = 1 if surviving else 0
    predicted_total = sum(predicted.values())
    return CommutatorReport(
        edge=g.id,
        ranks=ranks,
        total_rank=total,
        predicted=predicted,
        predicted_total=predicted_total,
        surviving=surviving,
        matches=ranks == predicted and total == predicted_total,
    )
