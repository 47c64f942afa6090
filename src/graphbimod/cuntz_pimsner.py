"""Symbol algebra on path pairs, the residue expectation, and the Fock
projection with its compact commutators.

An element is a finite combination of symbols (mu, nu), two paths with a
common source, standing for the partial isometry built from mu times the
adjoint of the one built from nu.  Products reduce by prefix matching, so
the combination is closed under multiplication and adjoint.  The
expectation sends a symbol to zero unless mu equals nu, and weighs the
diagonal by the path weight times the residue coefficient of its class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import AlgebraElement
from .bimodule import GraphBimodule
from .fock import Path, paths
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
            {(nu, mu): np.conj(c) for (mu, nu), c in self.terms.items()},
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

    def as_fock_matrix(self, k: int) -> np.ndarray:
        """Level-k compression over the length-k path basis.

        Unbalanced symbols shift the level and are cut off by the
        compression, so only terms with equal path lengths contribute.
        """
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
            (mu, nu): c * complex(np.exp(1j * theta * (len(mu) - len(nu))))
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
    table up to the configured k_max serves every class, and residue
    reports are kept per class; an unconverged limit raises
    `ResidueUncertifiedError`.
    """

    def __init__(self, module: GraphBimodule, config: ResidueConfig | None = None):
        self.module = module
        self.config = config or ResidueConfig()
        self._reports: dict[tuple[str, str, int], ResidueReport] = {}
        self._table = GrowthTable(module, self.config.k_max)

    def residue(self, r: str, s: str, n: int) -> ResidueReport:
        key = (r, s, n)
        if key not in self._reports:
            self._reports[key] = eta_tilde(self._table, key, tol=self.config.tol)
        return self._reports[key]

    def coeff(self, mu: Path) -> float:
        rep = self.residue(mu.r, mu.s, len(mu))
        if not rep.converged:
            raise ResidueUncertifiedError(
                f"residue limit for class {rep.target} did not converge "
                f"(method {rep.method}, k_max {rep.k_max})"
            )
        return mu.weight * rep.value

    def phi(self, x: SpanningElement) -> AlgebraElement:
        vals = np.zeros(len(self.module.vertices), dtype=complex)
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
        if k > self._table.k_max:
            raise ValueError(f"level {k} above k_max {self._table.k_max}")
        vals = np.zeros(len(self.module.vertices), dtype=complex)
        for (mu, nu), c in x.terms.items():
            if mu != nu:
                continue
            if len(mu) > k:
                raise ValueError(f"level {k} below symbol length {len(mu)}")
            ratio = self._table.ratio(mu.s, mu.r, len(mu), k)
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


# -- spanning basis, Gram blocks, and the Fock projection ------------------
#
# Phi(x_i* x_j) vanishes unless one symbol extends the other by a common
# suffix, (mu_j, nu_j) = (mu_i rho, nu_i rho) or the reverse.  The Gram of
# the spanning family is therefore block-diagonal, one block per
# suffix-reduced symbol, and the projection and the edge shifts send each
# basis symbol to at most one other.  Both are kept in that form: blocks
# as small dense matrices, operators as column maps.

# column -> (row, coefficient); a column that is absent is zero
ColumnMap = dict[int, tuple[int, float]]
# (row, column) -> coefficient; absent entries are zero
EntryMap = dict[tuple[int, int], float]

# Gram eigenvalues above this span the quotient, and operator ranks in the
# quotient count singular values above it
_TOL = 1e-10


def spanning_basis(module: GraphBimodule, depth: int) -> list[tuple[Path, Path]]:
    """All symbols with both path lengths at most `depth`, canonically ordered.

    The order is by |mu|, then |nu|, then mu, then nu, each path by its
    sort key.  The loops emit it directly: `paths` lists every length in
    sort-key order (length 0 in vertex order, which is name order), and
    the second legs come from per-length lists by source, which keep it.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    levels = [paths(module, k) for k in range(depth + 1)]
    by_source: list[dict[str, list[Path]]] = []
    for level in levels:
        groups: dict[str, list[Path]] = {v: [] for v in module.vertices}
        for p in level:
            groups[p.s].append(p)
        by_source.append(groups)
    basis: list[tuple[Path, Path]] = []
    for mus in levels:
        for nus in by_source:
            for mu in mus:
                basis.extend((mu, nu) for nu in nus[mu.s])
    return basis


def spanning_basis_size(module: GraphBimodule, depth: int) -> int:
    """Length of spanning_basis(module, depth), from path counts by source.

    The counts are exact integers built edge by edge, so no path is
    enumerated: a length-k path with source v is a length-(k-1) path with
    source r(g) followed by an edge g with s(g) = v.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    level = {v: 1 for v in module.vertices}
    total = dict(level)
    for _ in range(depth):
        nxt = {v: 0 for v in module.vertices}
        for g in module.edges:
            nxt[g.s] += level[g.r]
        level = nxt
        for v, c in level.items():
            total[v] += c
    return sum(t * t for t in total.values())


def _max_abs_difference(a: Mapping, b: Mapping) -> float:
    """Largest |a[k] - b[k]| over both key sets, absent keys reading zero."""
    return max(
        (float(abs(a.get(k, 0.0) - b.get(k, 0.0))) for k in a.keys() | b.keys()),
        default=0.0,
    )


def _compose(outer: ColumnMap, inner: ColumnMap) -> EntryMap:
    """Entries of the product outer @ inner."""
    out: EntryMap = {}
    for j, (k, c) in inner.items():
        hit = outer.get(k)
        if hit is not None:
            out[(hit[0], j)] = hit[1] * c
    return out


def _entries(columns: ColumnMap) -> EntryMap:
    return {(row, j): c for j, (row, c) in columns.items()}


@dataclass(frozen=True)
class GramBlock:
    """Gram entries among the symbols (mu_0 rho, nu_0 rho) of one reduced key.

    The block lives on the vertex slice r(nu_0).  `members` are basis
    indices in ascending order, which is (|rho|, rho) order; `quotient` is
    sqrt(eigenvalue) times the eigenvector, transposed, for each eigenvalue
    above _TOL, so it maps coefficient vectors onto the quotient by the
    block's null space.  `matrix` and `quotient` are read-only, and blocks
    with the same signature share them.
    """

    vertex: int
    members: np.ndarray
    matrix: np.ndarray
    quotient: np.ndarray


@dataclass(frozen=True)
class GramData:
    """Vertex-sliced Gram of a spanning family, as diagonal blocks.

    Slice v of the Gram is the direct sum of the blocks on vertex v, padded
    with zero rows for the other symbols.  Ranks of operators in the
    quotient are computed per vertex, block by block, and summed; the
    commutators of the same depth take theirs here, since their one
    nonzero row, the vacuum, lies in the depth basis.  Blocks of one
    signature share their arrays; `eigensolves` counts the signatures, one
    eigendecomposition each.
    """

    basis: tuple[tuple[Path, Path], ...]
    index: dict[tuple[Path, Path], int]
    vertex_names: tuple[str, ...]
    blocks: tuple[GramBlock, ...]
    block_of: np.ndarray
    hermitian_defect: float
    psd_min: tuple[float, ...]
    gram_ranks: tuple[int, ...]
    eigensolves: int

    def _row(self, i: int) -> tuple[GramBlock, int]:
        """The block holding basis index i and the position of i in it."""
        block = self.blocks[self.block_of[i]]
        return block, int(np.searchsorted(block.members, i))

    def operator_rank(self, entries: EntryMap) -> tuple[dict[str, int], int]:
        """Per-vertex rank of an operator, given by its entries, in the quotient.

        Only the nonzero columns and the blocks holding a nonzero row are
        assembled: for each vertex, the quotient map of each such block
        times the operator's rows in it, stacked.
        """
        nonzero = {key: c for key, c in entries.items() if c != 0}
        cols = {j: n for n, j in enumerate(sorted({j for _, j in nonzero}))}
        touched: dict[int, np.ndarray] = {}
        for (i, j), c in nonzero.items():
            b = int(self.block_of[i])
            sub = touched.get(b)
            if sub is None:
                sub = touched[b] = np.zeros((len(self.blocks[b].members), len(cols)))
            sub[self._row(i)[1], cols[j]] = c
        stacks: list[list[np.ndarray]] = [[] for _ in self.vertex_names]
        for b, sub in touched.items():
            block = self.blocks[b]
            if block.quotient.shape[0]:
                stacks[block.vertex].append(block.quotient @ sub)
        ranks: dict[str, int] = {}
        for label, parts in zip(self.vertex_names, stacks):
            ranks[label] = (
                int(np.linalg.matrix_rank(np.vstack(parts), tol=_TOL)) if parts else 0
            )
        return ranks, sum(ranks.values())

    def isometry_defect(self) -> float:
        """Worst deviation of the plain path block from the identity.

        Path symbols with an empty second leg pair to the point mass at
        their common source when equal and to zero otherwise, so the
        module map from the path space is isometric.  Exact up to the
        residue coefficients at length zero, which every branch fixes
        at one.  A plain symbol is the rho = () member of a block with
        nu_0 = (), so it is alone in its block, at position 0.
        """
        worst = 0.0
        for block in self.blocks:
            if not self.basis[block.members[0]][1].edges:
                worst = max(worst, float(abs(block.matrix[0, 0] - 1.0)))
        return worst


def gram(
    module: GraphBimodule, depth: int, expectation: ConditionalExpectation
) -> GramData:
    """Block-diagonal Gram of the depth-limited spanning family.

    Symbols are grouped by their suffix-reduced key (mu_0, nu_0), the pair
    left after stripping the trailing edges mu and nu share.  The members
    of a block are (mu_0 rho, nu_0 rho) for the paths rho with range
    u = s(nu_0) and |rho| <= L = depth - max(|mu_0|, |nu_0|), in (|rho|, rho)
    order.  Two members pair to the coefficient of the longer second leg
    when one extends the other, and to zero otherwise; that coefficient is
    weight(nu_0) times the edge weights of rho, multiplied left to right as
    in `Path.weight`, times the residue of (r(nu_0), s(rho), |nu_0| + |rho|).
    The matrix is therefore a function of the signature (r(nu_0), |nu_0|,
    weight(nu_0), u, L), and each signature gets one eigendecomposition,
    shared read-only by its blocks.
    """
    basis = spanning_basis(module, depth)
    N = len(basis)
    vidx = {v: i for i, v in enumerate(module.vertices)}
    groups: dict[tuple, list[int]] = {}
    for i, (mu, nu) in enumerate(basis):
        m, n = mu.edges, nu.edges
        a, b = len(m), len(n)
        while a and b and m[a - 1] is n[b - 1]:
            a -= 1
            b -= 1
        groups.setdefault((mu.base, m[:a], nu.base, n[:b]), []).append(i)

    # signature -> (matrix, quotient, lowest eigenvalue, rank)
    solved: dict[tuple, tuple[np.ndarray, np.ndarray, float, int]] = {}
    blocks = []
    block_of = np.empty(N, dtype=np.intp)
    herm = 0.0
    V = len(module.vertices)
    low = [np.inf] * V
    covered = [0] * V
    ranks = [0] * V
    for (_, m0, v, n0), members in groups.items():
        weight = 1.0
        for e in n0:
            weight *= e.weight
        u = n0[-1].s if n0 else v
        signature = (v, len(n0), weight, u, depth - max(len(m0), len(n0)))
        hit = solved.get(signature)
        if hit is None:
            cut0 = len(m0)
            pos_of = {basis[i][0].edges[cut0:]: pos for pos, i in enumerate(members)}
            G = np.zeros((len(members), len(members)))
            for rho, pos in pos_of.items():
                c = expectation.coeff(basis[members[pos]][1])
                for cut in range(len(rho) + 1):
                    other = pos_of[rho[:cut]]
                    G[pos, other] = G[other, pos] = c
            herm = max(herm, float(np.max(np.abs(G - G.T))))
            vals, vecs = np.linalg.eigh(G)
            keep = vals > _TOL
            Q = np.sqrt(vals[keep])[:, None] * vecs[:, keep].T
            G.flags.writeable = False
            Q.flags.writeable = False
            hit = solved[signature] = (G, Q, float(vals[0]), int(keep.sum()))
        G, Q, lowest, rank = hit
        idx = np.array(members, dtype=np.intp)
        block_of[idx] = len(blocks)
        vi = vidx[v]
        blocks.append(GramBlock(vertex=vi, members=idx, matrix=G, quotient=Q))
        low[vi] = min(low[vi], lowest)
        covered[vi] += len(members)
        ranks[vi] += rank
    # symbols of the other slices are zero rows here: exact zero eigenvalues
    psd_min = tuple(min(lo, 0.0) if c < N else lo for lo, c in zip(low, covered))
    return GramData(
        basis=tuple(basis),
        index={pair: i for i, pair in enumerate(basis)},
        vertex_names=tuple(module.vertices),
        blocks=tuple(blocks),
        block_of=block_of,
        hermitian_defect=herm,
        psd_min=psd_min,
        gram_ranks=tuple(ranks),
        eigensolves=len(solved),
    )


def _projection_columns(
    basis: Sequence[tuple[Path, Path]],
    index: Mapping[tuple[Path, Path], int],
    exp_: ConditionalExpectation,
) -> ColumnMap:
    P: ColumnMap = {}
    for j, (mu, nu) in enumerate(basis):
        n = len(nu)
        cut = len(mu) - n
        if cut < 0 or mu.edges[cut:] != nu.edges:
            continue
        head = mu.head(cut)
        P[j] = (index[(head, Path((), head.s))], exp_.coeff(nu))
    return P


def _adjoint_defect(P: ColumnMap, gdata: GramData) -> float:
    """Largest entry of P* G_v - G_v P over the vertex slices.

    P sends column j to row k only, so (P* G_v)[j, i] = c_j G_v[k, i] and
    (G_v P)[i, j] = G_v[i, k] c_j; both are read from the block of k.
    """
    left: dict[tuple[int, int, int], float] = {}
    right: dict[tuple[int, int, int], float] = {}
    for j, (k, c) in P.items():
        block, pos = gdata._row(k)
        row = block.matrix[pos]
        for q in np.flatnonzero(row):
            i = int(block.members[q])
            left[(block.vertex, j, i)] = c * row[q]
            right[(block.vertex, i, j)] = row[q] * c
    return _max_abs_difference(left, right)


@dataclass(frozen=True)
class ProjectionData:
    """Closed-form action of the vacuum-summing projection on the basis."""

    columns: ColumnMap
    idempotency_defect: float
    adjoint_defect: float

    def entries(self) -> EntryMap:
        return _entries(self.columns)


def projection_p(
    gram_data: GramData, expectation: ConditionalExpectation
) -> ProjectionData:
    """Column map of the projection onto plain path symbols, with defects.

    The basis is the Gram's.  A symbol (mu, nu) projects to the path symbol
    of the head of mu when the tail of mu matches nu, scaled by the residue
    coefficient of nu; otherwise to zero.  The adjoint defect measures
    self-adjointness with respect to the vertex Gram slices.
    """
    P = _projection_columns(gram_data.basis, gram_data.index, expectation)
    idem = _max_abs_difference(_compose(P, P), _entries(P))
    return ProjectionData(P, idem, _adjoint_defect(P, gram_data))


@dataclass(frozen=True)
class CommutatorReport:
    """Commutator of the projection with one edge isometry."""

    edge: str
    ranks: dict[str, int]
    total_rank: int
    predicted: dict[str, int]
    predicted_total: int
    surviving: tuple[tuple[str, str], ...]
    matches: bool


def commutator_check(
    module: GraphBimodule,
    depth: int,
    expectation: ConditionalExpectation,
    gram_data: GramData,
) -> tuple[CommutatorReport, ...]:
    """Rank of [P, S_g] in the Gram quotient against its prediction, edge by edge.

    Take a column (rho, sigma) with r(rho) = s(g).  When |sigma| <= |rho|,
    the two terms of the commutator land on the same plain symbol with the
    same coefficient and cancel; when |sigma| = |rho| + 1, only sigma = g rho
    survives, in the vacuum row (r(g), r(g)), with the residue coefficient
    of g rho.  So the commutator is that one row over the columns
    (rho, g rho), which lie in the depth basis of `gram_data`, which is
    gram(module, depth, expectation).  Its rank is measured per vertex by
    `GramData.operator_rank` and compared with the prediction: one at r(g)
    when a surviving coefficient exceeds the rank tolerance, zero
    elsewhere.  The vacuum block holds G[0, 0] = 1, so the two agree unless
    the quotient map loses the vacuum.
    """
    index = gram_data.index
    shorter = [rho for k in range(depth) for rho in paths(module, k)]
    reports = []
    for g in module.edges:
        vac = Path((), g.r)
        row = index[(vac, vac)]
        formula: EntryMap = {}
        surviving = []
        for rho in shorter:
            if rho.r != g.s:
                continue
            sigma = Path((g,) + rho.edges, g.r)
            coef = expectation.coeff(sigma)
            formula[(row, index[(rho, sigma)])] = coef
            if abs(coef) > _TOL:
                surviving.append((rho.label(), sigma.label()))
        ranks, total = gram_data.operator_rank(formula)
        predicted = {v: 0 for v in module.vertices}
        predicted[g.r] = 1 if surviving else 0
        predicted_total = sum(predicted.values())
        matches = ranks == predicted and total == predicted_total
        reports.append(
            CommutatorReport(
                edge=g.id,
                ranks=ranks,
                total_rank=total,
                predicted=predicted,
                predicted_total=predicted_total,
                surviving=tuple(sorted(surviving)),
                matches=matches,
            )
        )
    return tuple(reports)
