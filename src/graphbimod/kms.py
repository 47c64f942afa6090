"""Time evolution from the index weights and the traces it fixes.

A path scales under the flow by the product of index values along its
range vertices; the flow rotates a symbol by the ratio of the two path
scales.  States built from vertex weights satisfy the exchange relation
for the flow exactly on symbols; descending to the quotient by the
covariance relations additionally requires the weights to reproduce
themselves under the index-normalized edge sum, which is solved here
exactly in rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping

import numpy as np

from .algebra import AlgebraElement
from .bimodule import GraphBimodule
from .cuntz_pimsner import SpanningElement, _check_pair, _compose_symbol
from .fock import FockVector, Path, right_inner


def d_weight(module: GraphBimodule, path: Path) -> float:
    """Flow scale of a path: product of index values at the range vertices."""
    index = module.index_float
    out = 1.0
    for e in path.edges:
        out *= index[e.r]
    return out


def gamma(module: GraphBimodule, x: SpanningElement, t: float) -> SpanningElement:
    """Flow at time t: symbol (mu, nu) rotates by the scale ratio to the power it."""
    out = {}
    for (mu, nu), c in x.terms.items():
        angle = math.log(d_weight(module, mu)) - math.log(d_weight(module, nu))
        out[(mu, nu)] = c * complex(np.exp(1j * t * angle))
    return SpanningElement(module, out)


def gamma_minus_i(module: GraphBimodule, x: SpanningElement) -> SpanningElement:
    """Analytic continuation of the flow to -i: scales by the ratio itself."""
    out = {}
    for (mu, nu), c in x.terms.items():
        out[(mu, nu)] = c * d_weight(module, mu) / d_weight(module, nu)
    return SpanningElement(module, out)


@dataclass(frozen=True)
class TraceState:
    """Vertex weights defining a state on the symbol algebra.

    The value of a diagonal symbol (mu, mu) is the weight of the source of
    mu divided by the flow scale of mu; off-diagonal symbols get zero.
    Weights are kept as exact fractions.
    """

    module: GraphBimodule = field(repr=False)
    weights: Mapping[str, Fraction]

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


def _exchange(module: GraphBimodule, trace: TraceState, x_terms, y_terms) -> tuple[float, bool]:
    """Exchange defect over the term pairs of x and y, and whether any
    product reduced to a diagonal symbol.

    x_terms and y_terms are ((mu, nu), coefficient) items; y_terms is
    iterated once per term of x.
    """
    lhs = rhs = 0.0 + 0.0j
    diagonal = False
    for (mu, nu), c in x_terms:
        for (sigma, rho), b in y_terms:
            xy = _compose_symbol(mu, nu, sigma, rho)
            if xy is not None:
                _check_pair(*xy)
                if xy[0] == xy[1]:
                    diagonal = True
                    lhs += trace.diagonal(xy[0], c * b)
            yx = _compose_symbol(sigma, rho, mu, nu)
            if yx is not None:
                _check_pair(*yx)
                if yx[0] == yx[1]:
                    diagonal = True
                    scaled = b * d_weight(module, sigma) / d_weight(module, rho)
                    rhs += trace.diagonal(yx[0], scaled * c)
    return abs(lhs - rhs), diagonal


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
    return _exchange(module, trace, x.terms.items(), y.terms.items())[0]


# -- the paths as integer ids, and random symbol pairs in bulk -----------


@dataclass(frozen=True, eq=False)
class PathPool:
    """The paths of length 0..max_length as integer ids.

    Ids follow [p for k in range(max_length + 1) for p in paths(module, k)],
    so the vertices come first, at their vertex positions.  Per id:
    `length`, `source` (the vertex position of s(p)), `parent` (the id of p
    without its last edge), `drop_first` (the id of p without its first
    edge) and `last` (the position of its last edge in module.edges); the
    last three are -1 on vertices.  heads[a, p] and tails[a, p] are the
    ids of p.head(a) and p.tail(a) for a <= |p|, and -1 for a > |p|.
    """

    module: GraphBimodule = field(repr=False)
    length: np.ndarray
    source: np.ndarray
    parent: np.ndarray
    drop_first: np.ndarray
    last: np.ndarray
    heads: np.ndarray
    tails: np.ndarray

    def __len__(self) -> int:
        return len(self.length)

    def path(self, i: int) -> Path:
        """The path of id i, from the last edges of its heads."""
        n = self.length[i]
        if n == 0:
            return Path((), self.module.vertices.labels[i])
        edges = tuple(self.module.edges[e] for e in self.last[self.heads[1 : n + 1, i]])
        return Path(edges, edges[0].r)


def path_pool(module: GraphBimodule, max_length: int) -> PathPool:
    """The paths of length at most max_length as a `PathPool`, level by level.

    Level 1 is module.edges.  From level 2 on, each path of the previous
    level is followed by its children, the edges with range at its source
    in id order, as `paths` builds them.  The child of a path q of length
    >= 1 by the edge e is the first child of q plus the place of e among
    the edges with range r(e), which gives drop_first without a lookup.
    """
    if max_length < 0:
        raise ValueError("path length must be nonnegative")
    vidx = {v: i for i, v in enumerate(module.vertices)}
    V, E = len(vidx), len(module.edges)
    edge_r = np.array([vidx[e.r] for e in module.edges], dtype=np.intp)
    edge_s = np.array([vidx[e.s] for e in module.edges], dtype=np.intp)
    # edges grouped by range vertex, id order within a group
    by_range = np.argsort(edge_r, kind="stable")
    into = np.bincount(edge_r, minlength=V)
    into_start = np.cumsum(into) - into
    slot = np.empty(E, dtype=np.intp)
    slot[by_range] = np.arange(E) - into_start[edge_r[by_range]]

    none = np.full(V, -1, dtype=np.intp)
    source = [np.arange(V)]
    parent, drop_first, last = [none], [none], [none]
    starts = [0, V]
    first_child: list[np.ndarray] = []  # per level >= 1, in the next level
    for k in range(1, max_length + 1):
        if k == 1:
            edges = np.arange(E)
            up, drop = edge_r, edge_s
        else:
            n = into[source[-1]]
            begin = np.cumsum(n) - n
            first_child.append(starts[-1] + begin)
            up = np.repeat(np.arange(starts[-2], starts[-1]), n)
            edges = by_range[np.repeat(into_start[source[-1]] - begin, n) + np.arange(n.sum())]
            if k == 2:
                drop = V + edges
            else:
                q = np.repeat(drop_first[-1], n)
                drop = first_child[-2][q - starts[-3]] + slot[edges]
        source.append(edge_s[edges])
        parent.append(up)
        drop_first.append(drop)
        last.append(edges)
        starts.append(starts[-1] + len(edges))

    N = starts[-1]
    heads = np.full((max_length + 1, N), -1, dtype=np.intp)
    tails = np.full((max_length + 1, N), -1, dtype=np.intp)
    for k in range(max_length + 1):
        lo, hi = starts[k], starts[k + 1]
        heads[:k, lo:hi] = heads[:k, parent[k]]
        tails[:k, lo:hi] = tails[:k, drop_first[k]]
        heads[k, lo:hi] = tails[k, lo:hi] = np.arange(lo, hi)
    return PathPool(
        module,
        length=np.repeat(np.arange(max_length + 1), np.diff(starts)),
        source=np.concatenate(source),
        parent=np.concatenate(parent),
        drop_first=np.concatenate(drop_first),
        last=np.concatenate(last),
        heads=heads,
        tails=tails,
    )



# Words per bulk draw.  Each pair takes about four, so a chunk holds about
# a thousand pairs and the buffers stay under 1 MiB whatever the pair
# count (golden_mean with --pairs 1000000 peaks 0.3 MiB above --pairs
# 1000; larger chunks cost more memory and were no faster).
WORD_CHUNK = 4096

_LOW_WORD = np.uint64(0xFFFFFFFF)


def _bounded(
    words: np.ndarray, start: np.ndarray, high: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Draws below high[i] that begin at word start[i], by numpy's rule.

    Generator.integers(h) for 1 < h <= 2**32 takes one 32-bit word x per
    attempt and returns (x * h) >> 32, rejecting while (x * h) mod 2**32 <
    (2**32 - h) mod h (Lemire's multiply-shift); a high of 1 takes no word.
    Returns the values and the position after the last word taken, or -1
    where the words run out first; a start of -1 gives an end of -1.
    """
    value = np.zeros(len(start), dtype=np.int64)
    end = start.copy()
    todo = np.flatnonzero((high > 1) & (start >= 0))
    at = start[todo]
    while todo.size:
        inside = at < len(words)
        end[todo[~inside]] = -1
        todo, at = todo[inside], at[inside]
        h = high[todo]
        m = words[at] * h
        ok = (m & _LOW_WORD) >= (np.uint64(1 << 32) - h) % h
        value[todo[ok]] = m[ok] >> np.uint64(32)
        end[todo[ok]] = at[ok] + 1
        todo, at = todo[~ok], at[~ok] + 1
    return value, end


def draw_pairs(
    rng: np.random.Generator,
    count: int,
    high: int,
    child_high: Callable[[np.ndarray], np.ndarray],
    chunk: int = WORD_CHUNK,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Blocks of the draws (mu, nu, sigma, rho) of `count` random pairs.

    Pair by pair, the draws are those of the scalar calls
    mu = rng.integers(high), nu = rng.integers(child_high(mu)), then sigma
    and rho the same way, for 1 <= high, child_high <= 2**32.  The words
    are drawn `chunk` at a time and mapped by `_bounded`; every word
    position is tried as the start of a (mu, nu) draw at once, and a walk
    along the resulting ends picks the positions the scalar calls take.
    Words past the last whole pair carry over to the next chunk.  The
    sequence rests on numpy's bounded-integer rule, which
    tests/test_kms.py pins against the scalar calls.
    """
    if high == 1 and child_high(np.zeros(1, dtype=np.int64))[0] == 1:
        # no draw takes a word: every pair is (0, 0, 0, 0)
        for done in range(0, count, chunk):
            zeros = np.zeros(min(chunk, count - done), dtype=np.int64)
            yield zeros, zeros, zeros, zeros
        return
    words = np.zeros(0, dtype=np.uint64)
    while count:
        fresh = rng.integers(0, 1 << 32, size=chunk, dtype=np.uint64)
        words = np.concatenate((words, fresh))
        starts = np.arange(len(words) + 1)
        first, mid = _bounded(words, starts, np.full(len(starts), high, dtype=np.uint64))
        second, end = _bounded(
            words, mid, np.asarray(child_high(first), dtype=np.uint64)
        )
        ends = end.tolist()
        taken: list[int] = []
        at = 0
        while len(taken) < 2 * count:
            e1 = ends[at]
            if e1 < 0:
                break
            e2 = ends[e1]
            if e2 < 0:
                break
            taken += (at, e1)
            at = e2
        units = np.array(taken, dtype=np.int64)
        a, b = first[units], second[units]
        count -= len(taken) // 2
        words = words[at:]
        if len(units):
            yield a[0::2], b[0::2], a[1::2], b[1::2]


def diagonal_screen(
    pool: PathPool,
    mu: np.ndarray,
    nu: np.ndarray,
    sigma: np.ndarray,
    rho: np.ndarray,
) -> np.ndarray:
    """Which degree-0 pairs x = (mu, nu), y = (sigma, rho) reach the diagonal.

    The arrays hold pool ids, with |mu| - |nu| + |sigma| - |rho| = 0, and
    a = |sigma| - |nu| = |rho| - |mu|.  For a >= 0, xy reduces to a
    diagonal symbol exactly when sigma = nu alpha and rho = mu alpha, for
    alpha the last a edges of sigma; for a <= 0, exactly when nu = sigma
    alpha and mu = rho alpha, with |alpha| = -a.  The same condition
    decides gamma_{-i}(y) x.  A head longer than the path is -1, so the
    condition of the other sign of a fails by itself.
    """
    heads, tails, n = pool.heads, pool.tails, pool.length
    a = np.abs(n[sigma] - n[nu])
    grow = (heads[n[nu], sigma] == nu) & (heads[n[mu], rho] == mu)
    shrink = (heads[n[sigma], nu] == sigma) & (heads[n[rho], mu] == rho)
    return (grow & (tails[a, sigma] == tails[a, rho])) | (
        shrink & (tails[a, nu] == tails[a, mu])
    )


@dataclass(frozen=True)
class ExchangeSweep:
    """Largest exchange defect over random symbol pairs, with counts.

    degree_zero counts the pairs of total degree 0, the only ones that
    can reach the diagonal; diagonal counts those whose product xy or
    gamma_{-i}(y) x reduced to a diagonal symbol.
    """

    worst: float
    degree_zero: int
    diagonal: int


def exchange_sweep(
    module: GraphBimodule,
    trace: TraceState,
    pool: PathPool,
    pairs: int,
    rng: np.random.Generator,
) -> ExchangeSweep:
    """Exchange defect of `pairs` random symbol pairs drawn from `pool`.

    Each pair draws mu from the pool, nu from the pool paths with the
    source of mu, then sigma and rho the same way, all by `draw_pairs`.
    The state vanishes off the diagonal.  A nonzero symbol product has
    degree deg(x) + deg(y) and a diagonal symbol has degree 0, so a pair
    of nonzero total degree has both sides exactly zero and defect 0.0,
    and so does a pair of degree 0 that `diagonal_screen` rejects.  Only
    the pairs it passes are built as paths and go through the term-pair
    check of kms_check.
    """
    source, length = pool.source, pool.length
    # pool ids grouped by source, each group in pool order
    members = np.argsort(source, kind="stable")
    sizes = np.bincount(source)
    offset = np.cumsum(sizes) - sizes
    one = 1 + 0j
    worst = 0.0
    degree_zero = diagonal = 0
    blocks = draw_pairs(rng, pairs, len(pool), lambda mu: sizes[source[mu]])
    for mu, nu, sigma, rho in blocks:
        nu = members[offset[source[mu]] + nu]
        rho = members[offset[source[sigma]] + rho]
        keep = length[mu] - length[nu] + length[sigma] - length[rho] == 0
        quad = [q[keep] for q in (mu, nu, sigma, rho)]
        degree_zero += len(quad[0])
        hit = diagonal_screen(pool, *quad)
        for i, j, k, l in zip(*(q[hit].tolist() for q in quad)):
            x = (((pool.path(i), pool.path(j)), one),)
            y = (((pool.path(k), pool.path(l)), one),)
            defect, diag = _exchange(module, trace, x, y)
            worst = max(worst, defect)
            diagonal += diag
    return ExchangeSweep(worst, degree_zero, diagonal)


# -- exact solve of the descent condition ----------------------------------


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


@dataclass(frozen=True)
class TraceFamily:
    """All states whose weights survive the quotient descent.

    basis holds one normalized weight vector per independent direction;
    canonical is their average (the uniform state on a connected graph
    with unit weights).  feasible is False when no nonnegative nonzero
    solution was found, in which case canonical is None and dimension -1.
    """

    module: GraphBimodule = field(repr=False)
    dimension: int = -1
    basis: tuple[dict[str, Fraction], ...] = ()
    canonical: TraceState | None = None
    feasible: bool = False


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
