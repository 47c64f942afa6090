"""Dense reference route for the Kasparov layer, kept as a test oracle.

Every quantity here is built as a full N x N complex matrix over the
spanning basis: the Gram slices by one symbol product per pair, the
projection and the edge shifts column by column, and the commutator by
matrix products.  The basis itself is built here too, by pairing every
two paths with a common source and sorting.  The package counts the basis
and its blocks and reads the Gram's ranks and positivity from pivots, with
no eigensolve; tests compare the two, against the eigenvalues and against
an LDL^T elimination of each dense block.  Memory grows with N^2 per
vertex, so keep the bases small.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from graphbimod.cuntz_pimsner import (
    CommutatorReport,
    ConditionalExpectation,
    _compose_symbol,
)
from graphbimod.fock import Path, paths


def dense_basis(module, depth):
    """Symbols with both legs of length at most depth, sorted canonically."""
    pool = []
    for k in range(depth + 1):
        pool.extend(paths(module, k))
    basis = [(mu, nu) for mu in pool for nu in pool if mu.s == nu.s]
    basis.sort(
        key=lambda pair: (
            len(pair[0]),
            len(pair[1]),
            pair[0].sort_key(),
            pair[1].sort_key(),
        )
    )
    return basis


def path_legs(module, depth):
    """The second-leg counts of the Gram, one Path per leg.

    Keys (r(nu), |nu|, weight(nu), s(nu), r of the last edge of nu) in the
    order of their first path: aggregated by weight, the reference for the
    leg groups of `gram`.
    """
    legs = Counter()
    for n in range(depth + 1):
        for nu in paths(module, n):
            legs[(nu.r, n, nu.weight, nu.s, nu.edges[-1].r if nu.edges else None)] += 1
    return legs


def path_rhos(module, depth):
    """The paths of each length, one Path per rho.

    One Counter per length j <= depth of the keys (r(rho), s(rho),
    weight(rho)) in the order of their first path: aggregated by weight,
    the reference for the class cells of `gram`.
    """
    return [
        Counter((rho.r, rho.s, rho.weight) for rho in paths(module, j))
        for j in range(depth + 1)
    ]


def _reduced(mu, nu):
    """The pair left after stripping the trailing edges mu and nu share."""
    a, b = len(mu), len(nu)
    while a and b and mu.edges[a - 1] == nu.edges[b - 1]:
        a -= 1
        b -= 1
    return (mu.base, mu.edges[:a], nu.base, nu.edges[:b])


def reduced_keys(basis):
    """The suffix-reduced symbols of a basis, one per Gram block."""
    return {_reduced(mu, nu) for mu, nu in basis}


def _ldl_pivots(A, cutoff):
    """Pivots of an LDL^T elimination of a real symmetric matrix, in order.

    A pivot of magnitude at most `cutoff` eliminates nothing: when the
    matrix is X diag(d) X^T with X unitriangular, a zero pivot has a zero
    column, and a round-off one a column of round-off.
    """
    A = np.array(A, dtype=float)
    pivots = []
    for k in range(len(A)):
        d = A[k, k]
        pivots.append(float(d))
        if abs(d) > cutoff:
            col = A[k + 1 :, k]
            A[k + 1 :, k + 1 :] -= np.outer(col, col) / d
    return pivots


def _pivot_min(basis, mats, cutoff=1e-13):
    """Lowest LDL^T pivot of each vertex slice, block by block.

    The members (mu_0 rho, nu_0 rho) of a block, taken longest rho first,
    make its prefix matrix X lower unitriangular, so the pivots of the
    block's G = X diag(d) X^T are the d themselves.  Every block is
    eliminated in every slice, so the blocks of other vertices give zero
    pivots there, and the slices are checked to have no entry outside the
    blocks.
    """
    blocks: dict = {}
    for i in sorted(range(len(basis)), key=lambda i: -len(basis[i][1])):
        blocks.setdefault(_reduced(*basis[i]), []).append(i)
    lowest = []
    for G in mats:
        inside = 0
        low = math.inf
        for members in blocks.values():
            sub = G[np.ix_(members, members)]
            assert not sub.imag.any()
            inside += np.count_nonzero(sub)
            low = min(low, min(_ldl_pivots(sub.real, cutoff)))
        assert inside == np.count_nonzero(G)
        lowest.append(low if basis else 0.0)
    return tuple(lowest)


@dataclass(frozen=True)
class DenseGram:
    basis: tuple
    vertex_names: tuple
    matrices: np.ndarray
    hermitian_defect: float
    psd_min: tuple
    pivot_min: tuple
    quotient_maps: tuple
    gram_ranks: tuple

    def operator_rank(self, columns, rank_tol=1e-10):
        ranks = {}
        total = 0
        for label, Q in zip(self.vertex_names, self.quotient_maps):
            if Q.shape[0] == 0:
                ranks[label] = 0
                continue
            r = int(np.linalg.matrix_rank(Q @ columns, tol=rank_tol))
            ranks[label] = r
            total += r
        return ranks, total

    def isometry_defect(self):
        plain = [(i, mu) for i, (mu, nu) in enumerate(self.basis) if len(nu) == 0]
        worst = 0.0
        for vi, vname in enumerate(self.vertex_names):
            G = self.matrices[vi]
            for i, mu in plain:
                for j, sg in plain:
                    want = 1.0 if (i == j and mu.s == vname) else 0.0
                    worst = max(worst, abs(G[i, j] - want))
        return worst


def dense_gram(module, depth, exp_: ConditionalExpectation, cutoff=1e-10) -> DenseGram:
    basis = dense_basis(module, depth)
    N = len(basis)
    V = len(module.vertices)
    vidx = {v: i for i, v in enumerate(module.vertices)}
    mats = np.zeros((V, N, N), dtype=complex)
    for i, (mu_i, nu_i) in enumerate(basis):
        for j, (mu_j, nu_j) in enumerate(basis):
            res = _compose_symbol(nu_i, mu_i, mu_j, nu_j)
            if res is None:
                continue
            a, b = res
            if a == b:
                mats[vidx[a.r], i, j] = exp_.coeff(a)
    herm = float(np.max(np.abs(mats - np.conj(np.swapaxes(mats, 1, 2)))))
    psd_min, maps, ranks = [], [], []
    for v in range(V):
        H = (mats[v] + mats[v].conj().T) / 2.0
        vals, vecs = np.linalg.eigh(H)
        psd_min.append(float(vals.min()) if N else 0.0)
        keep = vals > cutoff
        maps.append(np.sqrt(vals[keep])[:, None] * vecs[:, keep].conj().T)
        ranks.append(int(keep.sum()))
    return DenseGram(
        tuple(basis), tuple(module.vertices), mats, herm,
        tuple(psd_min), _pivot_min(basis, mats), tuple(maps), tuple(ranks),
    )


def dense_projection_matrix(basis, exp_: ConditionalExpectation) -> np.ndarray:
    idx = {pair: i for i, pair in enumerate(basis)}
    N = len(basis)
    P = np.zeros((N, N), dtype=complex)
    for j, (mu, nu) in enumerate(basis):
        n = len(nu)
        if len(mu) < n:
            continue
        if mu.tail(n) != nu:
            continue
        head = mu.head(len(mu) - n)
        P[idx[(head, Path((), head.s))], j] = exp_.coeff(nu)
    return P


def dense_projection_defects(P: np.ndarray, gram_data: DenseGram) -> tuple[float, float]:
    """Idempotency and Gram-adjoint defects of a dense projection."""
    idem = float(np.max(np.abs(P @ P - P)))
    adj = 0.0
    for G in gram_data.matrices:
        adj = max(adj, float(np.max(np.abs(P.conj().T @ G - G @ P))))
    return idem, adj


def dense_theta_matrix(module, depth, exp_: ConditionalExpectation) -> np.ndarray:
    """Rank-one sum over every plain path symbol, with no pruning."""
    basis = dense_basis(module, depth)
    idx = {pair: i for i, pair in enumerate(basis)}
    M = np.zeros((len(basis), len(basis)), dtype=complex)
    pool = []
    for k in range(depth + 1):
        pool.extend(paths(module, k))
    for j, (mu, nu) in enumerate(basis):
        for rho in pool:
            empty_s = Path((), rho.s)
            res = _compose_symbol(empty_s, rho, mu, nu)
            if res is None:
                continue
            a, b = res
            if a != b or a.r != rho.s:
                continue
            M[idx[(rho, empty_s)], j] += exp_.coeff(a)
    return M


def dense_commutator_check(
    module, depth, exp_: ConditionalExpectation, rank_tol=1e-10, cutoff=1e-10
) -> tuple[tuple[CommutatorReport, ...], dict[str, float]]:
    """Direct commutators P_high S - S P_low, ranked in the depth+1 Gram.

    Returns the reports and, per edge, the largest entry of the direct
    commutator minus its closed form, one vacuum row over the columns
    (rho, g rho).  The ranks are taken of the direct operator.
    """
    cols = dense_basis(module, depth)
    rows = dense_basis(module, depth + 1)
    col_idx = {pair: i for i, pair in enumerate(cols)}
    row_idx = {pair: i for i, pair in enumerate(rows)}
    P_low = dense_projection_matrix(cols, exp_)
    P_high = dense_projection_matrix(rows, exp_)
    gram_high = dense_gram(module, depth + 1, exp_, cutoff)
    reports = []
    discrepancies = {}
    for g in module.edges:
        S = np.zeros((len(rows), len(cols)), dtype=complex)
        for (rho, sigma), j in col_idx.items():
            if rho.r != g.s:
                continue
            S[row_idx[(Path((g,) + rho.edges, g.r), sigma)], j] = 1.0
        direct = P_high @ S - S @ P_low
        formula = np.zeros_like(direct)
        vac = Path((), g.r)
        vac_row = row_idx[(vac, vac)]
        surviving = 0
        for (rho, sigma), j in col_idx.items():
            if len(sigma) != len(rho) + 1:
                continue
            if sigma.edges[0] != g:
                continue
            if sigma.tail(len(sigma) - 1) != rho:
                continue
            coef = exp_.coeff(sigma)
            formula[vac_row, j] = coef
            surviving += abs(coef) > rank_tol
        ranks, total = gram_high.operator_rank(direct, rank_tol)
        predicted = {v: 0 for v in module.vertices}
        predicted[g.r] = 1 if surviving else 0
        predicted_total = sum(predicted.values())
        discrepancies[g.id] = float(np.max(np.abs(direct - formula)))
        reports.append(
            CommutatorReport(
                edge=g.id,
                ranks=ranks,
                total_rank=total,
                predicted=predicted,
                predicted_total=predicted_total,
                matches=ranks == predicted and total == predicted_total,
            )
        )
    return tuple(reports), discrepancies
