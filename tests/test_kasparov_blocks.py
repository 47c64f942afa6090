"""The Kasparov Gram by inertia against the dense oracle and stored reports."""

import json
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import graphs
from dense_kasparov import (
    dense_basis,
    dense_commutator_check,
    dense_gram,
    dense_projection_defects,
    dense_projection_matrix,
    path_legs,
    path_rhos,
    reduced_keys,
)
from hypothesis import example, given, settings, strategies as st
from symbolic import coeff, spanning_basis_size

from graphbimod import (
    ConditionalExpectation,
    Edge,
    GramData,
    GraphBimodule,
    ResidueUncertifiedError,
    gram,
    paths,
)
from graphbimod.cli import main
from graphbimod.cuntz_pimsner import GRAM_MAX_PIVOTS, _class_levels
from graphbimod.fock import make_path, path_counts

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
# the dense oracle holds V slices of N^2 complex entries at depth+1
DENSE_MAX_BASIS = 500


def _dense_depth(module, depth):
    while depth > 0 and spanning_basis_size(module, depth + 1) > DENSE_MAX_BASIS:
        depth -= 1
    return depth


def _check_gram(gd, module, depth, exp_):
    dense = dense_gram(module, depth, exp_)
    # the counts are those of the enumerated basis and its blocks
    assert gd.basis_size == len(dense.basis)
    assert gd.blocks == len(reduced_keys(dense.basis))
    # X diag(d) X^T is symmetric, and so is the Gram of symbol products
    assert dense.hermitian_defect == 0.0
    # the lowest pivot is that of an LDL^T elimination of the dense blocks
    assert np.allclose(gd.psd_min, dense.pivot_min, rtol=0, atol=1e-12)
    # Sylvester's law: the pivots have the inertia of the eigenvalues, so
    # the lowest pivot has the sign and the verdict of the lowest
    # eigenvalue.  The two agree to round-off when the residues are
    # harmonic; an extrapolated residue off by 3e-12 moves them apart, by
    # up to the conditioning of the prefix matrix (Ostrowski's theorem),
    # but not across zero.
    assert gd.gram_ranks == dense.gram_ranks
    for pivot, eig in zip(gd.psd_min, dense.psd_min):
        assert (pivot < -1e-10) == (eig < -1e-10)
        assert abs(pivot - eig) <= 1e-12 or pivot * eig > 0
    assert gd.isometry_defect() == dense.isometry_defect()
    return dense


def _check_block_route(module, depth):
    depth = _dense_depth(module, depth)
    exp_ = ConditionalExpectation(module)
    try:
        gd = gram(module, depth, exp_)
    except ResidueUncertifiedError:
        with pytest.raises(ResidueUncertifiedError):
            dense_gram(module, depth, ConditionalExpectation(module))
        return
    dense = _check_gram(gd, module, depth, exp_)

    P = dense_projection_matrix(list(dense.basis), exp_)
    assert dense_projection_defects(P, dense) == (0.0, 0.0)
    # the direct commutators rank in the depth+1 Gram, whose longer
    # classes may not certify where the depth ones do
    try:
        dense_reports, discrepancies = dense_commutator_check(module, depth, exp_)
    except ResidueUncertifiedError:
        return
    assert gd.commutators == dense_reports
    assert set(discrepancies.values()) <= {0.0}


class _ArbitraryCoefficients(ConditionalExpectation):
    """Class coefficients of either sign, fixed by the seed and the class."""

    def __init__(self, module, seed):
        super().__init__(module)
        self.seed = seed

    def limit(self, r, s, n):
        rng = random.Random(f"{self.seed}:{r}:{s}:{n}")
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)


@given(graphs(), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_block_route_matches_dense_oracle(module, depth):
    _check_block_route(module, depth)


@given(graphs(weights=(0.1, 0.5, 1.0, 3.0)), st.integers(0, 3))
@example(
    # (v0, v0, 1) extrapolates to 10.000000000028434, so the vacuum block
    # of v0 has the pivot -2.8e-12 and the lowest eigenvalue -1.4e-12
    GraphBimodule(
        ["v0", "v1"],
        [Edge("e0", "v0", "v0", 0.1), Edge("e1", "v1", "v1", 0.1), Edge("e2", "v0", "v1", 3.0)],
    ),
    1,
)
@settings(max_examples=30, deadline=None)
def test_block_route_matches_dense_oracle_on_weighted_graphs(module, depth):
    # a class that took its lowest pivot at the wrong weight extremes of
    # nu_0 or rho would scale it off the dense one
    _check_block_route(module, depth)


@given(graphs(weights=(0.1, 0.5, 1.0, 3.0)), st.integers(0, 3), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_pivots_match_dense_blocks_for_any_coefficients(module, depth, seed):
    # G = X diag(d) X^T holds for any class coefficients, not only harmonic
    # ones.  With these the pivots are of order one and of both signs, so
    # a class read at the wrong weight extremes of nu_0 or rho, or with
    # the wrong inner sum, moves the lowest pivot or a rank.
    depth = _dense_depth(module, depth)
    exp_ = _ArbitraryCoefficients(module, seed)
    _check_gram(gram(module, depth, exp_), module, depth, exp_)


@given(graphs(weights=(0.1, 0.5, 1.0, 3.0)), st.integers(0, 4), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_commutator_rows_are_the_path_coefficients(module, depth, seed):
    # each edge's vacuum row is coeff(g rho) over the rho of length < depth
    # with r(rho) = s(g).  The Gram never lists it, but the squared norm it
    # ranks and the prediction are those of the listed row; the weight of
    # g rho is taken in another order, so they agree to round-off
    exp_ = _ArbitraryCoefficients(module, seed)
    norms = []
    rank = GramData.operator_rank

    def recorded(self, row_norms):
        norms.append(row_norms)
        return rank(self, row_norms)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GramData, "operator_rank", recorded)
        reports = gram(module, depth, exp_).commutators
    shorter = [rho for k in range(depth) for rho in paths(module, k)]
    assert len(norms) == len(reports) == len(module.edges)
    for g, row_norms, rep in zip(module.edges, norms, reports):
        row = [coeff(exp_, make_path(module, (g.id,) + rho.ids)) for rho in shorter if rho.r == g.s]
        assert rep.edge == g.id
        assert row_norms.keys() == {g.r}
        assert row_norms[g.r] == pytest.approx(sum(c * c for c in row), rel=1e-12, abs=0)
        assert rep.predicted[g.r] == any(abs(c) > 1e-10 for c in row)


def _by_class(oracle: Counter, weight_at: int) -> dict:
    """A Path-oracle Counter summed over the weight in its keys: the rest of
    the key -> [count, least weight, greatest weight, sum of squared
    weights], in first-occurrence order."""
    cells: dict = {}
    for key, k in oracle.items():
        w = key[weight_at]
        cell = cells.setdefault(key[:weight_at] + key[weight_at + 1 :], [0, w, w, 0.0])
        cell[0] += k
        cell[1] = min(cell[1], w)
        cell[2] = max(cell[2], w)
        cell[3] += k * w * w
    return cells


@given(graphs(weights=(0.1, 0.5, 1.0, 3.0)), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_second_legs_walk_matches_path_oracle(module, depth):
    # the class cells and the leg groups are the Path oracles summed over
    # the weight: equal keys, counts and extremes, and first-occurrence
    # order, on which the order of the classes, and so the first
    # uncertified class, rests.  The sums of squares are taken in another
    # order, so they agree to round-off
    levels, legs = _class_levels(module, depth)
    want = [_by_class(c, 2) for c in path_rhos(module, depth)]
    assert [list(level) for level in levels] == [list(cells) for cells in want]
    for level, cells in zip(levels, want):
        for key, (k, lo, hi, squares) in cells.items():
            assert level[key][:3] == [k, lo, hi]
            assert level[key][3] == pytest.approx(squares, rel=1e-12)
    want = _by_class(path_legs(module, depth), 2)
    assert list(legs.items()) == [(key, cell[:3]) for key, cell in want.items()]


@given(graphs(), st.integers(0, 3))
@example(
    # a vertex list not in name order
    GraphBimodule(["w", "a"], [Edge("x", "w", "a"), Edge("y", "a", "w"), Edge("z", "w", "w")]),
    3,
)
@settings(max_examples=40, deadline=None)
def test_spanning_basis_size_matches_sorted_oracle(module, depth):
    assert spanning_basis_size(module, depth) == len(dense_basis(module, depth))
    counts = path_counts(module, depth)
    for k, level in enumerate(counts):
        by_source = {v: 0 for v in module.vertices}
        for p in paths(module, k):
            by_source[p.s] += 1
        assert level == by_source


@pytest.mark.parametrize(
    "name", ["full_shift_2", "golden_mean", "triangular", "reducible_weighted"]
)
def test_kasparov_reports_match_stored(name, capsys, monkeypatch):
    # the unweighted ones stored from the dense route at depth 2, whose
    # psd_min were eigensolver round-off on singular blocks; the pivots move
    # them by less than 1e-13.  The weighted one stored from the pivots with
    # a listed commutator row, at depth 4
    stored = sorted(DATA.glob(f"kasparov_{name}_depth*.json"))
    assert len(stored) == 1
    want_text = stored[0].read_text()
    want = json.loads(want_text)
    assert json.dumps(want, indent=2, sort_keys=True) + "\n" == want_text
    monkeypatch.chdir(ROOT)
    code = main(["kasparov", want["graph"], "--depth", str(want["parameters"]["depth"])])
    out = capsys.readouterr().out
    assert code == 0
    got = json.loads(out)
    psd = got["gram"]["psd_min"]
    assert psd.keys() == want["gram"]["psd_min"].keys()
    for v, x in want["gram"]["psd_min"].items():
        assert abs(psd[v] - x) <= 1e-13
    want["gram"]["psd_min"] = psd
    assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_kasparov_full_shift_3_depth_3(capsys):
    graph = str(ROOT / "scripts" / "graphs" / "full_shift_3.json")
    code = main(["kasparov", graph, "--depth", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["failures"] == []
    assert doc["basis_size"] == 1600
    assert all(c["matches"] and c["total_rank"] == 1 for c in doc["commutators"])


O10 = {"vertices": ["z"], "edges": [{"id": f"e{i}", "r": "z", "s": "z"} for i in range(10)]}


@pytest.mark.parametrize(
    "name, depth, size",
    [
        ("full_shift_2", 12, 67_092_481),
        ("full_shift_3", 8, 96_845_281),
        ("full_shift_2", 40, (2**41 - 1) ** 2),
        ("golden_mean", 40, 679_891_633_965_988_457),
        ("full_shift_10", 8, 111_111_111**2),
    ],
)
def test_kasparov_counts_bases_it_could_not_enumerate(capsys, tmp_path, name, depth, size):
    # about 1e8 spanning symbols from under 10,000 paths; at depth 40 and on
    # O10, more paths than any listing could hold
    graph = ROOT / "scripts" / "graphs" / f"{name}.json"
    if name == "full_shift_10":
        graph = tmp_path / "o10.json"
        graph.write_text(json.dumps(O10))
    code = main(["kasparov", str(graph), "--depth", str(depth)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["failures"] == []
    assert doc["basis_size"] == size
    assert all(c["matches"] and c["total_rank"] == 1 for c in doc["commutators"])


K20 = {
    "vertices": [f"v{i}" for i in range(20)],
    "edges": [{"id": f"e{i}_{j}", "r": f"v{i}", "s": f"v{j}"} for i in range(20) for j in range(20)],
}


def test_kasparov_size_guard_exits_before_enumerating(capsys, monkeypatch, tmp_path):
    # the complete graph on 20 vertices has 8,000 second-leg groups of each
    # length from 2 on.  At depth 20 their steps and those of the class
    # rows come to 4.74 million; at depth 40 the leg groups alone pass the
    # bound, before the levels are counted to the depth
    def unread(*args):
        raise AssertionError(f"residue {args[1:]} read")

    graph = tmp_path / "k20.json"
    graph.write_text(json.dumps(K20))
    monkeypatch.setattr(ConditionalExpectation, "residue", unread)
    for depth in (20, 40):
        t0 = time.perf_counter()
        code = main(["kasparov", str(graph), "--depth", str(depth)])
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert code == 2
        assert f"the Gram at depth {depth} passes the limit of {GRAM_MAX_PIVOTS} steps" in err
        assert "(about 10 s)" in err
        assert elapsed < 1.0


def _row_per_signature_reads(module, depth):
    """The classes a Gram reads when each block signature reads its own
    residue row, in first-read order, and the number of reads, from the
    Path oracles of the second legs and the rho groups."""
    counts = path_counts(module, depth)
    walks = {v: [[] for _ in range(depth + 1)] for v in module.vertices}
    for j, level in enumerate(path_rhos(module, depth)):
        for r, s, w in level:
            walks[r][j].append((s, w))
    signatures, first, reads = set(), {}, 0
    for r0, n, w0, u, shared in path_legs(module, depth):
        for a in range(depth + 1):
            mult = counts[a][u] - (counts[a - 1][shared] if shared is not None and a else 0)
            L = depth - max(a, n)
            if mult and (r0, n, w0, u, L) not in signatures:
                signatures.add((r0, n, w0, u, L))
                for j, level in enumerate(walks[u][: L + 1]):
                    for s, _ in level:
                        first.setdefault((r0, s, n + j))
                        reads += 1
    return list(first), reads


@pytest.mark.parametrize("name, depth", [("reducible_weighted", 6), ("underflow", 5)])
def test_gram_reads_each_residue_row_once_in_the_same_order(monkeypatch, name, depth):
    # the row of residues depends on (r(nu_0), |nu_0|, s(nu_0)) only; the
    # first-read order decides which uncertified class a failing run names
    with open(DATA / f"{name}.json") as fh:
        doc = json.load(fh)
    edges = [Edge(e["id"], e["r"], e["s"], e.get("weight", 1.0)) for e in doc["edges"]]
    m = GraphBimodule(doc["vertices"], edges)
    exp_ = ConditionalExpectation(m)
    read = []
    limit = ConditionalExpectation.limit

    def logged(self, r, s, n):
        read.append((r, s, n))
        return limit(self, r, s, n)

    monkeypatch.setattr(ConditionalExpectation, "limit", logged)
    gram(m, depth, exp_)
    want, reads = _row_per_signature_reads(m, depth)
    assert list(dict.fromkeys(read)) == want
    assert len(read) < reads


_LOOP_WEIGHTS = random.Random(37)
LOOPS30 = {
    "vertices": ["z"],
    "edges": [
        {"id": f"l{i}", "r": "z", "s": "z", "weight": round(_LOOP_WEIGHTS.uniform(0.1, 2.0), 6)}
        for i in range(30)
    ],
}


@pytest.mark.parametrize("name, depth", [("reducible_weighted", 14), ("reducible_weighted", 40), ("loops30", 5)])
def test_kasparov_runs_past_the_old_pivot_wall(capsys, tmp_path, name, depth):
    # a walk keyed by path weight passed its pivot bound on these: at depth
    # 14 on reducible_weighted, and at depth 5 on 30 loops of distinct
    # weights, after 433 MiB.  The classes drop the weight
    graph = DATA / f"{name}.json"
    if name == "loops30":
        graph = tmp_path / "loops30.json"
        graph.write_text(json.dumps(LOOPS30))
    code = main(["kasparov", str(graph), "--depth", str(depth)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["failures"] == []


FAINT = GraphBimodule(["z"], [Edge("a", "z", "z"), Edge("b", "z", "z", 1e-6)])


@pytest.mark.parametrize("depth, rank", [(2, 40), (3, 176)])
def test_rank_counts_harmonic_defects_not_weighted_pivots(full_shift2, depth, rank):
    # FAINT has the paths of O2, and its harmonic defects have the signs of
    # O2's: zero below a block's depth, up to round-off, and the residue at
    # it.  So the ranks are O2's.  A pivot weight(nu_0) weight(rho) h with
    # a path through b is 1e-6 h or less, and a threshold on it, not on h,
    # dropped such pivots from the rank (33 and 108)
    gd = gram(FAINT, depth, ConditionalExpectation(FAINT))
    assert gd.gram_ranks == gram(full_shift2, depth, ConditionalExpectation(full_shift2)).gram_ranks
    assert gd.gram_ranks == (rank,)
    assert gd.psd_min == (-1.1102230246251565e-16,)
