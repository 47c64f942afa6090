"""The block-diagonal Kasparov layer against the dense oracle and stored reports."""

import json
import time
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
    dense_theta_matrix,
)
from hypothesis import example, given, settings, strategies as st

from graphbimod import (
    ConditionalExpectation,
    Edge,
    GraphBimodule,
    ResidueUncertifiedError,
    commutator_check,
    gram,
    projection_p,
    spanning_basis,
)
from graphbimod.cli import KASPAROV_MAX_BASIS, main
from graphbimod.cuntz_pimsner import spanning_basis_size

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
# the dense oracle holds V slices of N^2 complex entries at depth+1
DENSE_MAX_BASIS = 500


def _block_route(module, depth, exp_):
    gd = gram(module, depth, exp_)
    pd = projection_p(gd, exp_)
    reports = commutator_check(module, depth, exp_, gd)
    return gd, pd, reports


def _dense(entries, n):
    M = np.zeros((n, n), dtype=complex)
    for (i, j), c in entries.items():
        M[i, j] = c
    return M


def _check_block_route(module, depth):
    while depth > 0 and spanning_basis_size(module, depth + 1) > DENSE_MAX_BASIS:
        depth -= 1
    exp_ = ConditionalExpectation(module)
    try:
        gd, pd, reports = _block_route(module, depth, exp_)
    except ResidueUncertifiedError:
        with pytest.raises(ResidueUncertifiedError):
            dense_gram(module, depth, ConditionalExpectation(module))
        return
    dense = dense_gram(module, depth, exp_)
    N = len(gd.basis)
    assert gd.basis == dense.basis
    assert spanning_basis_size(module, depth) == N
    # every nonzero of the dense Gram sits in a block, on the block's vertex
    for block in gd.blocks:
        sub = dense.matrices[block.vertex][np.ix_(block.members, block.members)]
        assert np.array_equal(sub, block.matrix)
    assert np.count_nonzero(dense.matrices) == sum(
        np.count_nonzero(b.matrix) for b in gd.blocks
    )
    assert sorted(np.concatenate([b.members for b in gd.blocks])) == list(range(N))
    assert np.allclose(gd.psd_min, dense.psd_min, rtol=0, atol=1e-12)
    assert gd.gram_ranks == dense.gram_ranks
    assert gd.hermitian_defect == dense.hermitian_defect
    assert gd.isometry_defect() == dense.isometry_defect()

    P = dense_projection_matrix(list(gd.basis), exp_)
    assert np.array_equal(_dense(pd.entries(), N), P)
    assert (pd.idempotency_defect, pd.adjoint_defect) == dense_projection_defects(P, dense)
    assert np.array_equal(_dense(pd.entries(), N), dense_theta_matrix(module, depth, exp_))
    # the direct commutators rank in the depth+1 Gram, whose longer
    # classes may not certify where the depth ones do
    try:
        dense_reports, discrepancies = dense_commutator_check(module, depth, exp_)
    except ResidueUncertifiedError:
        return
    assert reports == dense_reports
    assert set(discrepancies.values()) <= {0.0}


@given(graphs(), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_block_route_matches_dense_oracle(module, depth):
    _check_block_route(module, depth)


@given(graphs(weights=(0.1, 0.5, 1.0, 3.0)), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_block_route_matches_dense_oracle_on_weighted_graphs(module, depth):
    # 0.1 is not dyadic, so a block that reused the matrix of another
    # weight(nu_0) would differ from the dense entries in some bit
    _check_block_route(module, depth)


@given(graphs(), st.integers(0, 3))
@example(
    # a vertex list not in name order
    GraphBimodule(["w", "a"], [Edge("x", "w", "a"), Edge("y", "a", "w"), Edge("z", "w", "w")]),
    3,
)
@settings(max_examples=40, deadline=None)
def test_spanning_basis_matches_sorted_oracle(module, depth):
    assert spanning_basis(module, depth) == dense_basis(module, depth)


@pytest.mark.parametrize("name", ["full_shift_2", "golden_mean", "triangular"])
def test_kasparov_reports_match_stored(name, capsys, monkeypatch):
    # stored from the dense route; eigensolver round-off in psd_min may move
    want_text = (DATA / f"kasparov_{name}_depth2.json").read_text()
    want = json.loads(want_text)
    assert json.dumps(want, indent=2, sort_keys=True) + "\n" == want_text
    monkeypatch.chdir(ROOT)
    code = main(["kasparov", f"scripts/graphs/{name}.json", "--depth", "2"])
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


def test_kasparov_size_guard_exits_before_enumerating(capsys, tmp_path):
    # O10 at depth 8 has about 1.2e16 symbols
    doc = {"vertices": ["z"], "edges": [{"id": f"e{i}", "r": "z", "s": "z"} for i in range(10)]}
    p = tmp_path / "o10.json"
    p.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code = main(["kasparov", str(p), "--depth", "8"])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code == 2
    assert f"limit of {KASPAROV_MAX_BASIS}" in err
    assert str(sum(10**k for k in range(9)) ** 2) in err
    assert elapsed < 1.0
