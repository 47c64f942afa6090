import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import graphs
from dense_spectral import adjacency
from symbolic import (
    AlgebraElement,
    FockVector,
    check_bimodule_axioms,
    index_element,
    left_action,
    left_inner,
    phi_k,
    right_action,
    right_inner,
    smeb_check,
)

from graphbimod import Edge, GraphBimodule, GraphStructureError, beta_is_central, paths

SRC = Path(__file__).resolve().parents[1] / "src"


def test_rejects_duplicate_edge_ids():
    with pytest.raises(GraphStructureError):
        GraphBimodule(["u"], [Edge("a", "u", "u"), Edge("a", "u", "u")])


def test_rejects_dangling_vertex():
    with pytest.raises(GraphStructureError, match="unknown vertex 'x'"):
        GraphBimodule(["u"], [Edge("a", "u", "x")])


def test_rejects_source_vertex():
    # u emits nothing, so the right inner product would be degenerate there
    with pytest.raises(GraphStructureError):
        GraphBimodule(["u", "v"], [Edge("a", "u", "v"), Edge("b", "v", "v")])


def test_rejects_nonpositive_weight():
    with pytest.raises((GraphStructureError, ValueError)):
        GraphBimodule(["u"], [Edge("a", "u", "u", weight=-1.0)])


def test_rejects_non_finite_weight():
    with pytest.raises(GraphStructureError, match="non-finite weight"):
        GraphBimodule(["u"], [Edge("a", "u", "u", weight=float("inf"))])
    with pytest.raises(GraphStructureError, match="non-finite weight"):
        GraphBimodule(["u"], [Edge("a", "u", "u", weight=float("nan"))])


def test_adjacency_counts_parallel_edges(lopsided):
    B = adjacency(lopsided)
    assert np.array_equal(B, np.array([[1.0, 2.0], [1.0, 0.0]]))


def test_integer_adjacency_is_exact_and_read_only():
    # 0.1 and 0.3 are not dyadic: their binary values set the denominator
    m = GraphBimodule(
        ["u", "v"],
        [Edge("a", "u", "u", 0.1), Edge("b", "u", "v", 0.3), Edge("c", "v", "u", 2.0),
         Edge("d", "u", "u", 0.5)],
    )
    D = m.denominator
    assert D == Fraction(0.1).denominator
    A = {(i, j): a for i, row in enumerate(m.integer_adjacency) for j, a in row}
    assert A == {(0, 0): (Fraction(0.1) + Fraction(0.5)) * D, (0, 1): Fraction(0.3) * D,
                 (1, 0): 2 * D}
    assert m.index_exact == {"u": Fraction(0.1) + Fraction(0.3) + Fraction(0.5), "v": Fraction(2)}
    B = adjacency(m)
    assert B[0, 0] == float(Fraction(0.1) + Fraction(0.5)) and B[1, 1] == 0.0
    with pytest.raises(ValueError):
        B[0, 0] = 1.0


def test_index_element_is_weighted_out_degree(golden, triangular):
    assert index_element(golden).as_dict() == {"u": 2, "v": 1}
    assert index_element(triangular).as_dict() == {"v": 1, "w": 2}


def test_index_element_sees_weights(weighted_loop):
    assert index_element(weighted_loop)["z"] == 2


def test_beta_central_only_when_index_constant_on_edges(full_shift2, golden, cycle3):
    assert beta_is_central(full_shift2)
    assert beta_is_central(cycle3)
    assert not beta_is_central(golden)


def test_inner_products_against_hand_sums(golden):
    x = FockVector.from_edges(golden, [1 + 1j, 2, 0])
    y = FockVector.from_edges(golden, [1, 1j, 3])
    # edges ordered a, b, c with sources u, v, u
    r = right_inner(x, y)
    assert r["u"] == pytest.approx((1 - 1j) * 1 + 0 * 3)
    assert r["v"] == pytest.approx(2 * 1j)
    l = left_inner(x, y)
    # ranges: a, b at u and c at v
    assert l["u"] == pytest.approx((1 + 1j) * 1 + 2 * (-1j))
    assert l["v"] == pytest.approx(0)


def test_left_inner_carries_edge_weight():
    m = GraphBimodule(["z"], [Edge("l", "z", "z", weight=2.0)])
    x = FockVector.from_edges(m, [3])
    assert left_inner(x, x)["z"] == pytest.approx(18)
    assert right_inner(x, x)["z"] == pytest.approx(9)


def test_actions_scale_by_the_right_vertex(golden):
    a = AlgebraElement.from_dict(golden.vertices, {"u": 2, "v": 5})
    x = FockVector.from_edges(golden, [1, 1, 1])
    lx = left_action(a, x)
    assert [lx.coefficient(p) for p in paths(golden, 1)] == [2, 2, 5]
    rx = right_action(x, a)
    assert [rx.coefficient(p) for p in paths(golden, 1)] == [2, 5, 2]


def test_frame_reconstruction_is_exact(golden):
    # the sum of e . <e|x>_R over the edge point masses e rebuilds x, with
    # the inner product multiplied on the right
    report = check_bimodule_axioms(golden, trials=20, seed=3)
    assert report.residuals["frame_reconstruction"] == 0


def test_phi_one_reproduces_index(golden):
    # Watatani's trace on the edge operators is phi_k at level 1
    n = len(golden.edges)
    beta = phi_k(golden, 1, np.eye(n))
    assert beta.isclose(index_element(golden), tol=0)


@given(graphs(weights=(0.25, 0.5, 1.0, 1.5, 3.0)))
@settings(max_examples=40, deadline=None)
def test_exact_index_is_phi_one_of_the_identity(module):
    # dyadic weights keep every float sum exact, so the routes agree bit for bit
    phi = phi_k(module, 1, np.eye(len(module.edges)))
    assert {v: Fraction(phi[v].real) for v in module.vertices} == module.index_exact
    assert phi.isclose(index_element(module), tol=0)


def test_axiom_report_all_graphs(golden, triangular, lopsided, oscillating):
    for m in (golden, triangular, lopsided, oscillating):
        report = check_bimodule_axioms(m, trials=60, seed=11)
        assert report.passed, report.residuals
        assert report.worst() < 1e-12


@given(graphs(weights=(0.5, 1.0, 2.0)))
@settings(max_examples=40, deadline=None)
def test_structural_checks_on_generated_graphs(module):
    report = check_bimodule_axioms(module, trials=10, seed=7)
    assert report.passed, report.residuals
    assert report.residuals["frame_reconstruction"] == 0
    # the docstring's claim: exactly the unit-weight permutation graphs
    permutation = all(
        len(module.edges_with_range(v)) == sum(e.s == v for e in module.edges) == 1
        for v in module.vertices
    ) and all(e.weight == 1.0 for e in module.edges)
    assert smeb_check(module).holds == permutation


def test_smeb_permutation_graph_true(cycle3):
    res = smeb_check(cycle3)
    assert res.holds
    assert res.witness is None


def test_smeb_full_shift_false_with_witness(full_shift2):
    res = smeb_check(full_shift2)
    assert not res.holds
    assert res.witness is not None
    g, e, f = res.witness
    assert res.defect > 0.9
    # the witness is a concrete triple violating the exchange identity
    assert {g, e, f} <= {x.id for x in full_shift2.edges}


def test_smeb_fails_on_weighted_graph(weighted_loop):
    # a single loop is a permutation graph, but the weight spoils the
    # two-sided inner product match
    assert not smeb_check(weighted_loop).holds


def test_edge_hash_is_the_field_hash_kept_on_the_instance():
    edge = Edge("a", "u", "v", 2.0)
    copies = [
        Edge("a", "u", "v", 2.0),
        pickle.loads(pickle.dumps(edge)),
        copy.copy(edge),
        copy.deepcopy(edge),
        Edge(edge.id, edge.r, edge.s, edge.weight),
    ]
    for other in copies:
        assert other == edge
        assert hash(other) == hash(edge) == hash(("a", "u", "v", 2.0))
    assert Edge("a", "u", "v", 1.0) != edge
    # hash() reads the stored value instead of building the tuple again
    object.__setattr__(copies[0], "_hash", 12345)
    assert hash(copies[0]) == 12345


def test_pickled_edge_rehashes_in_another_process():
    # string hashes differ between processes, so a stored hash must not
    # travel with the pickle
    edge = Edge("a", "u", "v", 2.0)
    code = (
        "import pickle, sys; e = pickle.loads(sys.stdin.buffer.read()); "
        "print(hash(e) == hash((e.id, e.r, e.s, e.weight)))"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONHASHSEED": seed}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", code],
        input=pickle.dumps(edge),
        capture_output=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == b"True"
