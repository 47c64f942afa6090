import itertools
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TINY_CHAIN, graphs
from symbolic import (
    AlgebraElement,
    FockVector,
    beta_k,
    concat,
    extends,
    head,
    index_element,
    left_action,
    left_inner,
    path_weight,
    phi_k,
    rank_one_phi,
    right_action,
    right_inner,
    tail,
    term_levels,
    vertex_path,
)

from graphbimod import Edge, GraphBimodule, Path, index_levels, make_path, paths


def rank_one_tensor_matrix(module, k, xi, eta):
    """Dense matrix of (rank-one on degree n) tensor (identity on k-n factors).

    Direct construction over the length-k path basis, the oracle that
    rank_one_phi's closed form is tested against through phi_k.
    """
    n = xi.degree()
    assert eta.degree() == n
    plist = paths(module, k)
    idx = {p: i for i, p in enumerate(plist)}
    M = np.zeros((len(plist), len(plist)), dtype=complex)
    for col, q in enumerate(plist):
        amp = eta.terms.get(head(q, n))
        if amp is None:
            continue
        rest = tail(q, k - n)
        for lam, c in xi.terms.items():
            if lam.s == rest.r:
                M[idx[concat(lam, rest)], col] += c * np.conj(amp)
    return M


def brute_force_paths(module, k):
    """Composable edge tuples by exhaustive product, the slow way."""
    if k == 0:
        return [(v,) for v in module.vertices]
    out = []
    for combo in itertools.product(module.edges, repeat=k):
        if all(combo[i].s == combo[i + 1].r for i in range(k - 1)):
            out.append(tuple(e.id for e in combo))
    return out


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_path_enumeration_matches_brute_force(golden, k):
    got = {p.ids if len(p) else (p.base,) for p in paths(golden, k)}
    assert got == set(brute_force_paths(golden, k))


def test_path_count_golden_length5(golden):
    # row sums of the fifth adjacency power: 8 + 5 at u, 5 + 3 at v
    assert len(paths(golden, 5)) == 21


def test_paths_sorted_and_indexed(golden):
    ps = paths(golden, 3)
    assert ps == sorted(ps, key=lambda p: p.sort_key())


@given(graphs(), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_paths_come_out_in_canonical_order(module, k):
    got = paths(module, k)
    assert got == sorted(got, key=Path.sort_key)


def test_path_hash_is_the_field_hash_computed_once(golden, monkeypatch):
    ids = ["a", "b", "c", "a"]
    built = [
        make_path(golden, ids),
        next(p for p in paths(golden, 4) if list(p.ids) == ids),
        concat(make_path(golden, ids[:1]), make_path(golden, ids[1:])),
        tail(make_path(golden, ["a", *ids]), 4),
        head(make_path(golden, [*ids, "a"]), 4),
        pickle.loads(pickle.dumps(make_path(golden, ids))),
    ]
    assert all(p == built[0] for p in built)
    edge_hashes = []

    def counted(edge):
        edge_hashes.append(edge)
        return hash((edge.id, edge.r, edge.s, edge.weight))

    monkeypatch.setattr(Edge, "__hash__", counted)
    for p in built:
        expect = hash((p.edges, p.base))
        assert hash(p) == expect
        edge_hashes.clear()
        assert hash(p) == expect
        assert hash(p) == hash((p.edges, p.base))
        # the second call read the stored value: only the check rehashed
        assert len(edge_hashes) == len(p)
    assert len(set(built)) == 1


def test_path_endpoints_and_weight(golden):
    p = make_path(golden, ["a", "b"])
    assert (p.r, p.s) == ("u", "v")
    assert len(p) == 2
    q = vertex_path(golden, "v")
    assert (q.r, q.s) == ("v", "v")
    assert len(q) == 0
    assert path_weight(q) == 1.0


def test_make_path_rejects_noncomposable(golden):
    with pytest.raises(ValueError):
        make_path(golden, ["b", "b"])


def test_head_tail_concat_roundtrip(golden):
    p = make_path(golden, ["a", "b", "c"])
    assert concat(head(p, 1), tail(p, 2)) == p
    assert head(p, 0) == vertex_path(golden, "u")
    assert tail(p, 0) == vertex_path(golden, "u")
    assert extends(p, head(p, 2))
    assert not extends(p, make_path(golden, ["b"]))


def test_empty_prefix_extension_checks_range(golden):
    p = make_path(golden, ["c"])
    assert extends(p, vertex_path(golden, "v"))
    assert not extends(p, vertex_path(golden, "u"))


@given(graphs(weights=(0.5, 1.0, 3.0)))
@settings(max_examples=30, deadline=None)
def test_beta_k_matches_matrix_powers(golden, triangular, lopsided, module):
    # exact rational powers of B built from the edge list, rounded once
    for m in (golden, triangular, lopsided, module):
        idx = {v: i for i, v in enumerate(m.vertices)}
        B = np.full((len(idx), len(idx)), Fraction(0), dtype=object)
        for e in m.edges:
            B[idx[e.r], idx[e.s]] += Fraction(e.weight)
        ones = np.full(len(idx), Fraction(1), dtype=object)
        for k in range(40):
            expect = [float(x) for x in np.linalg.matrix_power(B, k) @ ones]
            got = beta_k(m, k)
            assert [got[v].real for v in m.vertices] == expect, k


@given(graphs() | graphs(weights=(1e-300, 0.1, 0.5, 1.0, 2.0, 3.0, 999.5)))
@settings(max_examples=60, deadline=None)
def test_index_levels_equal_one_product_per_entry(module):
    # parallel edges merge into entries such as 2, so unit, shifted and
    # multiplied groups of one or more columns all occur
    grouped = itertools.islice(index_levels(module), 31)
    assert list(grouped) == list(itertools.islice(term_levels(module), 31))


def test_index_levels_of_the_tiny_chain_equal_one_product_per_entry():
    # entries D = 2^1049 (a shift) and the odd numerator of 1e-300 (a product)
    m = GraphBimodule(TINY_CHAIN["vertices"], [Edge(**e) for e in TINY_CHAIN["edges"]])
    grouped = itertools.islice(index_levels(m), 61)
    assert list(grouped) == list(itertools.islice(term_levels(m), 61))


def test_beta_k_past_the_double_range_raises_without_numpy_warnings():
    # B = [[6, 6], [3, 3]], so B^k 1 = 9^(k-1) (12, 6), past the largest
    # double from k = 323 on
    m = GraphBimodule(
        ["u", "v"],
        [Edge(f"{r}{s}{i}", r, s, 3.0) for s in "uv" for i, r in enumerate("uvu")],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert beta_k(m, 322)["u"] == float(12 * 9**321)
        with pytest.raises(OverflowError):
            beta_k(m, 700)


def test_beta_one_is_the_index(golden):
    assert beta_k(golden, 1).isclose(index_element(golden), tol=0)


def test_full_shift_beta_is_exact_power(full_shift3):
    for k in range(11):
        assert beta_k(full_shift3, k)["z"] == 3**k


def test_fock_vector_degree_and_actions(golden):
    p = make_path(golden, ["a", "b"])
    x = FockVector.delta(golden, p) * 2
    assert x.degree() == 2
    a = AlgebraElement.from_dict(golden.vertices, {"u": 3, "v": 7})
    assert left_action(a, x).coefficient(p) == 6
    assert right_action(x, a).coefficient(p) == 14


def test_mixed_degrees_refuse_a_degree(golden):
    x = FockVector.delta(golden, make_path(golden, ["a"]))
    y = FockVector.delta(golden, make_path(golden, ["a", "b"]))
    assert not (x + y).is_homogeneous()
    with pytest.raises(ValueError):
        (x + y).degree()


def test_inner_products_on_path_basis(golden):
    pa = FockVector.delta(golden, make_path(golden, ["a"]))
    pb = FockVector.delta(golden, make_path(golden, ["b"]))
    assert right_inner(pa, pa).as_dict() == {"u": 1, "v": 0}
    assert right_inner(pa, pb).norm() == 0
    assert left_inner(pb, pb).as_dict() == {"u": 1, "v": 0}


def test_left_inner_multiplies_path_weights():
    m = GraphBimodule(["z"], [Edge("l", "z", "z", weight=2.0)])
    p = make_path(m, ["l", "l", "l"])
    x = FockVector.delta(m, p)
    assert left_inner(x, x)["z"] == pytest.approx(8)
    assert right_inner(x, x)["z"] == pytest.approx(1)


def test_phi_k_of_identity_is_beta_k(golden, triangular):
    for m in (golden, triangular):
        for k in range(5):
            n = len(paths(m, k))
            assert phi_k(m, k, np.eye(n)).isclose(beta_k(m, k), tol=1e-12)


GOLDEN = None


def _golden_module():
    global GOLDEN
    if GOLDEN is None:
        GOLDEN = GraphBimodule(
            ["u", "v"],
            [Edge("a", "u", "u"), Edge("b", "u", "v"), Edge("c", "v", "u")],
        )
    return GOLDEN


@given(st.integers(2, 5), st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_rank_one_phi_agrees_with_dense_route(k, n):
    m = _golden_module()
    rng = np.random.default_rng(100 * k + n)
    pool = paths(m, n)
    xi = FockVector(
        m,
        {p: complex(rng.standard_normal(), rng.standard_normal()) for p in pool},
    )
    eta = FockVector(
        m,
        {p: complex(rng.standard_normal(), rng.standard_normal()) for p in pool},
    )
    fast = rank_one_phi(m, k, xi, eta)
    dense = phi_k(m, k, rank_one_tensor_matrix(m, k, xi, eta))
    assert fast.isclose(dense, tol=1e-10)


def test_rank_one_phi_dense_route_with_weights(oscillating):
    rng = np.random.default_rng(5)
    for n in (0, 1):
        pool = paths(oscillating, n)
        xi = FockVector(oscillating, {p: complex(rng.standard_normal()) for p in pool})
        eta = FockVector(oscillating, {p: complex(rng.standard_normal()) for p in pool})
        for k in (2, 3):
            fast = rank_one_phi(oscillating, k, xi, eta)
            dense = phi_k(oscillating, k, rank_one_tensor_matrix(oscillating, k, xi, eta))
            assert fast.isclose(dense, tol=1e-10), (n, k)
