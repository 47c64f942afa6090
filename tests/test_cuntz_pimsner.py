import numpy as np
import pytest
from dense_kasparov import (
    dense_basis,
    dense_commutator_check,
    dense_gram,
    dense_projection_defects,
    dense_projection_matrix,
    dense_theta_matrix,
)
from hypothesis import given, settings, strategies as st
from symbolic import (
    AlgebraElement,
    SpanningElement,
    beta_k,
    covariance_substitute,
    finite_level,
    gauge_scaled,
    partition_defect,
    phi,
    phi_k,
    random_algebra_element,
    spanning_basis_size,
    vertex_path,
)

from graphbimod import (
    ConditionalExpectation,
    Edge,
    GraphBimodule,
    ResidueUncertifiedError,
    gram,
    make_path,
    paths,
)
from graphbimod.spectral import GrowthTable


def sym(m, mu_ids, nu_ids):
    return SpanningElement.symbol(
        m, make_path(m, mu_ids), make_path(m, nu_ids)
    )


def test_symbol_requires_matching_sources(golden):
    # a ends at u, b ends at v
    with pytest.raises(ValueError):
        sym(golden, ["a"], ["b"])


def test_adjoint_swaps_legs(golden):
    x = sym(golden, ["a", "b"], ["c", "b"])
    pair = next(iter(x.adjoint().terms))
    assert pair[0].ids == ("c", "b")
    assert pair[1].ids == ("a", "b")


def test_isometry_relation(full_shift2):
    # annihilate then create: S_a* S_a is the point mass at the source
    sa = SpanningElement.generator(full_shift2, "a")
    prod = sa.adjoint() * sa
    assert prod.isclose(
        SpanningElement.from_algebra(
            full_shift2, AlgebraElement.point_mass(full_shift2.vertices, "z")
        )
    )


def test_distinct_edges_annihilate(full_shift2):
    sa = SpanningElement.generator(full_shift2, "a")
    sb = SpanningElement.generator(full_shift2, "b")
    assert (sa.adjoint() * sb).sup_coefficient() == 0


def test_prefix_reduction_product(full_shift2):
    lhs = sym(full_shift2, ["a"], ["a"]) * sym(full_shift2, ["a"], ["b"])
    assert lhs.isclose(sym(full_shift2, ["a"], ["b"]))
    rhs = sym(full_shift2, ["a"], ["b"]) * sym(full_shift2, ["b", "a"], ["a"])
    assert rhs.isclose(sym(full_shift2, ["a", "a"], ["a"]))


def test_vertex_projections_multiply_like_points(golden):
    pu = SpanningElement.from_algebra(
        golden, AlgebraElement.point_mass(golden.vertices, "u")
    )
    pv = SpanningElement.from_algebra(
        golden, AlgebraElement.point_mass(golden.vertices, "v")
    )
    assert (pu * pv).sup_coefficient() == 0
    assert (pu * pu).isclose(pu)


def test_algebra_acts_on_generators_by_endpoints(golden):
    a = AlgebraElement.from_dict(golden.vertices, {"u": 2, "v": 3})
    sb = SpanningElement.generator(golden, "b")
    left = SpanningElement.from_algebra(golden, a) * sb
    right = sb * SpanningElement.from_algebra(golden, a)
    # b runs from source v to range u
    assert left.isclose(2 * sb)
    assert right.isclose(3 * sb)


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_product_is_associative(i, j, k):
    m = GraphBimodule(
        ["u", "v"],
        [Edge("a", "u", "u"), Edge("b", "u", "v"), Edge("c", "v", "u")],
    )
    pool = []
    for n in (0, 1, 2):
        for mu in paths(m, n):
            for nu in paths(m, n):
                if mu.s == nu.s:
                    pool.append(SpanningElement.symbol(m, mu, nu))
    x, y, z = pool[i % len(pool)], pool[j % len(pool)], pool[k % len(pool)]
    lhs = (x * y) * z
    rhs = x * (y * z)
    assert lhs.isclose(rhs, tol=1e-12)


def test_unbalanced_symbols_compress_to_zero(full_shift2):
    x = sym(full_shift2, ["a", "a"], ["b"])
    assert np.all(x.as_fock_matrix(3) == 0)


def test_phi_infty_full_shift_diagonal(full_shift2):
    exp_ = ConditionalExpectation(full_shift2)
    for n in (1, 2, 3):
        for mu in paths(full_shift2, n):
            x = SpanningElement.symbol(full_shift2, mu, mu)
            val = phi(exp_, x)
            assert val["z"] == pytest.approx(2.0**-n, abs=1e-12)


def test_phi_infty_kills_off_diagonal(full_shift2):
    x = sym(full_shift2, ["a", "a"], ["b", "a"])
    assert phi(ConditionalExpectation(full_shift2), x).norm() == 0


def test_phi_infty_is_bilinear_over_the_base(golden):
    rng = np.random.default_rng(8)
    a = random_algebra_element(golden, rng)
    b = random_algebra_element(golden, rng)
    x = sym(golden, ["a", "a"], ["c", "a"]) + 2 * sym(golden, ["c"], ["c"])
    sandwich = (
        SpanningElement.from_algebra(golden, a)
        * x
        * SpanningElement.from_algebra(golden, b)
    )
    exp_ = ConditionalExpectation(golden)
    expect = a * phi(exp_, x) * b
    assert phi(exp_, sandwich).isclose(expect, tol=1e-10)


def test_phi_infty_positive_on_squares(golden):
    exp_ = ConditionalExpectation(golden)
    rng = np.random.default_rng(21)
    pool = []
    for n in (0, 1, 2):
        for mu in paths(golden, n):
            for nu in paths(golden, n):
                if mu.s == nu.s:
                    pool.append((mu, nu))
    worst = 0.0
    for _ in range(100):
        picks = rng.choice(len(pool), size=3, replace=False)
        x = None
        for i in picks:
            mu, nu = pool[i]
            c = complex(rng.standard_normal(), rng.standard_normal())
            term = c * SpanningElement.symbol(golden, mu, nu)
            x = term if x is None else x + term
        val = phi(exp_, x.adjoint() * x)
        worst = min(worst, min(v.real for v in val.as_dict().values()))
    assert worst >= -1e-10


def test_gauge_scaling_phase_and_group_law(golden):
    x = sym(golden, ["a", "b"], ["b"])
    y = gauge_scaled(x, 0.7)
    pair = next(iter(x.terms))
    expect = x.terms[pair] * np.exp(1j * 0.7 * (2 - 1))
    assert y.terms[pair] == pytest.approx(expect, abs=1e-15)
    z = gauge_scaled(gauge_scaled(x, 0.3), 0.4)
    assert z.isclose(y, tol=1e-14)


def test_phi_infty_gauge_invariance_is_exact(golden):
    x = sym(golden, ["a"], ["a"]) + sym(golden, ["a", "b"], ["b"]) * (0.5 + 1j)
    exp_ = ConditionalExpectation(golden)
    before = phi(exp_, x)
    after = phi(exp_, gauge_scaled(x, 1.234))
    assert np.array_equal(before.values, after.values)


def test_covariance_generator_shape(golden):
    a = AlgebraElement.point_mass(golden.vertices, "u")
    gen = covariance_substitute(golden, a)
    # p_u minus the two range-u edge projections
    assert len(gen.terms) == 3
    assert gen.degrees() == {0}


def test_phi_infty_vanishes_on_covariance_ideal(golden, triangular, full_shift3):
    rng = np.random.default_rng(13)
    for m in (golden, triangular, full_shift3):
        exp_ = ConditionalExpectation(m)
        for _ in range(20):
            a = random_algebra_element(m, rng)
            gen = covariance_substitute(m, a)
            assert phi(exp_, gen).norm() < 1e-10


def test_partition_defect_small(golden, triangular, lopsided):
    for m in (golden, triangular, lopsided):
        assert partition_defect(ConditionalExpectation(m)) < 1e-10


def test_finite_level_matches_dense_compression(triangular, oscillating):
    for m in (triangular, oscillating):
        table = GrowthTable(m, 200)
        pool = []
        for n in (1, 2):
            for mu in paths(m, n):
                for nu in paths(m, n):
                    if mu.s == nu.s:
                        pool.append(SpanningElement.symbol(m, mu, nu))
        x = pool[0] + 0.5 * pool[-1]
        for k in (2, 3, 4):
            dense = phi_k(m, k, x.as_fock_matrix(k)) / beta_k(m, k)
            fast = finite_level(table, x, k)
            assert fast.isclose(dense, tol=1e-12), (m, k)


def test_finite_level_converges_to_phi_infty(triangular):
    exp_ = ConditionalExpectation(triangular)
    x = sym(triangular, ["g"], ["g"])
    limit = phi(exp_, x)
    table = GrowthTable(triangular, 2000)
    far = finite_level(table, x, 1500)
    assert (limit - far).norm() < 1e-2
    near = finite_level(table, x, 10)
    assert (limit - near).norm() > (limit - far).norm()


def test_finite_level_stops_at_k_max(triangular):
    table = GrowthTable(triangular, 50)
    x = sym(triangular, ["g"], ["g"])
    assert finite_level(table, x, 50).norm() > 0
    with pytest.raises(ValueError, match="above k_max 50"):
        finite_level(table, x, 51)


def test_unconverged_residue_raises(oscillating, no_limit, spread_cycle):
    # the loop l at z: weight(l) times its class (z, z, 1), which is 1/2 on
    # the oscillating graph and the parity mean 41/80 where it has no limit
    for m, want in ((oscillating, 1.0), (no_limit, 41 / 80)):
        pl = make_path(m, ["l"])
        x = SpanningElement.symbol(m, pl, pl)
        assert phi(ConditionalExpectation(m), x)["z"] == want
    # the ripple graph's (v2, v1, 1), through the edge e3 v2 <- v1
    ripple = GraphBimodule(
        ["v0", "v1", "v2", "v3"],
        [Edge(f"e{i}", r, s) for i, (r, s) in enumerate(
            [("v0", "v0"), ("v3", "v0"), ("v2", "v0"), ("v2", "v1"),
             ("v1", "v2"), ("v3", "v2"), ("v3", "v3")])],
    )
    pe = make_path(ripple, ["e3"])
    assert phi(ConditionalExpectation(ripple), SpanningElement.symbol(ripple, pe, pe))["v2"] == 1.0
    # a class still uncertified raises: c's entry of the Perron vector is
    # below the double range, so (c, c, 0) is 0 / 0
    pc = vertex_path(spread_cycle, "c")
    with pytest.raises(ResidueUncertifiedError, match=r"class \('c', 'c', 0\) did not converge"):
        phi(ConditionalExpectation(spread_cycle), SpanningElement.symbol(spread_cycle, pc, pc))


def test_spanning_basis_sizes(full_shift2, golden, triangular):
    # from integer path counts, with no path enumerated
    for m, size in ((full_shift2, 225), (golden, 170), (triangular, 116)):
        assert spanning_basis_size(m, 3) == size
        assert len(dense_basis(m, 3)) == size


def test_gram_psd_and_isometry(full_shift2, golden, triangular):
    for m in (full_shift2, golden, triangular):
        gd = gram(m, 3, ConditionalExpectation(m))
        assert min(gd.psd_min) >= -1e-10
        assert gd.isometry_defect() < 1e-12


def test_projection_is_idempotent_and_symmetric(full_shift2, golden, triangular):
    # the projection is the dense oracle's; each column has one entry, so
    # both defects are products of one nonzero and come out exactly 0
    for m in (full_shift2, golden, triangular):
        exp_ = ConditionalExpectation(m)
        dense = dense_gram(m, 3, exp_)
        P = dense_projection_matrix(list(dense.basis), exp_)
        assert dense_projection_defects(P, dense) == (0.0, 0.0)


def test_projection_fixes_plain_paths_and_kills_offsets(golden):
    exp_ = ConditionalExpectation(golden)
    basis = dense_basis(golden, 2)
    index = {pair: i for i, pair in enumerate(basis)}
    P = dense_projection_matrix(basis, exp_)
    # a runs u <- u and c runs v <- u, so (a, c) has no matching tail
    j = index[(make_path(golden, ["a"]), vertex_path(golden, "u"))]
    k = index[(make_path(golden, ["a"]), make_path(golden, ["c"]))]
    assert np.flatnonzero(P[:, j]).tolist() == [j] and P[j, j] == 1.0
    assert not P[:, k].any()


def test_theta_route_agrees_exactly(full_shift2, golden, triangular):
    # the closed-form projection is the rank-one sum over every plain path
    # symbol, entry for entry
    for m in (full_shift2, golden, triangular):
        exp_ = ConditionalExpectation(m)
        P = dense_projection_matrix(dense_basis(m, 3), exp_)
        assert np.array_equal(P, dense_theta_matrix(m, 3, exp_))


def _commutators(m, depth):
    """Closed-form reports, equal to the dense direct route's.

    The oracle composes the projections at depth and depth+1 with the edge
    shift; that operator equals the one-row closed form exactly.
    """
    exp_ = ConditionalExpectation(m)
    reports = gram(m, depth, exp_).commutators
    dense_reports, discrepancies = dense_commutator_check(m, depth, exp_)
    assert reports == dense_reports
    assert set(discrepancies.values()) == {0.0}
    return reports


def test_commutator_ranks_full_shift(full_shift2):
    reports = _commutators(full_shift2, 3)
    for rep in reports:
        assert rep.total_rank == 1
        assert rep.matches


def test_commutator_ranks_golden(golden):
    for rep in _commutators(golden, 3):
        assert rep.matches
        assert rep.total_rank == 1


def test_commutator_ranks_triangular(triangular):
    # the cross edge f sees only the vanishing mixed-class coefficients,
    # so its commutator column space dies in the quotient
    by_edge = {rep.edge: rep for rep in _commutators(triangular, 3)}
    assert by_edge["e"].total_rank == 1
    assert by_edge["f"].total_rank == 0
    assert by_edge["g"].total_rank == 1
    for rep in by_edge.values():
        assert rep.matches


def test_commutator_surviving_columns_listed(triangular):
    # no column of f survives, so none is predicted; those of e do, at r(e)
    by_edge = {rep.edge: rep for rep in _commutators(triangular, 3)}
    assert by_edge["f"].predicted_total == 0
    assert by_edge["e"].predicted == {v: int(v == triangular.edge("e").r) for v in triangular.vertices}
