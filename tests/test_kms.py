import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import graphs
from symbolic import (
    AlgebraElement,
    FockVector,
    SpanningElement,
    compose_symbol,
    concat,
    covariance_substitute,
    evaluate,
    gamma,
    gamma_minus_i,
    kms_defect,
    right_inner,
    tr_phi,
    vertex_path,
)

from graphbimod import (
    Edge,
    GraphBimodule,
    TraceState,
    descent_residual,
    invariant_traces,
    make_path,
    paths,
)
from graphbimod.kms import _radius_vs_one, d_weight

# 0.1 makes the common denominator 2^55
ANY_GRAPH = st.one_of(
    graphs(), graphs(weights=(0.5, 1.0, 3.0)), graphs(weights=(0.1, 0.5, 1.0, 3.0))
)

# x <- x, y <- y and z <- z, with z fed by both loops: the loops are two
# distinguished classes, so the cone has two extreme rays
TWO_RAYS = GraphBimodule(
    ["x", "y", "z"],
    [Edge("a", "x", "x"), Edge("b", "y", "y"), Edge("c", "z", "x"),
     Edge("d", "z", "y"), Edge("e", "z", "z")],
)


def nullspace(rows: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Nullspace basis of a rational matrix by Gauss-Jordan elimination."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -mat[r][free]
        basis.append(vec)
    return basis


def extreme_rays(m) -> set[tuple[Fraction, ...]]:
    """Extreme rays of {w >= 0 : w_v index(v) = sum of w_s(e) over r(e) = v}.

    A solution is extreme exactly when the system's columns on its support
    have a one-dimensional nullspace, so each support whose nullspace is
    one positive (or negative) vector gives one ray, normalized to mass 1.
    """
    verts = list(m.vertices)
    n = len(verts)
    index = [sum(Fraction(e.weight) for e in m.edges if e.r == v) for v in verts]
    A = [
        [(index[i] if u == v else 0) - Fraction(sum(e.r == v and e.s == u for e in m.edges)) for u in verts]
        for i, v in enumerate(verts)
    ]
    rays = set()
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            null = nullspace([[row[j] for j in support] for row in A], size)
            if len(null) != 1:
                continue
            vec = null[0]
            if all(x > 0 for x in vec) or all(x < 0 for x in vec):
                w = [Fraction(0)] * n
                for j, x in zip(support, vec):
                    w[j] = x / sum(vec)
                rays.add(tuple(w))
    return rays


def test_d_weight_multiplies_index_along_ranges(golden):
    # the dynamics weight of a path is the product of out-degrees at the
    # range of each edge
    assert d_weight(golden, make_path(golden, ["a"])) == 2
    assert d_weight(golden, make_path(golden, ["b"])) == 2
    assert d_weight(golden, make_path(golden, ["c"])) == 1
    assert d_weight(golden, make_path(golden, ["a", "b"])) == 4
    assert d_weight(golden, vertex_path(golden, "u")) == 1


def test_gamma_is_a_one_parameter_group(golden):
    x = SpanningElement.symbol(
        golden, make_path(golden, ["a", "b"]), make_path(golden, ["b"])
    )
    y = gamma(golden, gamma(golden, x, 0.3), 0.5)
    z = gamma(golden, x, 0.8)
    assert y.isclose(z, tol=1e-12)
    assert gamma(golden, x, 0.0).isclose(x, tol=0)


def test_gamma_fixes_balanced_weight_symbols(golden):
    # same total dynamics weight on both legs means no phase
    x = SpanningElement.symbol(
        golden, make_path(golden, ["a"]), make_path(golden, ["a"])
    )
    assert gamma(golden, x, 1.7).isclose(x, tol=1e-15)


def test_gamma_minus_i_scales_by_weight_ratio(golden):
    x = SpanningElement.symbol(
        golden, make_path(golden, ["a", "b"]), make_path(golden, ["b"])
    )
    pair = next(iter(x.terms))
    got = gamma_minus_i(golden, x).terms[pair]
    assert got == pytest.approx(4 / 2, abs=1e-14)


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=40, deadline=None)
def test_gamma_additive_in_time(s, t):
    m = GraphBimodule(
        ["u", "v"],
        [Edge("a", "u", "u"), Edge("b", "u", "v"), Edge("c", "v", "u")],
    )
    x = SpanningElement.symbol(m, make_path(m, ["a"]), vertex_path(m, "u"))
    lhs = gamma(m, gamma(m, x, s), t)
    rhs = gamma(m, x, s + t)
    assert lhs.isclose(rhs, tol=1e-12)


def test_invariant_traces_uniform_on_connected(golden, triangular, cycle3, full_shift2):
    for m in (golden, triangular, cycle3, full_shift2):
        fam = invariant_traces(m)
        assert fam.feasible
        assert fam.dimension == 0
        n = len(m.vertices)
        for v in m.vertices:
            assert fam.canonical.weights[v] == Fraction(1, n)


def test_invariant_traces_split_across_components(two_loops):
    fam = invariant_traces(two_loops)
    assert fam.dimension == 1
    assert len(fam.basis) == 2
    masses = [sum(b.values()) for b in fam.basis]
    assert all(mass == 1 for mass in masses)
    assert fam.canonical.weights["p"] == Fraction(1, 2)


@given(ANY_GRAPH)
@settings(max_examples=200, deadline=None)
# the solve reaches the ray of {v2} before that of {v0, v1} (and v3)
@example(GraphBimodule(
    ["v0", "v1", "v2", "v3"],
    [Edge("a", "v1", "v0"), Edge("b", "v3", "v0"), Edge("c", "v0", "v1"),
     Edge("d", "v1", "v1"), Edge("e", "v2", "v2"), Edge("f", "v3", "v3")],
))
def test_basis_is_the_extreme_rays_by_support_enumeration(m):
    fam = invariant_traces(m)
    verts = list(m.vertices)
    got = [tuple(b[v] for v in verts) for b in fam.basis]
    assert set(got) == extreme_rays(m)
    assert len(got) == len(set(got)) == fam.dimension + 1
    assert fam.feasible == bool(got)
    # ordered by the least vertex of each support
    firsts = [next(i for i, x in enumerate(g) if x) for g in got]
    assert firsts == sorted(firsts)


def test_each_distinguished_class_gives_a_ray():
    fam = invariant_traces(TWO_RAYS)
    assert fam.dimension == 1
    third = Fraction(1, 3)
    assert [tuple(b.values()) for b in fam.basis] == [(2 * third, 0, third), (0, 2 * third, third)]
    assert all(descent_residual(TWO_RAYS, b) == 0 for b in fam.basis)
    assert fam.canonical.weights == {"x": third, "y": third, "z": third}


def test_a_class_reached_by_a_unit_radius_class_gives_no_ray():
    # rho = 1 on {x} and on {z}, but z reaches x, so only z is distinguished
    m = GraphBimodule(
        ["x", "z"],
        [Edge("a", "x", "x"), Edge("b", "z", "z", 0.5), Edge("c", "z", "x", 0.5)],
    )
    fam = invariant_traces(m)
    assert fam.basis == ({"x": 0, "z": 1},)


@given(ANY_GRAPH)
@settings(max_examples=150, deadline=None)
def test_pivot_signs_decide_the_class_radius_against_one(m):
    # against numpy's spectral radius of K_C = diag(index)^-1 N_C where it
    # is clear of 1; on unit weights K is row-stochastic, so rho(K_C) = 1
    # exactly on the classes that no edge enters from outside
    verts = list(m.vertices)
    D = m.denominator
    for c, period in enumerate(m.period):
        if not period:
            continue
        C = [v for v, cv in zip(verts, m.component) if cv == c]
        index = [sum(Fraction(e.weight) for e in m.edges if e.r == v) for v in C]
        N = [[sum(1 for e in m.edges if e.r == v and e.s == u) for u in C] for v in C]
        size = len(C)
        rows = [
            [int(D * index[i]) * (i == j) - D * N[i][j] for j in range(size)]
            for i in range(size)
        ]
        sign, _ = _radius_vs_one(rows, size)
        K = np.array([[N[i][j] / float(index[i]) for j in range(size)] for i in range(size)])
        rho = float(np.max(np.abs(np.linalg.eigvals(K))))
        if abs(rho - 1) > 1e-9:
            assert sign == (1 if rho > 1 else -1)
        if all(e.weight == 1 for e in m.edges):
            entered = any(e.r in C and e.s not in C for e in m.edges)
            assert sign == (-1 if entered else 0)


def test_invariant_traces_infeasible_with_bad_weights(weighted_loop):
    fam = invariant_traces(weighted_loop)
    assert not fam.feasible
    assert fam.canonical is None
    assert fam.dimension == -1


@given(m=st.one_of(graphs(), graphs(weights=(0.5, 0.75, 2.0, 3.0))), data=st.data())
@settings(max_examples=150, deadline=None)
def test_descent_residual_is_zero_exactly_on_invariant_weights(m, data):
    # weighted graphs are almost never feasible, so unit weights supply the
    # generators, whose residual is exactly 0; on any weights it is 0
    # exactly when w * index = N w, with index(v) the weight into v and
    # N[v][u] = #{e : r(e) = v, s(e) = u}
    fam = invariant_traces(m)
    for g in fam.basis:
        assert descent_residual(m, g) == 0
    verts = list(m.vertices)
    index = [sum(Fraction(e.weight) for e in m.edges if e.r == v) for v in verts]
    N = [[sum(1 for e in m.edges if e.r == v and e.s == u) for u in verts] for v in verts]
    positive = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
    if fam.feasible and data.draw(st.booleans()):
        scale = data.draw(positive)
        w = {v: scale * fam.canonical.weights[v] for v in verts}
    else:
        w = {v: data.draw(positive) for v in verts}
    lhs = [w[v] * x for v, x in zip(verts, index)]
    rhs = [sum(n * w[u] for n, u in zip(row, verts)) for row in N]
    residual = descent_residual(m, w)
    assert isinstance(residual, Fraction)
    assert (residual == 0) == (lhs == rhs)
    assert residual == max(abs(a - b) for a, b in zip(lhs, rhs))


def test_trace_state_mass_and_evaluation(golden):
    fam = invariant_traces(golden)
    tr = fam.canonical
    assert sum(tr.weights.values()) == 1
    x = SpanningElement.symbol(
        golden, make_path(golden, ["a"]), make_path(golden, ["a"])
    )
    assert evaluate(tr, x) == pytest.approx(0.25)


def test_phi_d_golden_length_one_values(golden):
    tr = invariant_traces(golden).canonical
    vals = {}
    for eid in ("a", "b", "c"):
        p = make_path(golden, [eid])
        vals[eid] = evaluate(tr, SpanningElement.symbol(golden, p, p)).real
    assert vals == {
        "a": pytest.approx(0.25),
        "b": pytest.approx(0.25),
        "c": pytest.approx(0.5),
    }


def test_phi_d_full_shift_powers(full_shift2):
    tr = invariant_traces(full_shift2).canonical
    for n in (1, 2, 3):
        for mu in paths(full_shift2, n):
            x = SpanningElement.symbol(full_shift2, mu, mu)
            assert evaluate(tr, x) == pytest.approx(2.0**-n, abs=1e-12)


def test_phi_d_is_a_state(golden):
    # unit total mass on the identity
    tr = invariant_traces(golden).canonical
    assert evaluate(tr, SpanningElement.identity(golden)) == pytest.approx(1.0)


def test_kms_residual_zero_on_symbol_pairs(golden, triangular, cycle3):
    rng = np.random.default_rng(17)
    for m in (golden, triangular, cycle3):
        tr = invariant_traces(m).canonical
        pool = []
        for k in (0, 1, 2, 3):
            pool.extend(paths(m, k))
        by_src = {}
        for p in pool:
            by_src.setdefault(p.s, []).append(p)
        worst = 0.0
        for _ in range(60):
            mu = pool[int(rng.integers(len(pool)))]
            nu = by_src[mu.s][int(rng.integers(len(by_src[mu.s])))]
            sg = pool[int(rng.integers(len(pool)))]
            rho = by_src[sg.s][int(rng.integers(len(by_src[sg.s])))]
            x = SpanningElement.symbol(m, mu, nu)
            y = SpanningElement.symbol(m, sg, rho)
            worst = max(worst, kms_defect(m, tr, x, y))
        assert worst < 1e-9, m


def exact_scale(m, path):
    """d(path) in exact arithmetic: the index at the range of each edge."""
    out = Fraction(1)
    for e in path.edges:
        out *= m.index_exact[e.r]
    return out


@given(m=graphs(weights=(0.5, 0.75, 2.0, 3.0)), data=st.data())
@settings(max_examples=100, deadline=None)
def test_exchange_identity_is_exact_on_diagonal_pairs(m, data):
    # for any vertex weights tau, both sides of the exchange relation are
    # tau(s(alpha)) / d(mu alpha), since d is multiplicative
    plist = [p for k in range(4) for p in paths(m, k)]
    by_src, by_range = {}, {}
    for p in plist:
        by_src.setdefault(p.s, []).append(p)
        by_range.setdefault(p.r, []).append(p)
    tau = {
        v: Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
        for v in m.vertices
    }
    mu = data.draw(st.sampled_from(plist))
    nu = data.draw(st.sampled_from(by_src[mu.s]))
    alpha = data.draw(st.sampled_from(by_range[mu.s]))
    mu_a, nu_a = concat(mu, alpha), concat(nu, alpha)
    want = tau[alpha.s] / exact_scale(m, mu_a)
    # y = (nu alpha, mu alpha) for x = (mu, nu); x = (rho alpha, sigma
    # alpha) for y = (sigma, rho), here with rho = mu and sigma = nu
    for x, y in (((mu, nu), (nu_a, mu_a)), ((mu_a, nu_a), (nu, mu))):
        xy = compose_symbol(*x, *y)
        yx = compose_symbol(*y, *x)
        assert xy == (mu_a, mu_a) and yx[0] == yx[1]
        lhs = tau[xy[0].s] / exact_scale(m, xy[0])
        ratio = exact_scale(m, y[0]) / exact_scale(m, y[1])
        rhs = ratio * tau[yx[0].s] / exact_scale(m, yx[0])
        assert lhs == rhs == want


@given(m=graphs(weights=(0.5, 0.75, 2.0, 3.0)), data=st.data())
@settings(max_examples=150, deadline=None)
def test_pairs_of_nonzero_degree_have_no_diagonal_product(m, data):
    pool = [p for k in range(4) for p in paths(m, k)]
    by_src = {}
    for p in pool:
        by_src.setdefault(p.s, []).append(p)
    weights = {v: Fraction(data.draw(st.integers(1, 9))) for v in m.vertices}

    def symbol():
        mu = data.draw(st.sampled_from(pool))
        return mu, data.draw(st.sampled_from(by_src[mu.s]))

    (mu, nu), (sigma, rho) = symbol(), symbol()
    assume(len(mu) - len(nu) + len(sigma) - len(rho) != 0)
    x = SpanningElement.symbol(m, mu, nu)
    y = SpanningElement.symbol(m, sigma, rho)
    defect = kms_defect(m, TraceState(m, weights), x, y)
    assert defect == 0.0 and math.copysign(1.0, defect) == 1.0
    for product in (x * y, gamma_minus_i(m, y) * x):
        assert all(a != b for a, b in product.terms)


def test_only_invariant_traces_kill_the_covariance_ideal(golden):
    # the exchange identity holds on spanning symbols for any weights;
    # what distinguishes the invariant trace is descent through the
    # covariance relation
    pu = AlgebraElement.point_mass(golden.vertices, "u")
    gen = covariance_substitute(golden, pu)
    bad = TraceState(golden, {"u": Fraction(1), "v": Fraction(0)})
    good = invariant_traces(golden).canonical
    assert abs(evaluate(bad, gen)) > 0.1
    assert evaluate(good, gen) == 0


def test_tr_phi_agrees_with_frame_expansion(golden):
    tr = invariant_traces(golden).canonical
    rng = np.random.default_rng(23)
    n = len(golden.edges)
    xi = FockVector.from_edges(golden, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    eta = FockVector.from_edges(golden, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    # sum over the edge frame of conj(eta_e) xi_e tau(p_{s(e)}), each
    # coefficient read off as <delta_e|x>_R at the source of e
    expect = 0j
    for p in paths(golden, 1):
        delta = FockVector.delta(golden, p)
        xi_e, eta_e = right_inner(delta, xi)[p.s], right_inner(delta, eta)[p.s]
        expect += eta_e.conjugate() * xi_e * float(tr.weights[p.s])
    assert tr_phi(tr, xi, eta) == pytest.approx(expect, abs=1e-12)


def test_tr_phi_positive_diagonal(golden):
    tr = invariant_traces(golden).canonical
    rng = np.random.default_rng(29)
    n = len(golden.edges)
    for _ in range(10):
        xi = FockVector.from_edges(golden, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert tr_phi(tr, xi, xi).real >= 0
