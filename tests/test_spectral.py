import math
import warnings
from array import array
from fractions import Fraction

import numpy as np
import pytest
from conftest import exact_ratio, fraction_levels, graphs
from dense_spectral import (
    adjacency,
    certifies,
    collatz_wielandt,
    perron_pair,
    rate_constants,
    verify_rate_certificate,
)
from hypothesis import given, settings, strategies as st
from symbolic import SpanningElement, phi_s_partial

from graphbimod import Edge, GraphBimodule, eta_tilde, make_path, paths
from graphbimod.spectral import (
    GrowthTable,
    PFData,
    _perron,
    _target_realized,
    growth_profile,
    pf_data,
    residue_limit,
)

PHI = (1 + math.sqrt(5)) / 2


def _power_iteration(M, tol=1e-14, max_iter=20_000):
    """Leading eigenpair of a nonnegative matrix by normalized iteration.

    An independent route to the Perron data, kept as an oracle for the
    inverse iteration in pf_data.
    """
    n = M.shape[0]
    v = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        w = M @ v
        w = w / w.sum()
        if np.max(np.abs(w - v)) < tol:
            lam = float(w @ M @ w) / float(w @ w)
            return lam, w / np.linalg.norm(w)
        v = w
    raise AssertionError("power iteration did not converge")


def test_pf_radius_against_dense_eigensolve(golden, lopsided, cycle3):
    for m in (golden, lopsided, cycle3):
        data = pf_data(m)
        vals = np.linalg.eigvals(adjacency(m))
        assert data.spectral_radius == pytest.approx(
            max(abs(vals)), abs=1e-10
        )


def test_pf_eigenvectors_solve_both_problems(golden, lopsided):
    for m in (golden, lopsided):
        data = pf_data(m)
        B = adjacency(m)
        lam = data.spectral_radius
        # only the right Perron vector is computed: B w = lam w
        w = np.array(data.right_eigenvector)
        assert np.linalg.norm(B @ w - lam * w) < 1e-10
        assert w.min() > 0
        assert abs(np.linalg.norm(w) - 1) < 1e-12


def test_golden_radius_is_golden_ratio(golden):
    assert pf_data(golden).spectral_radius == pytest.approx(PHI, abs=1e-12)


@pytest.mark.parametrize("name", ["golden", "lopsided", "random_primitive"])
def test_closed_form_matches_power_iteration_oracle(name, request):
    m = request.getfixturevalue(name)
    lam, w = _power_iteration(adjacency(m))
    wi = dict(zip(m.vertices, w))
    table = GrowthTable(m, 200)
    for n in (0, 1, 2):
        for r, s in sorted({(p.r, p.s) for p in paths(m, n)}):
            rep = eta_tilde(table, (r, s, n))
            assert rep.method == "closed_form"
            assert rep.value == pytest.approx(lam**-n * wi[s] / wi[r], abs=1e-13)


def test_radius_bounds_hold_exact_roots(
    full_shift2, full_shift3, golden, random_primitive
):
    assert pf_data(full_shift2).radius_bounds == (2, 2)
    assert pf_data(full_shift3).radius_bounds == (3, 3)
    # phi is the root of x^2 - x - 1, which increases past 1/2
    lo, hi = pf_data(golden).radius_bounds
    assert Fraction(1, 2) < lo <= hi
    assert lo * lo - lo - 1 <= 0 <= hi * hi - hi - 1
    data = pf_data(random_primitive)
    lo, hi = data.radius_bounds
    assert lo <= 2 <= hi
    assert data.converged
    # B = [[2, 2], [1, 1]]: in floats both quotients (Bw)_i / w_i round to
    # 3 + 2^-51, above the root 3
    edges = [Edge(e, r, s) for e, r, s in zip("abcdef", "uuuuvv", "uuvvuv")]
    lo, hi = pf_data(GraphBimodule(["u", "v"], edges)).radius_bounds
    assert lo <= 3 <= hi


def test_radius_bounds_absent_without_positive_eigenvector(triangular):
    data = pf_data(triangular)
    assert data.radius_bounds is None
    assert not data.converged
    assert data.iterations == 0


@given(
    st.one_of(
        graphs(primitive=True),
        st.integers(2, 3).flatmap(lambda d: graphs(primitive=True, per_source=d)),
    )
)
@settings(max_examples=60, deadline=None)
def test_perron_data_on_random_primitive_graphs(m):
    data = pf_data(m)
    B = adjacency(m)
    rho, w = data.spectral_radius, np.array(data.right_eigenvector)
    assert np.linalg.norm(B @ w - rho * w) <= 1e-12 * rho
    assert w.min() > 0
    assert data.converged
    lo, hi = data.radius_bounds
    out_degrees = {sum(e.s == v for e in m.edges) for v in m.vertices}
    if len(out_degrees) == 1:
        # 1^T B = d 1^T with a positive left eigenvector, so the root is d
        (d,) = out_degrees
        assert lo <= d <= hi


WEIGHTS = (0.1, 0.25, 0.5, 1.0, 3.0)


def _component_rows(m, c):
    """The (column, entry) rows of A restricted to component c, local indices."""
    local = {v: i for i, v in enumerate(v for v, cv in enumerate(m.component) if cv == c)}
    return list(local), [
        [(local[w], a) for w, a in m.integer_adjacency[v] if w in local] for v in local
    ]


@given(st.one_of(graphs(weights=WEIGHTS), graphs(primitive=True, weights=WEIGHTS)))
@settings(max_examples=80, deadline=None)
def test_perron_routine_matches_the_eig_oracle(m):
    # on every component with a cycle, and on the whole graph when it is
    # one component: the root to 1e-12 relative, and a certified bracket
    # wherever eig's eigenvector certifies one
    B = adjacency(m)
    for c, period in enumerate(m.period):
        if not period:
            continue
        idx, rows = _component_rows(m, c)
        root, w, _, bounds = _perron(rows, m.denominator)
        want, w_eig = perron_pair(B[np.ix_(idx, idx)])
        assert root == pytest.approx(want, rel=1e-12)
        assert min(w) > 0 and bounds[0] <= bounds[1]
        if certifies(collatz_wielandt(rows, m.denominator, w_eig)):
            assert certifies(bounds)
    data = pf_data(m)
    if len(m.period) > 1:
        assert data == PFData(None, None, False, 0, False, None)
        return
    want, w_eig = perron_pair(B)
    assert data.spectral_radius == pytest.approx(want, rel=1e-12)
    if certifies(collatz_wielandt(m.integer_adjacency, m.denominator, w_eig)):
        assert data.converged
    lo, hi = data.radius_bounds
    assert data.spectral_radius == float((lo + hi) / 2)


def test_primitivity_classification(golden, triangular, cycle3, full_shift2):
    assert pf_data(golden).primitive
    assert pf_data(full_shift2).primitive
    # a pure cycle is irreducible but period 3
    assert not pf_data(cycle3).primitive
    # triangular growth: reducible
    assert not pf_data(triangular).primitive


def test_rank_one_matrix_rate_constants(full_shift2):
    rates = rate_constants(full_shift2)
    assert rates.alpha == 0.0
    assert rates.C == 0.0


def test_golden_rate_constants_frozen(golden):
    # subdominant eigenvalue -1/phi, so alpha^2 = (1/phi)^2 / 1 at l = 1
    rates = rate_constants(golden)
    assert rates.alpha == pytest.approx(1 / PHI**2, abs=1e-12)
    assert rates.C == pytest.approx(1.0, abs=1e-10)


def test_rate_certificate_holds_to_100(golden):
    check = verify_rate_certificate(golden, k_max=100)
    assert check.passed, (check.first_failure, check.worst_ratio)
    assert check.worst_ratio <= 1 + 1e-9


def test_rate_certificate_needs_primitivity(triangular):
    with pytest.raises(ValueError):
        verify_rate_certificate(triangular)


def test_growth_table_matches_matrix_powers(triangular):
    table = GrowthTable(triangular, 40)
    # exact integer powers B^k 1 of B = [[1, 0], [1, 1]]
    B = adjacency(triangular).astype(np.int64)
    level = [np.linalg.matrix_power(B, k) @ np.ones(2, dtype=np.int64) for k in range(41)]
    vi = {v: i for i, v in enumerate(triangular.vertices)}
    for k in (0, 1, 5, 17, 40):
        for n in sorted({0, min(1, k), k // 2, k}):
            for s, r in (("v", "v"), ("v", "w"), ("w", "w")):
                want = Fraction(int(level[k - n][vi[s]]), int(level[k][vi[r]]))
                assert table.ratios(s, r, n)[k - n] == float(want)
    with pytest.raises(ValueError):
        GrowthTable(triangular, -1)


@given(graphs(weights=(0.1, 0.25, 0.5, 1.0, 3.0)), st.integers(8, 300), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_ratio_column_is_the_scalar_ratio_bit_for_bit(m, k_max, n):
    # each entry is the correctly rounded quotient of the Fraction levels;
    # only realized classes: the ratio of a class with no path may pass
    # the double range
    table = GrowthTable(m, k_max)
    levels = fraction_levels(m, k_max)
    ks = range(n, k_max + 1)
    for s in m.vertices:
        for r in m.vertices:
            if not _target_realized(m, r, s, n):
                continue
            col = table.ratios(s, r, n)
            scalar = [exact_ratio(levels, s, r, n, k) for k in ks]
            assert all(type(c) is float for c in col)
            assert array("d", col).tobytes() == array("d", scalar).tobytes()


@pytest.mark.parametrize(
    "strategy", [graphs(), graphs(weights=(0.1, 0.25, 0.5, 1.0, 3.0))], ids=["unit", "weighted"]
)
@given(data=st.data(), k_max=st.sampled_from([40, 200]), n=st.integers(0, 3), forced=st.booleans())
@settings(max_examples=40, deadline=None)
def test_limit_on_demand_is_the_reports_limit_bit_for_bit(strategy, data, k_max, n, forced):
    # residue_limit reads ratios from a table that builds its levels on the
    # first read; eta_tilde hands it the whole column
    m = data.draw(strategy)
    table = GrowthTable(m, k_max)
    for r in m.vertices:
        for s in m.vertices:
            try:
                rep = eta_tilde(table, (r, s, n), force_iterative=forced)
            except ValueError:
                continue
            fresh = GrowthTable(m, k_max)
            got = residue_limit(fresh, (r, s, n), force_iterative=forced)
            want = rep[:4]
            assert (got.target, got.value.hex(), got.converged, got.method) == (
                want[0], want[1].hex(), want[2], want[3]
            )
            # the closed form reads no ratio, so no level is built
            assert (fresh.level_bits == 0) == (got.method == "closed_form")


def test_ratio_column_is_exact_where_the_floats_underflowed(underflow):
    table = GrowthTable(underflow, 2000)
    assert table.ratios("x", "x", 1) == [4.0] * 2000
    with pytest.raises(ValueError):
        table.ratios("x", "x", 2001)


def test_ratio_past_the_double_range_raises_value_error():
    # (c, a, 2) on the 1e-300 chain: the ratio is about 2^(997 k)
    chain = GraphBimodule(
        ["a", "b", "c"],
        [Edge("la", "a", "a"), Edge("lb", "b", "b", 1e-300), Edge("lc", "c", "c", 1e-300),
         Edge("ab", "b", "a", 1e-300), Edge("bc", "c", "b", 1e-300)],
    )
    table = GrowthTable(chain, 100)
    with pytest.raises(ValueError, match=r"class \('c', 'a', 2\): growth ratio past"):
        table.ratio("a", "c", 2)(100)
    with pytest.raises(ValueError, match=r"class \('c', 'a', 2\): growth ratio past"):
        table.ratios("a", "c", 2, 90, 100)
    levels = fraction_levels(chain, 100)
    for s, r, n in (("c", "c", 1), ("b", "c", 1), ("a", "a", 3)):
        assert table.ratio(s, r, n)(100) == exact_ratio(levels, s, r, n, 100)


@given(graphs(weights=(0.1, 0.3, 0.25, 1.0, 3.0, 7.5, 1e-300, 1e300, 2.0**-1074)))
@settings(max_examples=60, deadline=None)
def test_denominator_is_a_power_of_two(m):
    # GrowthTable.ratio shifts by n log2 D in place of multiplying by D^n
    D = m.denominator
    assert D & (D - 1) == 0
    assert 1 << GrowthTable(m, 0).shift == D


def test_growth_table_refuses_a_weight_that_is_not_binary():
    # a Fraction weight is exact, but 1/3 has no power-of-two denominator
    m = GraphBimodule(["v"], [Edge("a", "v", "v", Fraction(1, 3)), Edge("b", "v", "v")])
    assert m.denominator == 3
    with pytest.raises(ValueError, match="denominator 3 is not a power of two"):
        GrowthTable(m, 10)


def test_underflowed_class_warns_nothing(underflow):
    for k_max in (200, 600, 2000):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = GrowthTable(underflow, k_max)
            x = eta_tilde(table, ("x", "x", 1))
            y = eta_tilde(table, ("y", "y", 1))
        assert (x.value, x.method, x.converged) == (4.0, "stationary", True)
        assert (y.value, y.method, y.converged) == (0.5, "stationary", True)


def test_stationary_window_is_the_last_three_quarters(underflow):
    # (y, y, 1) tends to 1/2 with an error of order 8^-k, within 1e-10
    # from k = 12 on; at k_max 40 the last three quarters start at k = 11
    # and the last half at k = 21, at k_max 60 the three quarters at k = 16
    table = GrowthTable(underflow, 40)
    rep = eta_tilde(table, ("y", "y", 1))
    tail = table.ratios("y", "y", 1)
    last = tail[-1]
    assert all(abs(c - last) <= 1e-10 for c in tail[len(tail) // 2 :])
    assert rep.method != "stationary"
    table = GrowthTable(underflow, 60)
    rep = eta_tilde(table, ("y", "y", 1))
    assert rep.method == "stationary"
    assert rep.value == table.ratio("y", "y", 1)(60)


def _decay_points(samples, value, k_max):
    """(log k, log residual) one sample at a time, over the fitted window."""
    xs, ys = [], []
    for k, c in samples:
        res = abs(c - value)
        if k >= max(1, k_max // 2) and res > 1e-14:
            xs.append(math.log(k))
            ys.append(math.log(res))
    return xs, ys


def _fit_decay_loop(samples, value, k_max):
    """The decay fit one sample at a time: the reference for the column's,
    the same closed-form least squares with `math.fsum` sums."""
    xs, ys = _decay_points(samples, value, k_max)
    if len(xs) < 3:
        return math.inf, None
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    terms_xx, terms_xy, terms_yy = [], [], []
    for x, y in zip(xs, ys):
        terms_xx.append((x - x_mean) * (x - x_mean))
        terms_xy.append((x - x_mean) * (y - y_mean))
        terms_yy.append((y - y_mean) * (y - y_mean))
    slope = math.fsum(terms_xy) / math.fsum(terms_xx)
    misfit = [(y - y_mean) - slope * (x - x_mean) for x, y in zip(xs, ys)]
    ss_res = math.fsum(e * e for e in misfit)
    ss_tot = math.fsum(terms_yy)
    return -slope, 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


def _fit_decay_lstsq(samples, value, k_max):
    """The same fit by numpy's least squares, an independent oracle, with
    the relative error it can carry: a rounding of the logged residuals
    over their spread."""
    xs, ys = _decay_points(samples, value, k_max)
    A = np.stack([np.array(xs), np.ones(len(xs))], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.array(ys), rcond=None)
    ys = np.array(ys)
    ss_res = float(np.sum((ys - A @ coef) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    spread = float(ys.max() - ys.min())
    noise = 1e3 * 2.0**-52 * float(np.abs(ys).max()) / spread if spread else math.inf
    return float(-coef[0]), r2, noise


@given(graphs(weights=(0.25, 0.5, 1.0, 3.0)), st.integers(40, 300), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_decay_fit_on_the_column_matches_the_sample_loop(m, k_max, n):
    table = GrowthTable(m, k_max)
    for r in m.vertices:
        for s in m.vertices:
            if _target_realized(m, r, s, n):
                rep = eta_tilde(table, (r, s, n), force_iterative=True)
                column = list(zip(range(n, k_max + 1), table.ratios(s, r, n)))
                want = _fit_decay_loop(column, rep.value, k_max)
                assert (rep.delta, rep.r_squared) == want
                if rep.r_squared is not None:
                    delta, r2, noise = _fit_decay_lstsq(column, rep.value, k_max)
                    # on equal residuals numpy's mean leaves a rounding
                    # spread, and its fit is that noise
                    if noise < 1e-3:
                        tol = 1e-9 + noise
                        assert rep.delta == pytest.approx(delta, rel=tol, abs=tol)
                        assert rep.r_squared == pytest.approx(r2, rel=tol, abs=tol)


def test_growth_profile_radii_and_degrees(triangular, oscillating):
    prof = growth_profile(triangular)
    assert prof.radius["v"] == pytest.approx(1.0)
    assert prof.radius["w"] == pytest.approx(1.0)
    assert prof.degree["v"] == 0
    assert prof.degree["w"] == 1
    prof2 = growth_profile(oscillating)
    assert prof2.radius["x"] == pytest.approx(2.0)
    assert prof2.radius["z"] == pytest.approx(2.0)


def test_eta_full_shift_exact(full_shift2):
    table = GrowthTable(full_shift2, 200)
    for n in (0, 1, 2, 3):
        rep = eta_tilde(table, ("z", "z", n))
        assert rep.converged
        assert rep.value == pytest.approx(2.0**-n, abs=0)


def test_eta_golden_closed_form_values(golden):
    # coefficients r^-n w_s / w_r with w = (phi, 1)
    table = GrowthTable(golden, 200)
    rep = eta_tilde(table, ("u", "u", 1))
    assert rep.method == "closed_form"
    assert rep.value == pytest.approx(1 / PHI, abs=1e-12)
    rep2 = eta_tilde(table, ("v", "u", 1))
    assert rep2.value == pytest.approx(1.0, abs=1e-12)
    rep3 = eta_tilde(table, ("u", "v", 1))
    assert rep3.value == pytest.approx(1 / PHI**2, abs=1e-12)


def test_eta_closed_form_agrees_with_forced_iteration(golden, lopsided):
    for m, target in ((golden, ("u", "u", 1)), (lopsided, ("u", "v", 1))):
        closed = eta_tilde(GrowthTable(m, 200), target)
        iterated = eta_tilde(GrowthTable(m, 300), target, force_iterative=True)
        assert closed.method == "closed_form"
        assert iterated.method != "closed_form"
        assert iterated.converged
        assert closed.value == pytest.approx(iterated.value, abs=1e-8)


def test_eta_lopsided_uses_growth_eigenvector(lopsided):
    # adjacency [[1,2],[1,0]]: growth eigenvector (2,1), radius 2, so the
    # v -> u class limit is (1/2) * (1/2); the transpose eigenvector would
    # give 1/2 instead
    rep = eta_tilde(GrowthTable(lopsided, 200), ("u", "v", 1))
    assert rep.value == pytest.approx(0.25, abs=1e-12)


def test_eta_triangular_case_table(triangular):
    table = GrowthTable(triangular, 2000)
    stationary = eta_tilde(GrowthTable(triangular, 200), ("v", "v", 2))
    assert stationary.converged
    assert stationary.value == 1.0
    assert math.isinf(stationary.delta)

    slow = eta_tilde(table, ("w", "w", 2))
    assert slow.converged
    assert slow.value == pytest.approx(1.0, abs=1e-10)
    assert 0.9 <= slow.delta <= 1.1
    assert slow.r_squared > 0.9

    zero = eta_tilde(table, ("w", "v", 1))
    assert zero.converged
    assert zero.value == 0.0
    assert zero.method == "structural_zero"


def test_eta_unrealized_class_raises(triangular):
    # no path of positive length ends at v coming from w
    with pytest.raises(ValueError):
        eta_tilde(GrowthTable(triangular, 200), ("v", "w", 1))


def test_eta_oscillating_is_honestly_unconverged(oscillating):
    rep = eta_tilde(GrowthTable(oscillating, 120), ("z", "z", 1))
    assert not rep.converged


def test_eta_class_with_no_limit_is_unconverged(no_limit):
    table = GrowthTable(no_limit, 2000)
    *_, odd, even = table.ratios("z", "z", 1)
    assert odd == pytest.approx(0.4, abs=1e-12)
    assert even == pytest.approx(0.625, abs=1e-12)
    for k_max in (120, 2000):
        rep = eta_tilde(GrowthTable(no_limit, k_max), ("z", "z", 1))
        assert rep.method == "extrapolation"
        assert not rep.converged


def test_eta_accepts_path_target(golden):
    p = make_path(golden, ["c"])
    table = GrowthTable(golden, 200)
    by_path = eta_tilde(table, p)
    by_class = eta_tilde(table, ("v", "u", 1))
    assert by_path.value == by_class.value


def test_eta_linearity_through_class_values(triangular):
    # limits are linear, so a two-term combination evaluates termwise
    a = eta_tilde(GrowthTable(triangular, 200), ("v", "v", 1)).value
    b = eta_tilde(GrowthTable(triangular, 2000), ("w", "w", 1)).value
    assert 2 * a + 3 * b == pytest.approx(5.0, abs=1e-9)


def test_phi_s_partial_identity(golden):
    rep = phi_s_partial(golden, SpanningElement.identity(golden), 3.0, 25)
    expect = sum((1 + k * k) ** -1.5 for k in range(26))
    assert rep.value["u"] == pytest.approx(expect, abs=1e-12)
    assert rep.value["v"] == pytest.approx(expect, abs=1e-12)


def test_phi_s_partial_cuntz_value(full_shift2):
    pa = make_path(full_shift2, ["a"])
    T = SpanningElement.symbol(full_shift2, pa, pa)
    rep = phi_s_partial(full_shift2, T, 2.0, 50)
    expect = sum(0.5 / (1 + k * k) for k in range(1, 51))
    assert rep.value["z"] == pytest.approx(expect, abs=1e-12)
    assert rep.per_level[0].norm() == 0
    assert rep.norm_estimate == 1.0


def test_phi_s_partial_zero_element(golden):
    z = SpanningElement.identity(golden) * 0
    rep = phi_s_partial(golden, z, 2.0, 10)
    assert rep.value.norm() == 0


def test_phi_s_partial_domain_error(golden):
    with pytest.raises(ValueError):
        phi_s_partial(golden, SpanningElement.identity(golden), 1.0, 10)


def test_phi_s_tail_bound_formula(full_shift2):
    rep = phi_s_partial(
        full_shift2, SpanningElement.identity(full_shift2), 2.0, 20
    )
    assert rep.tail_coefficient == pytest.approx(1 / 20, abs=1e-15)
    assert rep.tail_bound == rep.tail_coefficient * rep.norm_estimate
