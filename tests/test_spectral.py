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
from extrapolation import extrapolated_limit
from hypothesis import given, settings, strategies as st
from symbolic import SpanningElement, phi_s_partial

from graphbimod import Edge, GraphBimodule, eta_tilde, make_path, paths
from graphbimod.spectral import (
    GrowthTable,
    ResidueLimits,
    _perron,
    _perron_classes,
    _target_realized,
    growth_profile,
    residue_limit,
)

PHI = (1 + math.sqrt(5)) / 2


def _power_iteration(M, tol=1e-14, max_iter=20_000):
    """Leading eigenpair of a nonnegative matrix by normalized iteration.

    An independent route to the Perron data, kept as an oracle for the
    inverse iteration in `_perron`.
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


def perron(m):
    """`_perron` on the whole adjacency of an irreducible graph."""
    return _perron(m.integer_adjacency, m.denominator)


def test_pf_radius_against_dense_eigensolve(golden, lopsided, cycle3):
    # the class radius: for the period-3 cycle, the root of A^3 on a part
    for m in (golden, lopsided, cycle3):
        (cls,) = _perron_classes(m)
        vals = np.linalg.eigvals(adjacency(m))
        assert cls.radius == pytest.approx(max(abs(vals)), abs=1e-10)


def test_pf_eigenvectors_solve_both_problems(golden, lopsided):
    for m in (golden, lopsided):
        lam, w, _, _ = perron(m)
        B = adjacency(m)
        # the right Perron vector: B w = lam w
        w = np.array(w)
        assert np.linalg.norm(B @ w - lam * w) < 1e-10
        assert w.min() > 0
        assert abs(np.linalg.norm(w) - 1) < 1e-12
        # and the left one, from the transposed rows, as a perron level takes it
        lam_t, v, _, _ = _perron(_transposed(m), m.denominator)
        v = np.array(v)
        assert lam_t == pytest.approx(lam, rel=1e-14)
        assert np.linalg.norm(v @ B - lam * v) < 1e-10


def _transposed(m):
    rows = [[] for _ in m.vertices]
    for i, row in enumerate(m.integer_adjacency):
        for j, a in row:
            rows[j].append((i, a))
    return rows


def test_golden_radius_is_golden_ratio(golden):
    assert perron(golden)[0] == pytest.approx(PHI, abs=1e-12)


@pytest.mark.parametrize("name", ["golden", "lopsided", "random_primitive"])
def test_closed_form_matches_power_iteration_oracle(name, request):
    m = request.getfixturevalue(name)
    lam, w = _power_iteration(adjacency(m))
    wi = dict(zip(m.vertices, w))
    table, limits = GrowthTable(m, 200), ResidueLimits(m)
    for n in (0, 1, 2):
        for r, s in sorted({(p.r, p.s) for p in paths(m, n)}):
            rep = eta_tilde(limits, table, (r, s, n))
            assert rep.method == "closed_form"
            assert rep.value == pytest.approx(lam**-n * wi[s] / wi[r], abs=1e-13)


def test_radius_bounds_hold_exact_roots(
    full_shift2, full_shift3, golden, random_primitive
):
    assert perron(full_shift2)[3] == (2, 2)
    assert perron(full_shift3)[3] == (3, 3)
    # phi is the root of x^2 - x - 1, which increases past 1/2
    lo, hi = perron(golden)[3]
    assert Fraction(1, 2) < lo <= hi
    assert lo * lo - lo - 1 <= 0 <= hi * hi - hi - 1
    _, _, certified, (lo, hi) = perron(random_primitive)
    assert lo <= 2 <= hi
    assert certified
    # B = [[2, 2], [1, 1]]: in floats both quotients (Bw)_i / w_i round to
    # 3 + 2^-51, above the root 3
    edges = [Edge(e, r, s) for e, r, s in zip("abcdef", "uuuuvv", "uuvvuv")]
    lo, hi = perron(GraphBimodule(["u", "v"], edges))[3]
    assert lo <= 3 <= hi


def test_radius_bounds_absent_without_positive_eigenvector(triangular):
    # B = [[1, 0], [1, 1]] has no positive eigenvector, so no class takes
    # the closed form: each strong class has its own exact bracket, and the
    # limits come from the exact route
    assert [cls.pairs[0][3] for cls in _perron_classes(triangular)] == [(1, 1), (1, 1)]
    limits = ResidueLimits(triangular)
    targets = (("v", "v", 1), ("w", "w", 1), ("w", "v", 1))
    methods = {residue_limit(limits, t).method for t in targets}
    assert methods == {"exact", "structural_zero"}


@given(
    st.one_of(
        graphs(primitive=True),
        st.integers(2, 3).flatmap(lambda d: graphs(primitive=True, per_source=d)),
    )
)
@settings(max_examples=60, deadline=None)
def test_perron_data_on_random_primitive_graphs(m):
    rho, w, certified, (lo, hi) = perron(m)
    B = adjacency(m)
    w = np.array(w)
    assert np.linalg.norm(B @ w - rho * w) <= 1e-12 * rho
    assert w.min() > 0
    assert certified
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
    # on every component with a cycle: the root to 1e-12 relative, and a
    # certified bracket wherever eig's eigenvector certifies one; the class
    # radius agrees, and on an aperiodic class the class data is this call
    B = adjacency(m)
    classes = _perron_classes(m)
    for c, period in enumerate(m.period):
        if not period:
            assert classes[c].radius == 0.0
            continue
        idx, rows = _component_rows(m, c)
        root, w, certified, bounds = _perron(rows, m.denominator)
        want, w_eig = perron_pair(B[np.ix_(idx, idx)])
        assert root == pytest.approx(want, rel=1e-12)
        assert classes[c].radius == pytest.approx(want, rel=1e-12)
        assert min(w) > 0 and bounds[0] <= bounds[1]
        assert root == float((bounds[0] + bounds[1]) / 2)
        assert certified == certifies(bounds)
        if certifies(collatz_wielandt(rows, m.denominator, w_eig)):
            assert certified
        if period == 1:
            assert classes[c].pairs == [(root, w, certified, bounds)]


def test_primitivity_classification(golden, triangular, cycle3, full_shift2):
    # the closed form is the route of one aperiodic class
    def method(m, v):
        return residue_limit(ResidueLimits(m), (v, v, 0)).method

    assert method(golden, "u") == "closed_form"
    assert method(full_shift2, "z") == "closed_form"
    # a pure cycle is irreducible but period 3
    assert method(cycle3, "a") == "exact"
    # triangular growth: reducible
    assert method(triangular, "w") == "exact"


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
@given(data=st.data(), k_max=st.sampled_from([40, 200]), n=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_limit_on_demand_is_the_reports_limit_bit_for_bit(strategy, data, k_max, n):
    # residue_limit reads no growth level; eta_tilde adds the report's
    # samples and fit to the same limit, from a table
    m = data.draw(strategy)
    table = GrowthTable(m, k_max)
    for r in m.vertices:
        for s in m.vertices:
            try:
                rep = eta_tilde(ResidueLimits(m), table, (r, s, n))
            except ValueError:
                continue
            got = residue_limit(ResidueLimits(m), (r, s, n))
            want = rep[:4]
            assert (got.target, got.value.hex(), got.converged, got.method) == (
                want[0], want[1].hex(), want[2], want[3]
            )


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
        table.ratios("a", "c", 2, range(100, 101))
    with pytest.raises(ValueError, match=r"class \('c', 'a', 2\): growth ratio past"):
        table.ratios("a", "c", 2, range(90, 101))
    # its limit, 2^-1049 times the ratio's, raises the same error
    with pytest.raises(ValueError, match=r"class \('c', 'a', 2\): growth ratio past"):
        residue_limit(ResidueLimits(chain), ("c", "a", 2))
    levels = fraction_levels(chain, 100)
    for s, r, n in (("c", "c", 1), ("b", "c", 1), ("a", "a", 3)):
        assert table.ratios(s, r, n, range(100, 101)) == [exact_ratio(levels, s, r, n, 100)]


@given(graphs(weights=(0.1, 0.3, 0.25, 1.0, 3.0, 7.5, 1e-300, 1e300, 2.0**-1074)))
@settings(max_examples=60, deadline=None)
def test_denominator_is_a_power_of_two(m):
    # GrowthTable.ratios shifts by n log2 D in place of multiplying by D^n
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
    # x alone is one primitive class, of radius 1/4; y reaches x and has
    # radius 2, so (y, y, 1) is 1/2 from the exact route, with D = 4 and
    # Lambda = 8
    for k_max in (200, 600, 2000):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table, limits = GrowthTable(underflow, k_max), ResidueLimits(underflow)
            x = eta_tilde(limits, table, ("x", "x", 1))
            y = eta_tilde(limits, table, ("y", "y", 1))
        assert (x.value, x.method, x.converged) == (4.0, "closed_form", True)
        assert (y.value, y.method, y.converged) == (0.5, "exact", True)


def test_underflow_class_is_exact_at_small_k_max(underflow):
    # (y, y, 1) tends to 1/2 with an error of order 8^-k: 1.5e-10 at
    # k = 11, 4.9e-6 at k = 6.  Its limit takes no ratio, so even k_max 9,
    # the least a class of length 1 admits, reports it exactly
    for k_max in (9, 40, 60):
        table = GrowthTable(underflow, k_max)
        rep = eta_tilde(ResidueLimits(underflow), table, ("y", "y", 1))
        assert (rep.value, rep.converged, rep.method) == (0.5, True, "exact")
        tail = table.ratios("y", "y", 1)
        assert tail[0] == 1 / 3 and all(c <= 0.5 for c in tail)


def _decay_points(samples, value, k_max):
    """(log k, log residual) one sample at a time, over the fitted window."""
    xs, ys = [], []
    for k, c in samples:
        res = abs(c - value)
        if k >= max(1, k_max // 2) and res > 4 * math.ulp(max(abs(c), abs(value))):
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
    table, limits = GrowthTable(m, k_max), ResidueLimits(m)
    for r in m.vertices:
        for s in m.vertices:
            if _target_realized(m, r, s, n):
                rep = eta_tilde(limits, table, (r, s, n))
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


def eta(m, k_max, target):
    return eta_tilde(ResidueLimits(m), GrowthTable(m, k_max), target)


def test_eta_full_shift_exact(full_shift2):
    for n in (0, 1, 2, 3):
        rep = eta(full_shift2, 200, ("z", "z", n))
        assert rep.converged
        assert rep.value == pytest.approx(2.0**-n, abs=0)


def test_eta_golden_closed_form_values(golden):
    # coefficients r^-n w_s / w_r with w = (phi, 1)
    rep = eta(golden, 200, ("u", "u", 1))
    assert rep.method == "closed_form"
    assert rep.value == pytest.approx(1 / PHI, abs=1e-12)
    rep2 = eta(golden, 200, ("v", "u", 1))
    assert rep2.value == pytest.approx(1.0, abs=1e-12)
    rep3 = eta(golden, 200, ("u", "v", 1))
    assert rep3.value == pytest.approx(1 / PHI**2, abs=1e-12)


def test_eta_closed_form_agrees_with_forced_iteration(golden, lopsided):
    # the iterated route is the test-side extrapolation of the exact column
    for m, target in ((golden, ("u", "u", 1)), (lopsided, ("u", "v", 1))):
        closed = eta(m, 200, target)
        iterated, converged = extrapolated_limit(GrowthTable(m, 300), *target)
        assert closed.method == "closed_form"
        assert converged
        assert closed.value == pytest.approx(iterated, abs=1e-8)


def test_eta_lopsided_uses_growth_eigenvector(lopsided):
    # adjacency [[1,2],[1,0]]: growth eigenvector (2,1), radius 2, so the
    # v -> u class limit is (1/2) * (1/2); the transpose eigenvector would
    # give 1/2 instead
    rep = eta(lopsided, 200, ("u", "v", 1))
    assert rep.value == pytest.approx(0.25, abs=1e-12)


def test_eta_triangular_case_table(triangular):
    # A^k 1 = (1, k + 1): (v, v, n) is 1 at every k, so no residual is
    # fitted; (w, w, n) tends to 1 like 1 - n / k
    flat = eta(triangular, 200, ("v", "v", 2))
    assert (flat.value, flat.converged, flat.method) == (1.0, True, "exact")
    assert math.isinf(flat.delta) and flat.r_squared is None

    slow = eta(triangular, 2000, ("w", "w", 2))
    assert (slow.value, slow.converged, slow.method) == (1.0, True, "exact")
    assert 0.9 <= slow.delta <= 1.1
    assert slow.r_squared > 0.9

    zero = eta(triangular, 2000, ("w", "v", 1))
    assert zero.converged
    assert zero.value == 0.0
    assert zero.method == "structural_zero"


def test_eta_unrealized_class_raises(triangular):
    # no path of positive length ends at v coming from w
    with pytest.raises(ValueError):
        eta(triangular, 200, ("v", "w", 1))


def test_eta_oscillating_is_honestly_unconverged(oscillating):
    # the ratio tends to 1/2 with a period-2 ripple of order 1/k, which
    # the extrapolation of the column does not certify; the limit is 1/2
    # exactly, from the classes of radius 2 with p = 2 and Lambda = 4
    rep = eta(oscillating, 120, ("z", "z", 1))
    assert (rep.value, rep.converged, rep.method) == (0.5, True, "exact")
    assert not extrapolated_limit(GrowthTable(oscillating, 2000), "z", "z", 1)[1]


def test_eta_class_with_no_limit_is_unconverged(no_limit):
    # the ratio alternates between 2/5 and 5/8 and has no limit: the
    # residue is their mean, 41/80, exactly
    table = GrowthTable(no_limit, 2000)
    *_, odd, even = table.ratios("z", "z", 1)
    assert odd == pytest.approx(0.4, abs=1e-12)
    assert even == pytest.approx(0.625, abs=1e-12)
    for k_max in (120, 2000):
        rep = eta(no_limit, k_max, ("z", "z", 1))
        assert (rep.value, rep.converged, rep.method) == (41 / 80, True, "exact")
        assert exact_limit(ResidueLimits(no_limit), "z", "z", 1) == Fraction(41, 80)


def test_eta_accepts_path_target(golden):
    p = make_path(golden, ["c"])
    by_path = eta(golden, 200, p)
    by_class = eta(golden, 200, ("v", "u", 1))
    assert by_path.value == by_class.value


def test_eta_linearity_through_class_values(triangular):
    # limits are linear, so a two-term combination evaluates termwise
    a = eta(triangular, 200, ("v", "v", 1)).value
    b = eta(triangular, 2000, ("w", "w", 1)).value
    assert 2 * a + 3 * b == 5.0


def exact_limit(limits, r, s, n):
    """The class's limit in Fractions, as `residue_limit` takes it, where
    it is structurally zero or its level is exact; else None."""
    rep = residue_limit(limits, (r, s, n))
    if rep.method == "structural_zero":
        return Fraction(0)
    level = limits.level(limits.profile.radius[r])
    if level.method != "exact":
        return None
    p, u = level.period, level.leading
    D, lam = limits.module.denominator, Fraction(level.scale)
    return sum(D**n * lam ** ((j - n) // p) * u[(j - n) % p][s] / u[j][r] for j in range(p)) / p


def _weighted_powers(m, depth):
    """(B^n)_{rs} in Fractions, by (r, s), for n = 0..depth."""
    B = {(e.r, e.s): Fraction(0) for e in m.edges}
    for e in m.edges:
        B[e.r, e.s] += Fraction(e.weight)
    power = {(v, v): Fraction(1) for v in m.vertices}
    out = [power]
    for _ in range(depth):
        nxt = {}
        for (r, u), a in power.items():
            for (u2, s), b in B.items():
                if u2 == u:
                    nxt[r, s] = nxt.get((r, s), 0) + a * b
        power = nxt
        out.append(power)
    return out


@pytest.mark.parametrize(
    "strategy", [graphs(), graphs(weights=(0.1, 0.25, 0.5, 1, 3))], ids=["unit", "weighted"]
)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_limits_certify_and_keep_the_path_sum_identities(strategy, data):
    # every realized class of length <= 3 certifies.  Weighted over the
    # paths of length n from r, the limits sum to 1, and a class is the
    # weighted sum of the classes one edge on: exactly where the level is
    # exact, to 1e-12 in floats.  Where the extrapolation of the exact
    # column certifies, it agrees to 1e-9
    m = data.draw(strategy)
    limits, table = ResidueLimits(m), GrowthTable(m, 200)
    powers = _weighted_powers(m, 4)
    value, exact = {}, {}
    for n in range(5):
        for (r, s) in powers[n]:
            rep = residue_limit(limits, (r, s, n))
            assert rep.converged, rep
            value[r, s, n], exact[r, s, n] = rep.value, exact_limit(limits, r, s, n)
            if exact[r, s, n] is not None:
                assert rep.value == float(exact[r, s, n])
            if n <= 3:
                oracle, certified = extrapolated_limit(table, r, s, n)
                if certified:
                    assert rep.value == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def check(total, terms):
        if all(exact[key] is not None for _, key in terms):
            assert total == sum(w * exact[key] for w, key in terms)
        else:
            got = math.fsum(float(w) * value[key] for w, key in terms)
            scale = math.fsum(abs(float(w) * value[key]) for w, key in terms)
            assert abs(got - total) <= 1e-12 * max(1.0, scale, abs(total))

    for n in range(4):
        for r in m.vertices:
            check(1, [(w, (r, s, n)) for (r0, s), w in powers[n].items() if r0 == r])
        for (r, s) in powers[n]:
            terms = [(Fraction(e.weight), (r, e.s, n + 1)) for e in m.edges_with_range(s)]
            check(exact[r, s, n] if exact[r, s, n] is not None else value[r, s, n], terms)


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
