"""Top-level acceptance checks, one test per criterion.

Each test prints a single ACCEPTANCE n: PASS/FAIL line and carries its own
wall-clock budget.  Run with -s to see the lines as they happen.
"""

import time
from fractions import Fraction

import numpy as np
from dense_kasparov import (
    dense_commutator_check,
    dense_gram,
    dense_projection_defects,
    dense_projection_matrix,
)
from dense_spectral import verify_rate_certificate
from extrapolation import extrapolated_limit
from symbolic import (
    SpanningElement,
    beta_k,
    check_bimodule_axioms,
    covariance_substitute,
    evaluate,
    gauge_scaled,
    index_element,
    kms_defect,
    phi,
    random_algebra_element,
    smeb_check,
)

from graphbimod import (
    ConditionalExpectation,
    Edge,
    GraphBimodule,
    beta_is_central,
    eta_tilde,
    gram,
    invariant_traces,
    paths,
)
from graphbimod.spectral import GrowthTable, ResidueLimits


def _mk(vertices, edges):
    return GraphBimodule(vertices, [Edge(*e) for e in edges])


def _o2():
    return _mk(["z"], [("a", "z", "z"), ("b", "z", "z")])


def _o3():
    return _mk(["z"], [("a", "z", "z"), ("b", "z", "z"), ("c", "z", "z")])


def _golden():
    return _mk(["u", "v"], [("a", "u", "u"), ("b", "u", "v"), ("c", "v", "u")])


def _triangular():
    return _mk(["v", "w"], [("e", "v", "v"), ("f", "w", "v"), ("g", "w", "w")])


def _cycle3():
    return _mk(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")])


def _lopsided():
    return _mk(
        ["u", "v"],
        [("a", "u", "u"), ("b", "u", "v"), ("c", "u", "v"), ("d", "v", "u")],
    )


def _verdict(n, problems, elapsed, budget):
    if elapsed > budget:
        problems.append(f"runtime {elapsed:.2f}s exceeds budget {budget}s")
    print(f"ACCEPTANCE {n}: {'PASS' if not problems else 'FAIL'}")
    assert not problems, problems


def _random_symbol(module, rng, max_len=2, terms=3):
    pool = []
    for n in range(max_len + 1):
        for mu in paths(module, n):
            for nu in paths(module, n):
                if mu.s == nu.s:
                    pool.append((mu, nu))
    x = None
    for i in rng.choice(len(pool), size=min(terms, len(pool)), replace=False):
        mu, nu = pool[int(i)]
        c = complex(rng.standard_normal(), rng.standard_normal())
        t = c * SpanningElement.symbol(module, mu, nu)
        x = t if x is None else x + t
    return x


def test_acceptance_1_cuntz_algebras():
    problems = []
    t0 = time.perf_counter()
    try:
        for m, N in ((_o2(), 2), (_o3(), 3)):
            exp_ = ConditionalExpectation(m)
            for k in range(11):
                got = beta_k(m, k)["z"]
                if got != float(N) ** k:
                    problems.append(f"N={N}: level {k} index {got} != {N}^{k}")
            depth = 3 if N == 2 else 2
            for n in range(depth + 1):
                for mu in paths(m, n):
                    for nu in paths(m, n):
                        val = phi(exp_, SpanningElement.symbol(m, mu, nu))["z"]
                        want = N**-n if mu == nu else 0.0
                        if abs(val - want) > 1e-12:
                            problems.append(
                                f"N={N}: expectation {val} != {want} on a pair of length {n}"
                            )
            # mixed lengths always compress to zero
            mu = paths(m, 1)[0]
            nu = paths(m, 2)[0]
            mixed = phi(exp_, SpanningElement.symbol(m, mu, nu)).norm()
            if mixed != 0:
                problems.append(f"N={N}: mixed-length pair gave {mixed}")
            tr = invariant_traces(m).canonical
            for n in range(depth + 1):
                for mu in paths(m, n):
                    val = evaluate(tr, SpanningElement.symbol(m, mu, mu))
                    if abs(val - N**-n) > 1e-12:
                        problems.append(f"N={N}: state {val} != {N}^-{n}")
    except Exception as exc:
        problems.append(f"crash: {exc!r}")
    _verdict(1, problems, time.perf_counter() - t0, 1.0)


def test_acceptance_2_triangular_growth():
    problems = []
    t0 = time.perf_counter()
    try:
        m = _triangular()
        for n in range(11):
            lv = beta_k(m, n)
            if lv["v"] != 1.0 or lv["w"] != float(n + 1):
                problems.append(f"level {n} index {lv.as_dict()} != (1, {n + 1})")
        limits, table, deep = ResidueLimits(m), GrowthTable(m, 200), GrowthTable(m, 2000)
        for n in (1, 2, 3):
            flat = eta_tilde(limits, table, ("v", "v", n))
            if flat.value != 1.0 or not flat.converged:
                problems.append(f"(v,v,{n}) limit {flat.value} != 1")
            slow = eta_tilde(limits, deep, ("w", "w", n))
            if slow.value != 1.0 or not slow.converged:
                problems.append(f"(w,w,{n}) limit {slow.value} != 1")
            if not 0.9 <= slow.delta <= 1.1:
                problems.append(f"(w,w,{n}) fitted decay {slow.delta} outside [0.9, 1.1]")
            zero = eta_tilde(limits, deep, ("w", "v", n))
            if zero.value != 0.0 or not zero.converged:
                problems.append(f"(w,v,{n}) limit {zero.value} != 0")
            # the approach to zero is a clean first-order tail
            if not 0.9 <= zero.delta <= 1.1:
                problems.append(f"zero-class decay exponent {zero.delta} outside [0.9, 1.1]")
    except Exception as exc:
        problems.append(f"crash: {exc!r}")
    _verdict(2, problems, time.perf_counter() - t0, 5.0)


def test_acceptance_3_primitive_closed_form():
    problems = []
    t0 = time.perf_counter()
    try:
        m = _golden()
        limits, table = ResidueLimits(m), GrowthTable(m, 200)
        for target in (("u", "u", 1), ("u", "v", 1), ("v", "u", 1)):
            closed = eta_tilde(limits, table, target)
            iterated, _ = extrapolated_limit(table, *target)
            if closed.method != "closed_form":
                problems.append(f"{target} not resolved in closed form")
            if abs(closed.value - iterated) > 1e-8:
                problems.append(f"{target}: closed {closed.value} vs iterated {iterated}")
        cert = verify_rate_certificate(m, k_max=100)
        if not cert.passed:
            problems.append(f"rate certificate failed at k={cert.first_failure}")
        if cert.worst_ratio > 1 + 1e-9:
            problems.append(f"certificate ratio {cert.worst_ratio} above 1")
    except Exception as exc:
        problems.append(f"crash: {exc!r}")
    _verdict(3, problems, time.perf_counter() - t0, 1.0)


def test_acceptance_4_expectation_suite():
    problems = []
    t0 = time.perf_counter()
    try:
        graphs = [_o2(), _o3(), _golden(), _triangular(), _cycle3(), _lopsided()]
        rng = np.random.default_rng(77)
        for m in graphs:
            exp_ = ConditionalExpectation(m)
            a = random_algebra_element(m, rng)
            b = random_algebra_element(m, rng)
            x = _random_symbol(m, rng)
            sandwich = (
                SpanningElement.from_algebra(m, a) * x * SpanningElement.from_algebra(m, b)
            )
            got = phi(exp_, sandwich)
            want = a * phi(exp_, x) * b
            if not got.isclose(want, tol=1e-10):
                problems.append(f"{len(m.edges)}-edge graph: expectation not bilinear")
            worst = 0.0
            for _ in range(100):
                y = _random_symbol(m, rng)
                val = phi(exp_, y.adjoint() * y)
                worst = min(worst, min(v.real for v in val.as_dict().values()))
            if worst < -1e-10:
                problems.append(f"negative expectation value {worst}")
            before = phi(exp_, x)
            after = phi(exp_, gauge_scaled(x, 0.8731))
            if not np.array_equal(before.values, after.values):
                problems.append("gauge scaling moved the expectation")
            for _ in range(20):
                gen = covariance_substitute(m, random_algebra_element(m, rng))
                res = phi(exp_, gen).norm()
                if res > 1e-10:
                    problems.append(f"covariance generator survives with norm {res}")
                    break
    except Exception as exc:
        problems.append(f"crash: {exc!r}")
    _verdict(4, problems, time.perf_counter() - t0, 10.0)


def test_acceptance_5_kasparov_suite():
    problems = []
    t0 = time.perf_counter()
    try:
        for name, m in (("o2", _o2()), ("golden", _golden()), ("triangular", _triangular())):
            exp_ = ConditionalExpectation(m)
            gdata = gram(m, 3, exp_)
            if gdata.harmonic_defect > 1e-15:
                problems.append(f"{name}: harmonic defect {gdata.harmonic_defect}")
            if gdata.isometry_defect() > 1e-12:
                problems.append(f"{name}: path block defect {gdata.isometry_defect()}")
            dense = dense_gram(m, 3, exp_)
            if gdata.gram_ranks != dense.gram_ranks:
                problems.append(f"{name}: gram ranks {gdata.gram_ranks} != dense {dense.gram_ranks}")
            # what the certificate stands for: the dense Gram is positive
            # semidefinite, by its LDL^T pivots and by its eigenvalues
            if min(dense.pivot_min) < -1e-12 or min(dense.psd_min) < -1e-10:
                problems.append(f"{name}: dense pivot {dense.pivot_min}, eigenvalue {dense.psd_min}")
            P = dense_projection_matrix(list(dense.basis), exp_)
            idempotency, adjoint = dense_projection_defects(P, dense)
            if idempotency > 1e-10:
                problems.append(f"{name}: P^2 - P = {idempotency}")
            if adjoint > 1e-10:
                problems.append(f"{name}: P not gram-adjoint: {adjoint}")
            reports = gdata.commutators
            dense_reports, discrepancies = dense_commutator_check(m, 3, exp_)
            if reports != dense_reports:
                problems.append(f"{name}: commutator reports differ from the dense route")
            for edge, gap in discrepancies.items():
                if gap > 1e-10:
                    problems.append(f"{name}: commutator routes for {edge} differ by {gap}")
            for rep in reports:
                if not rep.matches:
                    problems.append(
                        f"{name}: commutator rank {rep.total_rank} != {rep.predicted_total}"
                    )
    except Exception as exc:
        problems.append(f"crash: {exc!r}")
    _verdict(5, problems, time.perf_counter() - t0, 30.0)


def test_acceptance_6_kms_suite():
    problems = []
    t0 = time.perf_counter()
    try:
        graphs = [_o2(), _o3(), _golden(), _triangular(), _cycle3(), _lopsided()]
        rng = np.random.default_rng(5)
        for m in graphs:
            fam = invariant_traces(m)
            nv = len(m.vertices)
            if not fam.feasible or fam.dimension != 0:
                problems.append(f"{nv}-vertex graph: trace space dimension {fam.dimension}")
                continue
            if any(w != Fraction(1, nv) for w in fam.canonical.weights.values()):
                problems.append(f"canonical trace not uniform: {fam.canonical.weights}")
            pool = []
            for k in range(4):
                pool.extend(paths(m, k))
            by_source = {}
            for p in pool:
                by_source.setdefault(p.s, []).append(p)
            worst = 0.0
            for _ in range(200):
                mu = pool[int(rng.integers(len(pool)))]
                nu = by_source[mu.s][int(rng.integers(len(by_source[mu.s])))]
                sig = pool[int(rng.integers(len(pool)))]
                rho = by_source[sig.s][int(rng.integers(len(by_source[sig.s])))]
                x = SpanningElement.symbol(m, mu, nu)
                y = SpanningElement.symbol(m, sig, rho)
                worst = max(worst, kms_defect(m, fam.canonical, x, y))
            if worst >= 1e-9:
                problems.append(f"exchange residual {worst}")
    except Exception as exc:
        problems.append(f"crash: {exc!r}")
    _verdict(6, problems, time.perf_counter() - t0, 10.0)


def test_acceptance_7_structural_checks():
    problems = []
    t0 = time.perf_counter()
    try:
        for m in (_golden(), _o2(), _triangular(), _lopsided()):
            rep = check_bimodule_axioms(m, trials=100, seed=23)
            if not rep.passed or rep.worst() >= 1e-12:
                problems.append(f"axiom residual {rep.worst()}")
            gap = rep.residuals["frame_reconstruction"]
            if gap != 0:
                problems.append(f"frame reconstruction off by {gap}")
        perm = smeb_check(_cycle3())
        if not perm.holds:
            problems.append("permutation graph rejected")
        shift = smeb_check(_o2())
        if shift.holds or shift.witness is None:
            problems.append("full shift accepted, or no witness produced")
        for m in (_o2(), _o3(), _cycle3()):
            if not beta_is_central(m):
                problems.append("regular graph index not recognized as central")
                continue
            beta = index_element(m)
            for k in range(7):
                gap = (beta_k(m, k) - beta.power(k)).norm()
                if gap != 0:
                    problems.append(f"central collapse off by {gap} at level {k}")
        if beta_is_central(_golden()):
            problems.append("golden index wrongly flagged central")
    except Exception as exc:
        problems.append(f"crash: {exc!r}")
    _verdict(7, problems, time.perf_counter() - t0, 5.0)
