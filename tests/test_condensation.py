"""The condensation built in GraphBimodule against independent oracles.

Reachability and cycle lengths come from boolean matrix powers, realized
classes from path enumeration, and the growth profile from a second
closure: components from mutual reachability, closed by an explicit-stack
memo over a dense successor scan.
"""

import math

import numpy as np
import pytest
from conftest import graphs, is_primitive
from dense_spectral import adjacency
from hypothesis import given, settings, strategies as st

from graphbimod.fock import paths
from graphbimod.spectral import (
    GrowthProfile,
    GrowthTable,
    ResidueLimits,
    eta_tilde,
    growth_profile,
    residue_limit,
)

ANY_GRAPH = st.one_of(graphs(), graphs(weights=(0.5, 1.0, 3.0)))


def boolean_powers(module, k_max):
    """The 0/1 patterns of B^1 .. B^k_max."""
    M = (adjacency(module) > 0).astype(np.int64)
    P = np.eye(M.shape[0], dtype=np.int64)
    out = []
    for _ in range(k_max):
        P = np.minimum(P @ M, 1)
        out.append(P)
    return out


def reachability(module):
    """reach[v, w]: a path of length >= 0 walks from range v to source w."""
    n = len(module.vertices)
    reach = np.eye(n, dtype=np.int64)
    for P in boolean_powers(module, n):
        reach |= P
    return reach.astype(bool)


def growth_profile_oracle(module) -> GrowthProfile:
    """Components from mutual reachability, closed by an explicit-stack memo."""
    B = adjacency(module)
    n = B.shape[0]
    succ = [[w for w in range(n) if B[v, w] > 0] for v in range(n)]
    reach = reachability(module)
    comp = [-1] * n
    n_comp = 0
    for v in range(n):
        if comp[v] < 0:
            for w in range(n):
                if reach[v, w] and reach[w, v]:
                    comp[w] = n_comp
            n_comp += 1
    members = [[v for v in range(n) if comp[v] == c] for c in range(n_comp)]
    comp_radius = []
    for idx in members:
        sub = B[np.ix_(idx, idx)]
        if len(idx) == 1 and sub[0, 0] == 0:
            comp_radius.append(0.0)
        else:
            comp_radius.append(float(np.max(np.abs(np.linalg.eigvals(sub)))))
    comp_succ = [set() for _ in range(n_comp)]
    for v in range(n):
        for w in succ[v]:
            if comp[v] != comp[w]:
                comp_succ[comp[v]].add(comp[w])
    best_radius = [-1.0] * n_comp
    chain = [-1] * n_comp

    def close(c):
        stack = [(c, False)]
        while stack:
            node, expanded = stack.pop()
            if best_radius[node] >= 0:
                continue
            if not expanded:
                stack.append((node, True))
                for d in comp_succ[node]:
                    if best_radius[d] < 0:
                        stack.append((d, False))
            else:
                r = comp_radius[node]
                m = 0
                for d in comp_succ[node]:
                    if best_radius[d] > r:
                        r = best_radius[d]
                for d in comp_succ[node]:
                    if math.isclose(best_radius[d], r, rel_tol=1e-9):
                        m = max(m, chain[d])
                if math.isclose(comp_radius[node], r, rel_tol=1e-9):
                    m += 1
                best_radius[node] = r
                chain[node] = m

    for c in range(n_comp):
        close(c)
    radius = {v: best_radius[comp[i]] for i, v in enumerate(module.vertices)}
    degree = {v: max(chain[comp[i]] - 1, 0) for i, v in enumerate(module.vertices)}
    return GrowthProfile(radius, degree)


@given(ANY_GRAPH)
@settings(max_examples=80, deadline=None)
def test_components_are_strong_and_topologically_labelled(m):
    comp, reach = m.component, reachability(m)
    assert sorted(set(comp)) == list(range(len(m.period)))
    n = len(m.vertices)
    for v in range(n):
        for w in range(n):
            assert (comp[v] == comp[w]) == bool(reach[v, w] and reach[w, v])
    after = [set() for _ in m.period]
    for e in m.edges:
        r, s = m.vertices.index(e.r), m.vertices.index(e.s)
        assert comp[r] <= comp[s]
        if comp[r] != comp[s]:
            after[comp[r]].add(comp[s])
    assert m.successors == tuple(after)


@given(ANY_GRAPH)
@settings(max_examples=80, deadline=None)
def test_periods_are_the_gcd_of_cycle_lengths(m):
    n = len(m.vertices)
    powers = boolean_powers(m, n**3)
    for c, period in enumerate(m.period):
        v = m.component.index(c)
        lengths = [k for k, P in enumerate(powers, start=1) if P[v, v]]
        assert period == math.gcd(*lengths)


@given(ANY_GRAPH)
@settings(max_examples=80, deadline=None)
def test_primitive_is_one_aperiodic_component(m):
    assert (m.period == (1,)) == is_primitive(m)
    if len(m.period) == 1:
        # on one class, the residues take the closed form exactly when it
        # is aperiodic
        methods = {residue_limit(ResidueLimits(m), (v, v, 0)).method for v in m.vertices}
        assert (methods == {"closed_form"}) == is_primitive(m)


@given(ANY_GRAPH)
@settings(max_examples=40, deadline=None)
def test_eta_raises_exactly_on_unrealized_classes(m):
    table, limits = GrowthTable(m, 40), ResidueLimits(m)
    for n in range(4):
        realized = {(p.r, p.s) for p in paths(m, n)}
        for r in m.vertices:
            for s in m.vertices:
                if (r, s) in realized:
                    eta_tilde(limits, table, (r, s, n))
                else:
                    with pytest.raises(ValueError, match="no path of length"):
                        eta_tilde(limits, table, (r, s, n))


@given(ANY_GRAPH)
@settings(max_examples=80, deadline=None)
def test_growth_profile_matches_the_explicit_stack_closure(m):
    # the radii come from inverse iteration against the oracle's eigvals
    got, want = growth_profile(m), growth_profile_oracle(m)
    assert got.degree == want.degree
    assert got.radius.keys() == want.radius.keys()
    for v, radius in want.radius.items():
        assert got.radius[v] == pytest.approx(radius, rel=1e-12)
