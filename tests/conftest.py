from fractions import Fraction

import numpy as np
import pytest
from dense_spectral import adjacency
from hypothesis import assume, strategies as st

from graphbimod import Edge, GraphBimodule


# loops of weight 1 at a and 1e-300 at b and c, links c <- b <- a of weight
# 1e-300: D = 2^1049, so the levels grow by about 1,050 bits a step
TINY_CHAIN = {
    "vertices": ["a", "b", "c"],
    "edges": [
        {"id": "la", "r": "a", "s": "a"},
        {"id": "lb", "r": "b", "s": "b", "weight": 1e-300},
        {"id": "lc", "r": "c", "s": "c", "weight": 1e-300},
        {"id": "ab", "r": "b", "s": "a", "weight": 1e-300},
        {"id": "bc", "r": "c", "s": "b", "weight": 1e-300},
    ],
}


def is_primitive(module: GraphBimodule) -> bool:
    """Some power of B is positive; the Wielandt exponent bounds which one."""
    n = len(module.vertices)
    power = np.linalg.matrix_power(adjacency(module), n * n - 2 * n + 2)
    return bool(np.all(power > 0))


@st.composite
def graphs(draw, primitive=False, per_source=None, weights=None):
    """Random graphs on one to five vertices with no sources or sinks.

    Each vertex is the source of one edge of a random permutation, so it is
    also a range, and of further edges with random ranges: per_source - 1
    of them when per_source is given, else 0 to 2.  With primitive the
    permutation is one cycle through every vertex, so the graph is strongly
    connected, and draws that are still periodic are rejected.  Edges
    have weight 1 unless `weights` is given; then each weight is drawn
    from it.
    """
    n = draw(st.integers(1, 5))
    names = [f"v{i}" for i in range(n)]
    order = draw(st.permutations(names))
    if primitive:
        target = dict(zip(order, order[1:] + order[:1]))
    else:
        target = dict(zip(names, order))
    edges = []
    for s in names:
        extra = per_source - 1 if per_source else draw(st.integers(0, 2))
        ranges = [target[s]]
        ranges += draw(st.lists(st.sampled_from(names), min_size=extra, max_size=extra))
        for r in ranges:
            w = draw(st.sampled_from(weights)) if weights else 1.0
            edges.append(Edge(f"e{len(edges)}", r, s, w))
    module = GraphBimodule(names, edges)
    if primitive:
        assume(is_primitive(module))
    return module


def fraction_levels(module: GraphBimodule, k_max: int) -> list[dict]:
    """B^k 1 for k = 0..k_max, iterated in Fractions over the edges."""
    vec = {v: Fraction(1) for v in module.vertices}
    levels = [vec]
    for _ in range(k_max):
        nxt = {v: Fraction(0) for v in module.vertices}
        for e in module.edges:
            nxt[e.r] += Fraction(e.weight) * vec[e.s]
        vec = nxt
        levels.append(vec)
    return levels


def exact_ratio(levels: list[dict], s: str, r: str, n: int, k: int) -> float:
    """(B^{k-n} 1)_s / (B^k 1)_r, correctly rounded, as one integer division."""
    a, b = levels[k - n][s], levels[k][r]
    return (a.numerator * b.denominator) / (a.denominator * b.numerator)


@pytest.fixture(scope="session")
def full_shift2():
    return GraphBimodule(["z"], [Edge("a", "z", "z"), Edge("b", "z", "z")])


@pytest.fixture(scope="session")
def full_shift3():
    return GraphBimodule(
        ["z"], [Edge("a", "z", "z"), Edge("b", "z", "z"), Edge("c", "z", "z")]
    )


@pytest.fixture(scope="session")
def golden():
    # two vertices, loop at u, and a 2-cycle through v; adjacency [[1,1],[1,0]]
    return GraphBimodule(
        ["u", "v"],
        [Edge("a", "u", "u"), Edge("b", "u", "v"), Edge("c", "v", "u")],
    )


@pytest.fixture(scope="session")
def triangular():
    # loop at each vertex plus one edge w <- v; path counts grow linearly at w
    return GraphBimodule(
        ["v", "w"],
        [Edge("e", "v", "v"), Edge("f", "w", "v"), Edge("g", "w", "w")],
    )


@pytest.fixture(scope="session")
def cycle3():
    return GraphBimodule(
        ["a", "b", "c"],
        [Edge("e1", "a", "b"), Edge("e2", "b", "c"), Edge("e3", "c", "a")],
    )


@pytest.fixture(scope="session")
def two_loops():
    return GraphBimodule(["p", "q"], [Edge("x", "p", "p"), Edge("y", "q", "q")])


@pytest.fixture(scope="session")
def lopsided():
    # adjacency [[1,2],[1,0]], not symmetric, still primitive
    return GraphBimodule(
        ["u", "v"],
        [
            Edge("a", "u", "u"),
            Edge("b", "u", "v"),
            Edge("c", "u", "v"),
            Edge("d", "v", "u"),
        ],
    )


@pytest.fixture(scope="session")
def random_primitive():
    # six vertices, each the source of two edges (so the Perron root is
    # exactly 2): a Hamiltonian cycle plus one seeded random range each
    rng = np.random.default_rng(5)
    names = [f"v{i}" for i in range(6)]
    edges = [Edge(f"c{i}", names[(i + 1) % 6], names[i]) for i in range(6)]
    edges += [Edge(f"x{i}", names[rng.integers(6)], names[i]) for i in range(6)]
    module = GraphBimodule(names, edges)
    assert is_primitive(module)
    return module


@pytest.fixture(scope="session")
def weighted_loop():
    return GraphBimodule(["z"], [Edge("l", "z", "z", weight=2.0)])


def x_y_cycle_into_z(loop_weight):
    return GraphBimodule(
        ["x", "y", "z"],
        [
            Edge("p", "x", "y"),
            Edge("q", "y", "x", weight=4.0),
            Edge("l", "z", "z", weight=loop_weight),
            Edge("m", "z", "x"),
        ],
    )


@pytest.fixture(scope="session")
def oscillating():
    # the 2-cycle x <-> y has period two with weight 4 one way, so
    # (B^k 1)_x = 4^(k // 2) grows in steps; the loop at z has the cycle's
    # radius 2, and the ratio of the class (z, z, 1) converges to 1/2, but
    # with a period-2 ripple of order 1/k (0.49834 at k = 399, 0.49917 at
    # k = 400) that the extrapolation does not certify, at k_max 120 nor
    # at 2000
    return x_y_cycle_into_z(2.0)


@pytest.fixture(scope="session")
def no_limit():
    # the same graph with a loop of weight 1 below the cycle's radius:
    # the ratio of the class (z, z, 1) alternates between 2/5 and 5/8
    # and has no limit
    return x_y_cycle_into_z(1.0)


@pytest.fixture(scope="session")
def underflow():
    # the ratio of the class (x, x, 1) is exactly 4 at every k, while
    # (B^k 1)_x decays like 8^-k against (B^k 1)_y: a table of normalized
    # float powers loses x's entry to 0.0 near k = 360, and 0/0 = nan
    return GraphBimodule(
        ["x", "y"],
        [
            Edge("l", "x", "x", weight=0.25),
            Edge("m", "y", "y", weight=2.0),
            Edge("n", "y", "x"),
        ],
    )
