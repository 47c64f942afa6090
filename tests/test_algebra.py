import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphbimod import AlgebraElement, VertexSet

VERTS = VertexSet(["u", "v", "w"])

finite_complex = st.complex_numbers(
    min_magnitude=0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)
triples = st.tuples(finite_complex, finite_complex, finite_complex)


def elem(t):
    return AlgebraElement(VERTS, np.array(t, dtype=complex))


def test_vertex_set_sorted_and_indexed():
    vs = VertexSet(["b", "a", "c"])
    assert vs.labels == ("a", "b", "c")
    assert vs.index("b") == 1
    with pytest.raises(KeyError):
        vs.index("zz")


def test_point_mass_and_one():
    p = AlgebraElement.point_mass(VERTS, "v")
    assert p.as_dict() == {"u": 0, "v": 1, "w": 0}
    assert AlgebraElement.one(VERTS)["w"] == 1


def test_from_dict_missing_entries_default_to_zero():
    a = AlgebraElement.from_dict(VERTS, {"u": 2.5})
    assert a["u"] == 2.5
    assert a["v"] == 0


def test_values_are_read_only():
    a = AlgebraElement.one(VERTS)
    # a tuple of Python complex numbers
    with pytest.raises(TypeError):
        a.values[0] = 7


@given(triples, triples)
@settings(max_examples=50, deadline=None)
def test_pointwise_product_commutes(x, y):
    # not bit-exact: numpy complex multiply rounds a*b and b*a differently
    a, b = elem(x), elem(y)
    scale = max(1.0, (a * b).norm())
    assert ((a * b) - (b * a)).norm() <= 1e-12 * scale


@given(triples, triples, triples)
@settings(max_examples=50, deadline=None)
def test_distributivity(x, y, z):
    a, b, c = elem(x), elem(y), elem(z)
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert lhs.isclose(rhs, tol=1e-6 * max(1.0, lhs.norm()))


@given(triples)
@settings(max_examples=50, deadline=None)
def test_adjoint_is_involutive(x):
    a = elem(x)
    assert (a.adjoint().adjoint() - a).norm() == 0


@given(st.floats(0.1, 4.0), st.floats(0.1, 4.0))
@settings(max_examples=30, deadline=None)
def test_exp_log_roundtrip(p, q):
    a = AlgebraElement(VERTS, np.array([p, q, p + q]))
    assert a.log().exp().isclose(a, tol=1e-12)


def test_scalar_coercion_both_sides():
    a = AlgebraElement.from_dict(VERTS, {"u": 1, "v": 2, "w": 3})
    assert (2 + a)["v"] == 4
    assert (a + 2)["v"] == 4
    assert (5 - a)["w"] == 2
    assert (a * 3)["u"] == 3
    assert (3 * a)["u"] == 3


def test_inv_and_power():
    a = AlgebraElement.from_dict(VERTS, {"u": 2, "v": 4, "w": 0.5})
    assert (a * a.inv()).isclose(AlgebraElement.one(VERTS), tol=1e-14)
    assert a.power(3)["v"] == 64
    assert a.power(0).isclose(AlgebraElement.one(VERTS), tol=0)


def test_positivity_flags():
    assert AlgebraElement.from_dict(VERTS, {"u": 1, "v": 2, "w": 3}).is_positive()
    assert not AlgebraElement.from_dict(VERTS, {"u": -1}).is_positive()
    assert not AlgebraElement(VERTS, np.array([1j, 0, 0])).is_real(tol=1e-12)


def test_norm_is_sup_norm():
    a = AlgebraElement.from_dict(VERTS, {"u": 3, "v": -4, "w": 1})
    assert a.norm() == 4


def test_mismatched_vertex_sets_rejected():
    other = VertexSet(["u", "v"])
    a = AlgebraElement.one(VERTS)
    b = AlgebraElement.one(other)
    with pytest.raises(ValueError):
        a + b
