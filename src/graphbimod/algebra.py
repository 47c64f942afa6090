"""Functions on a finite vertex set, used as the coefficient algebra.

Elements are complex-valued functions on the vertices with pointwise
operations and the sup norm.  The vertex order is fixed once (lexicographic
by label) and shared by every array in the package.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import Iterable, Iterator, Mapping


class VertexSet:
    """Ordered, immutable set of vertex labels with index lookup."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[str]):
        ordered = tuple(sorted(str(v) for v in labels))
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate vertex labels")
        if not ordered:
            raise ValueError("vertex set is empty")
        self.labels = ordered
        self._index = {v: i for i, v in enumerate(ordered)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown vertex {label!r}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VertexSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"VertexSet({list(self.labels)!r})"


class AlgebraElement:
    """Complex function on a vertex set, pointwise algebra, sup norm.

    `values` is a tuple of Python complex numbers in vertex order.
    """

    __slots__ = ("vertices", "values")

    def __init__(self, vertices: VertexSet, values: Iterable[complex]):
        vals = tuple(complex(x) for x in values)
        if len(vals) != len(vertices):
            raise ValueError(f"expected {len(vertices)} values, got {len(vals)}")
        self.vertices = vertices
        self.values = vals

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, vertices: VertexSet) -> "AlgebraElement":
        return cls(vertices, [0j] * len(vertices))

    @classmethod
    def one(cls, vertices: VertexSet) -> "AlgebraElement":
        return cls(vertices, [1 + 0j] * len(vertices))

    @classmethod
    def point_mass(cls, vertices: VertexSet, label: str) -> "AlgebraElement":
        return cls.from_dict(vertices, {label: 1.0})

    @classmethod
    def from_dict(cls, vertices: VertexSet, data: Mapping[str, complex]) -> "AlgebraElement":
        vals = [0j] * len(vertices)
        for label, value in data.items():
            vals[vertices.index(label)] = value
        return cls(vertices, vals)

    # -- access ---------------------------------------------------------

    def __getitem__(self, label: str) -> complex:
        return self.values[self.vertices.index(label)]

    def as_dict(self) -> dict[str, complex]:
        return dict(zip(self.vertices, self.values))

    # -- pointwise algebra ----------------------------------------------

    def _coerce(self, other) -> tuple[complex, ...]:
        if isinstance(other, AlgebraElement):
            if other.vertices != self.vertices:
                raise ValueError("mismatched vertex sets")
            return other.values
        return (complex(other),) * len(self.vertices)

    def _map(self, fn) -> "AlgebraElement":
        return AlgebraElement(self.vertices, map(fn, self.values))

    def _zip(self, other, fn) -> "AlgebraElement":
        return AlgebraElement(self.vertices, map(fn, self.values, self._coerce(other)))

    def __add__(self, other) -> "AlgebraElement":
        return self._zip(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other) -> "AlgebraElement":
        return self._zip(other, operator.sub)

    def __rsub__(self, other) -> "AlgebraElement":
        return self._zip(other, lambda a, b: b - a)

    def __mul__(self, other) -> "AlgebraElement":
        return self._zip(other, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "AlgebraElement":
        return self._zip(other, operator.truediv)

    def __neg__(self) -> "AlgebraElement":
        return self._map(operator.neg)

    def adjoint(self) -> "AlgebraElement":
        return self._map(complex.conjugate)

    def exp(self) -> "AlgebraElement":
        return self._map(cmath.exp)

    def log(self) -> "AlgebraElement":
        """Pointwise log, defined for strictly positive real elements."""
        if any(abs(x.imag) > 0 or x.real <= 0 for x in self.values):
            raise ValueError("log requires a strictly positive element")
        return self._map(lambda a: math.log(a.real))

    def power(self, n: int) -> "AlgebraElement":
        return self._map(lambda a: a**n)

    def inv(self) -> "AlgebraElement":
        if any(x == 0 for x in self.values):
            raise ZeroDivisionError("element is not invertible")
        return self._map(lambda a: 1.0 / a)

    # -- order and size -------------------------------------------------

    def norm(self) -> float:
        """Sup norm over vertices."""
        return max(map(abs, self.values))

    def is_real(self, tol: float = 0.0) -> bool:
        return all(abs(x.imag) <= tol for x in self.values)

    def is_positive(self, tol: float = 0.0) -> bool:
        """Positivity in the pointwise sense: real with values >= -tol."""
        return self.is_real(tol) and all(x.real >= -tol for x in self.values)

    def isclose(self, other, tol: float = 1e-10) -> bool:
        return (self - other).norm() <= tol

    def __repr__(self) -> str:
        pairs = ", ".join(f"{v}: {x:.6g}" for v, x in self.as_dict().items())
        return f"AlgebraElement({{{pairs}}})"
