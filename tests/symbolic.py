"""The symbol calculus of the construction, kept as a test oracle.

No CLI route reads any of this.  The package computes the index levels,
the residues, the Kasparov Gram and the KMS states from counted, exact
data; here the paper's objects are built term by term, and the tests
check the package and the paper's identities against them:

* `AlgebraElement`, complex functions on the vertices with pointwise
  operations and the sup norm: the coefficient algebra;
* the Fock module: `FockVector` (finite combinations of paths, whose
  degree-1 vectors are the edge module E), the two actions and the two
  inner products, the k-step index `beta_k`, the weighted diagonal trace
  `phi_k` (Watatani's trace at k = 1) and `rank_one_phi`, with the
  randomized module-axiom check and the SMEB test;
* the symbol algebra: `SpanningElement`, finite combinations of symbols
  (mu, nu), two paths with a common source standing for S_mu S_nu*,
  multiplied by prefix reduction; the gauge action, the covariance
  generators, the residue expectation `phi`, and its finite stages
  `finite_level` summed into `phi_s_partial`;
* the gauge dynamics: `gamma`, its continuation `gamma_minus_i`, the
  state of vertex weights on symbols and the exchange defect
  `kms_defect`.

Conventions, those of the package: an edge g runs from s(g) to r(g), and a
path (g_1, ..., g_k) has s(g_i) = r(g_{i+1}), range r(g_1) and source
s(g_k).  The vertex algebra acts by a.e.b (g) = a(r(g)) e(g) b(s(g)); the
right inner product <e|f>_R(v) sums conj(e_g) f_g over the g with
s(g) = v and is conjugate linear in its first slot; the left one
<e|f>_L(v) sums c_g e_g conj(f_g) over the g with r(g) = v, c_g > 0 the
edge weight.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple
from itertools import islice

import numpy as np

from graphbimod.cuntz_pimsner import _symbol_count
from graphbimod.fock import Path, index_levels, path_counts, paths
from graphbimod.kms import d_weight
from graphbimod.spectral import GrowthTable

# -- the coefficient algebra ------------------------------------------------


class AlgebraElement:
    """Complex function on a vertex set, pointwise algebra, sup norm.

    `values` is a tuple of Python complex numbers in vertex order.
    """

    __slots__ = ("vertices", "values")

    def __init__(self, vertices, values):
        vals = tuple(complex(x) for x in values)
        if len(vals) != len(vertices):
            raise ValueError(f"expected {len(vertices)} values, got {len(vals)}")
        self.vertices = vertices
        self.values = vals

    @classmethod
    def zero(cls, vertices) -> "AlgebraElement":
        return cls(vertices, [0j] * len(vertices))

    @classmethod
    def one(cls, vertices) -> "AlgebraElement":
        return cls(vertices, [1 + 0j] * len(vertices))

    @classmethod
    def point_mass(cls, vertices, label: str) -> "AlgebraElement":
        return cls.from_dict(vertices, {label: 1.0})

    @classmethod
    def from_dict(cls, vertices, data) -> "AlgebraElement":
        vals = [0j] * len(vertices)
        for label, value in data.items():
            vals[vertices.index(label)] = value
        return cls(vertices, vals)

    def __getitem__(self, label: str) -> complex:
        return self.values[self.vertices.index(label)]

    def as_dict(self) -> dict[str, complex]:
        return dict(zip(self.vertices, self.values))

    def _coerce(self, other) -> tuple[complex, ...]:
        if isinstance(other, AlgebraElement):
            if other.vertices.labels != self.vertices.labels:
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


def index_element(module) -> AlgebraElement:
    """One-step index e^beta = Phi(Id): the weighted out-degree per vertex."""
    return AlgebraElement.from_dict(module.vertices, module.index_float)


def random_algebra_element(module, rng) -> AlgebraElement:
    """A complex element with standard normal parts, from a numpy Generator."""
    n = len(module.vertices)
    return AlgebraElement(module.vertices, rng.standard_normal(n) + 1j * rng.standard_normal(n))


# -- paths as tensor factors --------------------------------------------------


def vertex_path(module, v: str) -> Path:
    module.vertices.index(v)
    return Path((), v)


def path_weight(p: Path) -> float:
    """The product of the edge weights, left to right from 1.0."""
    w = 1.0
    for e in p.edges:
        w *= e.weight
    return w


def head(p: Path, n: int) -> Path:
    """The first n edges as a path (the outer tensor factors)."""
    return Path(p.edges[:n], p.base)


def tail(p: Path, n: int) -> Path:
    """The last n edges as a path (the inner tensor factors)."""
    if n == 0:
        return Path((), p.s)
    rest = p.edges[len(p.edges) - n :]
    return Path(rest, rest[0].r)


def concat(p: Path, q: Path) -> Path:
    if p.s != q.r:
        raise ValueError("paths do not compose")
    if not q.edges:
        return p
    if not p.edges:
        return q
    return Path(p.edges + q.edges, p.base)


def extends(p: Path, prefix: Path) -> bool:
    """Whether `prefix` is an initial segment of p."""
    if len(prefix) > len(p):
        return False
    if not prefix.edges:
        return prefix.base == p.r
    return p.edges[: len(prefix)] == prefix.edges


# -- the Fock module -----------------------------------------------------------


class FockVector:
    """Finitely supported complex combination of paths.

    Degrees may mix; the inner products pair only identical paths, so mixed
    degrees are orthogonal automatically.
    """

    __slots__ = ("module", "terms")

    def __init__(self, module, terms=None):
        self.module = module
        self.terms: dict[Path, complex] = {}
        if terms:
            for p, c in terms.items():
                c = complex(c)
                if c != 0:
                    self.terms[p] = c

    @classmethod
    def delta(cls, module, path: Path) -> "FockVector":
        return cls(module, {path: 1.0})

    @classmethod
    def from_edges(cls, module, values) -> "FockVector":
        """Degree-1 vector with the given values in module.edges order."""
        values = list(values)
        if len(values) != len(module.edges):
            raise ValueError("value vector does not match the edge count")
        return cls(module, {Path((e,), e.r): c for e, c in zip(module.edges, values)})

    def degree(self) -> int:
        """Common path length; raises if the support mixes lengths."""
        lengths = {len(p) for p in self.terms}
        if len(lengths) > 1:
            raise ValueError("vector is not homogeneous")
        return lengths.pop() if lengths else 0

    def is_homogeneous(self) -> bool:
        return len({len(p) for p in self.terms}) <= 1

    def __add__(self, other: "FockVector") -> "FockVector":
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0.0) + c
        return FockVector(self.module, out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "FockVector":
        z = complex(scalar)
        return FockVector(self.module, {p: c * z for p, c in self.terms.items()})

    __rmul__ = __mul__

    def coefficient(self, path: Path) -> complex:
        return self.terms.get(path, 0.0)

    def sup_coefficient(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)


def left_action(a: AlgebraElement, x: FockVector) -> FockVector:
    """(a.x)(p) = a(r(p)) x(p)."""
    return FockVector(x.module, {p: a[p.r] * c for p, c in x.terms.items()})


def right_action(x: FockVector, a: AlgebraElement) -> FockVector:
    """(x.a)(p) = x(p) a(s(p))."""
    return FockVector(x.module, {p: c * a[p.s] for p, c in x.terms.items()})


def right_inner(x: FockVector, y: FockVector) -> AlgebraElement:
    """<x|y>_R(v) over paths with source v; distinct paths are orthogonal."""
    m = x.module
    vals = [0j] * len(m.vertices)
    for p, c in x.terms.items():
        d = y.terms.get(p)
        if d is not None:
            vals[m.vertices.index(p.s)] += c.conjugate() * d
    return AlgebraElement(m.vertices, vals)


def left_inner(x: FockVector, y: FockVector) -> AlgebraElement:
    """<x|y>_L(v) over paths with range v, weighted by the path weight."""
    m = x.module
    vals = [0j] * len(m.vertices)
    for p, c in x.terms.items():
        d = y.terms.get(p)
        if d is not None:
            vals[m.vertices.index(p.r)] += path_weight(p) * c * d.conjugate()
    return AlgebraElement(m.vertices, vals)


def beta_k(module, k: int) -> AlgebraElement:
    """k-step index vector e^{beta_k} = B^k 1, B the weighted adjacency.

    Each entry is the correctly rounded float of the exact level of
    `fock.index_levels`; past the double range the division raises
    OverflowError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    level = next(islice(index_levels(module), k, None))
    den = module.denominator**k
    return AlgebraElement(module.vertices, [x / den for x in level])


def phi_k(module, k: int, T) -> AlgebraElement:
    """Weighted diagonal sum of a level-k operator, grouped by path range.

    T is a square matrix over the length-k paths in `paths` order, as rows.
    Phi_k(T)(v) sums weight(p) T[p, p] over the length-k paths p with
    r(p) = v.  At k = 1 this is Watatani's trace on the edge operators,
    and phi_k(module, k, Id) is the k-step index.
    """
    plist = paths(module, k)
    if len(T) != len(plist) or any(len(row) != len(plist) for row in T):
        raise ValueError(f"operator must be {len(plist)}x{len(plist)}")
    vals = [0j] * len(module.vertices)
    for i, p in enumerate(plist):
        vals[module.vertices.index(p.r)] += path_weight(p) * complex(T[i][i])
    return AlgebraElement(module.vertices, vals)


def rank_one_phi(module, k: int, xi: FockVector, eta: FockVector) -> AlgebraElement:
    """Level-k diagonal sum of a rank-one operator, in closed form.

    For xi, eta homogeneous of degree n <= k the compression of the rank-one
    operator (tensored with the identity on the remaining k-n factors) has
    weighted diagonal sum <xi | eta . e^{beta_{k-n}}>_L.
    """
    n = xi.degree()
    if eta.degree() != n:
        raise ValueError("xi and eta must have equal degree")
    if k < n:
        raise ValueError("k must be at least the degree")
    return left_inner(xi, right_action(eta, beta_k(module, k - n)))


class AxiomReport(namedtuple("AxiomReport", "trials seed residuals passed")):
    """Worst residual of each axiom over `trials` draws from `seed`
    (residuals: name -> float), and whether all are within tolerance."""

    __slots__ = ()

    def worst(self) -> float:
        return max(self.residuals.values())


def _random_edge_vector(module, rng) -> FockVector:
    n = len(module.edges)
    return FockVector.from_edges(module, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def check_bimodule_axioms(module, trials: int = 100, seed: int = 42, tol: float = 1e-12) -> AxiomReport:
    """Randomized check of the two-sided inner-product module axioms on E.

    Covers linearity of both inner products in their linear slots, the
    adjoint relations between the two actions, positivity of both inner
    products, and the frame reconstruction identity, on random degree-1
    vectors drawn from numpy's `default_rng(seed)`.
    """
    rng = np.random.default_rng(seed)
    res = dict.fromkeys(
        ("right_linearity", "left_linearity", "right_adjoint", "left_adjoint",
         "right_positivity", "left_positivity", "hermitian_symmetry", "frame_reconstruction"),
        0.0,
    )
    # the edge point masses, which reconstruct every degree-1 vector exactly
    frame = [FockVector.delta(module, p) for p in paths(module, 1)]
    for _ in range(trials):
        x = _random_edge_vector(module, rng)
        y = _random_edge_vector(module, rng)
        a = random_algebra_element(module, rng)
        sides = {
            "right_linearity": (right_inner(x, right_action(y, a)), right_inner(x, y) * a),
            "left_linearity": (left_inner(left_action(a, x), y), a * left_inner(x, y)),
            "right_adjoint": (
                right_inner(left_action(a, x), y), right_inner(x, left_action(a.adjoint(), y))
            ),
            "left_adjoint": (
                left_inner(right_action(x, a), y), left_inner(x, right_action(y, a.adjoint()))
            ),
            "hermitian_symmetry": (right_inner(x, y), right_inner(y, x).adjoint()),
        }
        for name, (lhs, rhs) in sides.items():
            res[name] = max(res[name], (lhs - rhs).norm())
        for name, inner in (("right_positivity", right_inner), ("left_positivity", left_inner)):
            vals = inner(x, x).values
            res[name] = max(
                res[name], max(abs(v.imag) for v in vals), -min(v.real for v in vals)
            )
        rebuilt = FockVector(module)
        for g in frame:
            rebuilt = rebuilt + right_action(g, right_inner(g, x))
        res["frame_reconstruction"] = max(
            res["frame_reconstruction"], (rebuilt - x).sup_coefficient()
        )
    return AxiomReport(trials, seed, res, all(v <= tol for v in res.values()))


class SmebResult(namedtuple("SmebResult", "holds witness defect")):
    """Whether the exchange identity holds (bool), the first failing edge
    triple or None, and the worst defect (float)."""

    __slots__ = ()


def smeb_check(module, tol: float = 1e-10) -> SmebResult:
    """Test <g|h>_L . k = g . <h|k>_R on all edge-basis triples.

    Holds exactly when both endpoint maps are injective and the weights are
    all 1, i.e. for unit-weight permutation graphs.  Returns the first
    failing triple as a witness.
    """
    worst = 0.0
    witness = None
    frame = [FockVector.delta(module, p) for p in paths(module, 1)]
    for g, dg in zip(module.edges, frame):
        for h, dh in zip(module.edges, frame):
            for k, dk in zip(module.edges, frame):
                lhs = left_action(left_inner(dg, dh), dk)
                rhs = right_action(dg, right_inner(dh, dk))
                defect = (lhs - rhs).sup_coefficient()
                worst = max(worst, defect)
                if defect > tol and witness is None:
                    witness = (g.id, h.id, k.id)
    return SmebResult(worst <= tol, witness, worst)


# -- the symbol algebra ----------------------------------------------------------


def _check_pair(mu: Path, nu: Path) -> None:
    if mu.s != nu.s:
        raise ValueError(f"paths {mu.label()} and {nu.label()} have different sources")


def compose_symbol(mu1: Path, nu1: Path, mu2: Path, nu2: Path) -> tuple[Path, Path] | None:
    """Reduce the product of two symbols to a single symbol, or None."""
    if extends(mu2, nu1):
        return (concat(mu1, tail(mu2, len(mu2) - len(nu1))), nu2)
    if extends(nu1, mu2):
        return (mu1, concat(nu2, tail(nu1, len(nu1) - len(mu2))))
    return None


class SpanningElement:
    """Finite combination of path-pair symbols with a common-source rule."""

    __slots__ = ("module", "terms")

    def __init__(self, module, terms=None):
        self.module = module
        self.terms: dict[tuple[Path, Path], complex] = {}
        if terms:
            for (mu, nu), c in terms.items():
                _check_pair(mu, nu)
                c = complex(c)
                if c != 0:
                    self.terms[(mu, nu)] = c

    @classmethod
    def symbol(cls, module, mu: Path, nu: Path) -> "SpanningElement":
        return cls(module, {(mu, nu): 1.0})

    @classmethod
    def generator(cls, module, edge_id: str) -> "SpanningElement":
        e = module.edge(edge_id)
        return cls(module, {(Path((e,), e.r), Path((), e.s)): 1.0})

    @classmethod
    def from_algebra(cls, module, a: AlgebraElement) -> "SpanningElement":
        return cls(module, {(Path((), v), Path((), v)): a[v] for v in module.vertices})

    @classmethod
    def identity(cls, module) -> "SpanningElement":
        return cls.from_algebra(module, AlgebraElement.one(module.vertices))

    def __add__(self, other: "SpanningElement") -> "SpanningElement":
        self._same(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return SpanningElement(self.module, out)

    def __sub__(self, other: "SpanningElement") -> "SpanningElement":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, SpanningElement):
            self._same(other)
            out: dict[tuple[Path, Path], complex] = {}
            for (m1, n1), c1 in self.terms.items():
                for (m2, n2), c2 in other.terms.items():
                    res = compose_symbol(m1, n1, m2, n2)
                    if res is not None:
                        out[res] = out.get(res, 0.0) + c1 * c2
            return SpanningElement(self.module, out)
        z = complex(other)
        return SpanningElement(self.module, {k: z * c for k, c in self.terms.items()})

    def __rmul__(self, other):
        return self * other

    def adjoint(self) -> "SpanningElement":
        return SpanningElement(
            self.module, {(nu, mu): c.conjugate() for (mu, nu), c in self.terms.items()}
        )

    def _same(self, other: "SpanningElement") -> None:
        if other.module is not self.module:
            raise ValueError("elements belong to different modules")

    def degrees(self) -> set[int]:
        return {len(mu) - len(nu) for mu, nu in self.terms}

    def sup_coefficient(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def isclose(self, other: "SpanningElement", tol: float = 1e-12) -> bool:
        self._same(other)
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= tol for k in keys)

    def as_fock_matrix(self, k: int) -> np.ndarray:
        """Level-k compression over the length-k path basis, a dense matrix.

        Unbalanced symbols shift the level and are cut off by the
        compression, so only terms with equal path lengths contribute.
        """
        plist = paths(self.module, k)
        idx = {p: i for i, p in enumerate(plist)}
        M = np.zeros((len(plist), len(plist)), dtype=complex)
        for (mu, nu), c in self.terms.items():
            n = len(nu)
            if len(mu) != n or n > k:
                continue
            for rho in paths(self.module, k - n):
                if rho.r == nu.s:
                    M[idx[concat(mu, rho)], idx[concat(nu, rho)]] += c
        return M


def gauge_scaled(x: SpanningElement, theta: float) -> SpanningElement:
    """Circle action: each symbol picks up exp(i theta (|mu| - |nu|))."""
    return SpanningElement(
        x.module,
        {
            (mu, nu): c * cmath.exp(1j * theta * (len(mu) - len(nu)))
            for (mu, nu), c in x.terms.items()
        },
    )


def covariance_substitute(module, a: AlgebraElement) -> SpanningElement:
    """A vertex function minus its edge-sum replacement.

    These generate the kernel of the quotient that identifies a vertex
    projection with the range sum of its edge isometries; a state of the
    quotient must kill them.
    """
    out = SpanningElement.from_algebra(module, a)
    for g in module.edges:
        p = Path((g,), g.r)
        out = out - a[g.r] * SpanningElement.symbol(module, p, p)
    return out


def spanning_basis_size(module, depth: int) -> int:
    """Number of symbols (mu, nu) with |mu|, |nu| <= depth and s(mu) = s(nu)."""
    return _symbol_count(path_counts(module, depth))


# -- the residue expectation and its finite stages --------------------------


def coeff(expectation, mu: Path) -> float:
    """The expectation's weight on the diagonal symbol (mu, mu)."""
    return path_weight(mu) * expectation.limit(mu.r, mu.s, len(mu))


def phi(expectation, x: SpanningElement) -> AlgebraElement:
    """Phi_infinity: off-diagonal symbols go to zero, (mu, mu) to its
    coefficient at the range vertex."""
    m = expectation.module
    vals = [0j] * len(m.vertices)
    for (mu, nu), c in x.terms.items():
        if mu == nu:
            vals[m.vertices.index(mu.r)] += c * coeff(expectation, mu)
    return AlgebraElement(m.vertices, vals)


def partition_defect(expectation) -> float:
    """Deviation of the weighted edge residues from a partition of one."""
    m = expectation.module
    return max(
        abs(sum(coeff(expectation, Path((g,), g.r)) for g in m.edges_with_range(v)) - 1.0)
        for v in m.vertices
    )


def finite_level(table: GrowthTable, x: SpanningElement, k: int) -> AlgebraElement:
    """Phi_k(x) / beta_k: the level-k compression average, a finite stage of
    Phi_infinity, in closed form.

    A diagonal symbol (mu, mu) of length n <= k contributes weight(mu)
    (B^{k-n} 1)_{s(mu)} / (B^k 1)_{r(mu)} at r(mu); a longer one is cut
    off by the compression.  The level must not exceed the table's k_max.
    """
    if k > table.k_max:
        raise ValueError(f"level {k} above k_max {table.k_max}")
    m = table.module
    vals = [0j] * len(m.vertices)
    for (mu, nu), c in x.terms.items():
        n = len(mu)
        if mu == nu and n <= k:
            ratio = table.ratios(mu.s, mu.r, n)[k - n]
            vals[m.vertices.index(mu.r)] += c * path_weight(mu) * ratio
    return AlgebraElement(m.vertices, vals)


class PartialSumReport(
    namedtuple("PartialSumReport", "value per_level s K norm_estimate tail_coefficient tail_bound")
):
    """Truncation of the weighted series of level compressions.

    `value` is the sum and `per_level` its terms (AlgebraElements) for
    k = 0..K at exponent `s`; the tail is at most `tail_bound`, which is
    `tail_coefficient` times `norm_estimate`.
    """

    __slots__ = ()


def phi_s_partial(module, T: SpanningElement, s: complex, K: int) -> PartialSumReport:
    """Phi_s truncated at K: the sum over k <= K of `finite_level` weighted
    by (1 + k^2)^{-s/2}.

    No path basis is built, so K is unrestricted.  The discarded tail is
    bounded in sup norm by norm_estimate, the triangle bound over terms,
    times K^{1 - Re s} / (Re s - 1), which requires Re s > 1.
    """
    sigma = complex(s).real
    if sigma <= 1.0:
        raise ValueError("the tail bound needs Re(s) > 1")
    if K < 0:
        raise ValueError("K must be nonnegative")
    table = GrowthTable(module, K)
    total = AlgebraElement.zero(module.vertices)
    per_level = []
    for k in range(K + 1):
        term = finite_level(table, T, k) * (1.0 + k * k) ** (-complex(s) / 2.0)
        per_level.append(term)
        total = total + term
    norm_est = float(sum(abs(c) for c in T.terms.values()))
    tail_coeff = max(K, 1) ** (1.0 - sigma) / (sigma - 1.0)
    return PartialSumReport(
        total, tuple(per_level), complex(s), K, norm_est, tail_coeff, tail_coeff * norm_est
    )


# -- the gauge dynamics and its states ----------------------------------------


def gamma(module, x: SpanningElement, t: float) -> SpanningElement:
    """Flow at time t: symbol (mu, nu) rotates by the scale ratio to the power it."""
    out = {}
    for (mu, nu), c in x.terms.items():
        angle = math.log(d_weight(module, mu)) - math.log(d_weight(module, nu))
        out[(mu, nu)] = c * cmath.exp(1j * t * angle)
    return SpanningElement(module, out)


def gamma_minus_i(module, x: SpanningElement) -> SpanningElement:
    """Analytic continuation of the flow to -i: scales by the ratio itself."""
    return SpanningElement(
        module,
        {(mu, nu): c * d_weight(module, mu) / d_weight(module, nu) for (mu, nu), c in x.terms.items()},
    )


def evaluate(trace, x: SpanningElement) -> complex:
    """The state of vertex weights on a symbol combination: zero off the
    diagonal, `TraceState.diagonal` on it."""
    total = 0.0 + 0.0j
    for (mu, nu), c in x.terms.items():
        if mu == nu:
            total += trace.diagonal(mu, c)
    return total


def evaluate_algebra(trace, a: AlgebraElement) -> complex:
    return sum(a[v] * float(trace.weights[v]) for v in trace.module.vertices)


def tr_phi(trace, xi: FockVector, eta: FockVector) -> complex:
    """Pairing of two Fock vectors through the state on the vertex algebra."""
    return evaluate_algebra(trace, right_inner(eta, xi))


def kms_defect(module, trace, x: SpanningElement, y: SpanningElement) -> float:
    """Exchange defect |phi(xy) - phi(gamma_{-i}(y) x)|, through the built
    products."""
    return abs(evaluate(trace, x * y) - evaluate(trace, gamma_minus_i(module, y) * x))
