"""Growth of the weighted adjacency matrix and residue-type limits.

Everything here is about the sequence B^k 1 (B the weighted adjacency in
range-by-source convention) and the ratios

    c_k(r, s, n) = (B^{k-n} 1)_s / (B^k 1)_r

whose limits give the residue coefficients of the series built on the
k-step index.  For primitive B the limit has a closed form through the
Perron eigenvectors; in general it is decided structurally where possible
and otherwise estimated by polynomial extrapolation in 1/k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .algebra import AlgebraElement
from .bimodule import GraphBimodule
from .fock import Path, index_levels

_CERTIFIED_WIDTH = 1e-12
# A table to k_max holds about V * log2(D * radius) * k_max^2 / 2 level bits.
# On a 2-CPU machine, one run each: 4 vertices, weights 0.1 and 3, k_max
# 2000: 445 million bits, 1.5 s, 90 MiB; 3 vertices, weights 1e-300, k_max
# 580: 530 million bits, 2.9 s, 115 MiB.  So 64 MiB of bits keep a run
# under about 3 s and 120 MiB
GROWTH_MAX_LEVEL_BITS = 2**29
# relative tolerance under which two spectral radii count as equal
_RADIUS_RTOL = 1e-9


def _perron_pair(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and unit nonnegative eigenvector of a nonnegative matrix.

    Every other eigenvalue has modulus at most the Perron root, so the
    Perron root is the one with the largest real part.
    """
    vals, vecs = np.linalg.eig(M)
    i = int(np.argmax(vals.real))
    v = np.abs(vecs[:, i].real)
    return float(vals[i].real), v / np.linalg.norm(v)


def _collatz_wielandt(
    module: GraphBimodule, w: np.ndarray
) -> tuple[Fraction, Fraction] | None:
    """Exact min_i and max_i of (Bw)_i / w_i, or None when w has a zero entry."""
    if not np.all(w > 0):
        return None
    B = module.adjacency()
    wf = [Fraction(x) for x in w]
    quotients = [
        sum(Fraction(B[i, j]) * wf[j] for j, _ in row) / wf[i]
        for i, row in enumerate(module.integer_adjacency)
    ]
    return min(quotients), max(quotients)


@dataclass(frozen=True)
class PFData:
    """Perron data of the weighted adjacency matrix.

    `eigenvector` is the leading unit eigenvector of the transpose (the
    functional that picks out the growth direction), `right_eigenvector`
    the one of B itself, both taken nonnegative from one dense eigensolve
    each; `iterations` is 0 since nothing iterates.  `radius_bounds` is
    the Collatz-Wielandt bracket min_i (Bw)_i / w_i <= r <= max_i of the
    same, computed exactly in Fractions from the binary values of B and
    the right eigenvector w.  It holds for every nonnegative B and
    positive w, and is None when w has a zero entry, as on reducible
    graphs.  `converged` means the bracket exists and its width is at most
    1e-12 relative to its upper end.

    The rate constants bound the geometric convergence of the normalized
    transpose powers to the orthogonal projection Q.  They are a
    certificate only when B is normal, and are None unless B is primitive,
    `converged` holds and A A^T = A^T A exactly in the integers of
    `integer_adjacency` (B = A / D is normal exactly when A is).
    """

    spectral_radius: float
    eigenvector: np.ndarray
    right_eigenvector: np.ndarray
    projection: np.ndarray
    primitive: bool
    rate_alpha: float | None
    rate_C: float | None
    iterations: int
    converged: bool
    radius_bounds: tuple[Fraction, Fraction] | None


def _is_normal(module: GraphBimodule) -> bool:
    """Whether the integer adjacency A has A A^T = A^T A, exactly."""
    V = len(module.vertices)
    A = np.zeros((V, V), dtype=object)
    for i, row in enumerate(module.integer_adjacency):
        for j, a in row:
            A[i, j] = a
    return bool((A @ A.T == A.T @ A).all())


def pf_data(module: GraphBimodule) -> PFData:
    B = module.adjacency()
    n = B.shape[0]
    primitive = module.period == (1,)
    lam, x = _perron_pair(B.T)
    _, w = _perron_pair(B)
    bounds = _collatz_wielandt(module, w)
    converged = bounds is not None and (
        bounds[1] - bounds[0] <= _CERTIFIED_WIDTH * bounds[1]
    )
    Q = np.outer(x, x)
    if not (primitive and converged and _is_normal(module)):
        return PFData(lam, x, w, Q, primitive, None, None, 0, converged, bounds)
    # smallest l with ||(1-Q)(B^T/r)^l(1-Q)|| < 1, then a geometric envelope
    # constant covering the powers below l
    comp = np.eye(n) - Q
    S = B.T / lam
    power = np.eye(n)
    norms = []
    l = None
    for p in range(0, 400):
        norms.append(float(np.linalg.norm(comp @ power @ comp, 2)))
        if p >= 1 and norms[p] < 1.0:
            l = p
            break
        power = power @ S
    if l is None:
        return PFData(lam, x, w, Q, primitive, None, None, 0, False, bounds)
    alpha = norms[l] ** (1.0 / l)
    # alpha = 0 only when 1 - Q vanishes, on a single vertex
    C = max(norms[p] / alpha**p for p in range(l + 1)) if alpha > 0 else norms[0]
    return PFData(lam, x, w, Q, primitive, alpha, C, 0, converged, bounds)


@dataclass(frozen=True)
class RateCheck:
    passed: bool
    worst_ratio: float
    first_failure: int | None
    k_max: int
    alpha: float
    C: float
    precision_floor: float


def verify_rate_certificate(
    module: GraphBimodule, k_max: int = 100, slack: float = 1e-9
) -> RateCheck:
    """Check ||(B^T/r)^k - Q|| <= C alpha^k for k = 1..k_max.

    The normalized powers converge to the orthogonal projection only when
    the adjacency matrix is normal, so `pf_data` gives no rate constants
    otherwise, and a non-normal graph raises ValueError.  The geometric
    bound quickly drops below what repeated matrix products can
    resolve, so a precision floor growing linearly with k is added to the
    bound before comparing.
    """
    data = pf_data(module)
    if not data.primitive:
        raise ValueError("rate certificate requires a primitive adjacency matrix")
    if data.rate_alpha is None or data.rate_C is None:
        raise ValueError(
            "rate constants unavailable (adjacency not normal, or Perron root not certified)"
        )
    B = module.adjacency()
    S = B.T / data.spectral_radius
    eps = float(np.finfo(float).eps)
    power = np.eye(B.shape[0])
    worst = 0.0
    first = None
    floor = 0.0
    for k in range(1, k_max + 1):
        power = power @ S
        lhs = float(np.linalg.norm(power - data.projection, 2))
        floor = (32.0 + 8.0 * k) * eps
        bound = data.rate_C * data.rate_alpha**k + floor
        ratio = lhs / bound
        if ratio > worst:
            worst = ratio
        if ratio > 1.0 + slack and first is None:
            first = k
    return RateCheck(
        first is None, worst, first, k_max, data.rate_alpha, data.rate_C, floor
    )


class GrowthTable:
    """The growth data of one graph up to k_max, built once and passed in.

    Holds the exact levels A^k 1 = D^k B^k 1 of `fock.index_levels` for
    k = 0..k_max, the Perron data, and the growth profile (on first use).
    Each growth ratio is the correctly rounded float of an integer
    quotient.  The levels gain log2(D * radius) bits per entry and step,
    so a non-dyadic weight costs much (D = 2^55 for 0.1); their total,
    `level_bits`, may not pass `GROWTH_MAX_LEVEL_BITS`.
    """

    def __init__(self, module: GraphBimodule, k_max: int):
        if k_max < 0:
            raise ValueError("k_max must be nonnegative")
        self.module = module
        self.k_max = k_max
        self.levels = []
        self.level_bits = 0
        for k, level in zip(range(k_max + 1), index_levels(module)):
            self.level_bits += sum(x.bit_length() for x in level)
            if self.level_bits > GROWTH_MAX_LEVEL_BITS:
                raise ValueError(
                    f"the index levels to k_max {k_max} pass the limit of "
                    f"{GROWTH_MAX_LEVEL_BITS} bits (64 MiB, about 3 s and 120 MiB) "
                    f"at level {k}"
                )
            self.levels.append(level)
        self.pf = pf_data(module)

    @cached_property
    def profile(self) -> GrowthProfile:
        return growth_profile(self.module)

    def _quotients(self, s: str, r: str, n: int, ks) -> list[float]:
        """A^{k-n}1_s D^n / A^k 1_r for each k in ks; never 0/0, as every
        vertex is a range.  Only a class with no path, or whose path weighs
        below 2^-1024, passes the double range: that raises ValueError.
        """
        si, ri = self.module.vertices.index(s), self.module.vertices.index(r)
        scale, levels = self.module.denominator**n, self.levels
        try:
            return [levels[k - n][si] * scale / levels[k][ri] for k in ks]
        except OverflowError:
            raise ValueError(f"class {(r, s, n)}: growth ratio past the double range")

    def ratio(self, s_vertex: str, r_vertex: str, n: int, k: int) -> float:
        """(B^{k-n} 1)_s / (B^k 1)_r, correctly rounded."""
        if not 0 <= n <= k <= self.k_max:
            raise ValueError("need 0 <= n <= k <= k_max")
        return self._quotients(s_vertex, r_vertex, n, (k,))[0]

    def ratios(self, s_vertex: str, r_vertex: str, n: int) -> np.ndarray:
        """`ratio` for k = n..k_max as one float64 array, entry k - n."""
        if not 0 <= n <= self.k_max:
            raise ValueError("need 0 <= n <= k_max")
        ks = range(n, self.k_max + 1)
        return np.array(self._quotients(s_vertex, r_vertex, n, ks))


# -- condensation growth profile ------------------------------------------


@dataclass(frozen=True)
class GrowthProfile:
    """Per-vertex growth exponents of (B^k 1)_v ~ k^degree * radius^k.

    radius is the largest spectral radius among strongly connected
    components reachable from the vertex (walking range to source), and
    degree counts the longest reachable chain of components attaining that
    radius, minus one.
    """

    radius: dict[str, float]
    degree: dict[str, int]


def growth_profile(module: GraphBimodule) -> GrowthProfile:
    """Read the module's condensation, closing it from the last label down.

    Every successor of a component has a larger label, so it is closed
    before the component itself.
    """
    B = module.adjacency()
    comp = module.component
    n_comp = len(module.period)
    comp_succ: list[set[int]] = [set() for _ in range(n_comp)]
    for v, row in enumerate(module.integer_adjacency):
        for w, _ in row:
            if comp[v] != comp[w]:
                comp_succ[comp[v]].add(comp[w])
    # reachable radius and radius-attaining chain count per component
    best_radius = [0.0] * n_comp
    chain = [0] * n_comp
    for c in reversed(range(n_comp)):
        own = 0.0
        if module.period[c]:
            idx = [v for v, cv in enumerate(comp) if cv == c]
            own = float(np.max(np.abs(np.linalg.eigvals(B[np.ix_(idx, idx)]))))
        r = max([own] + [best_radius[d] for d in comp_succ[c]])
        m = max(
            [chain[d] for d in comp_succ[c] if _same_radius(best_radius[d], r)],
            default=0,
        )
        best_radius[c] = r
        chain[c] = m + 1 if _same_radius(own, r) else m
    return GrowthProfile(
        {v: best_radius[comp[i]] for i, v in enumerate(module.vertices)},
        {v: max(chain[comp[i]] - 1, 0) for i, v in enumerate(module.vertices)},
    )


def _same_radius(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_RADIUS_RTOL, abs_tol=1e-12)


# -- residue limits --------------------------------------------------------


@dataclass(frozen=True)
class ResidueReport:
    """Limit of the growth ratio for one (range, source, length) class."""

    target: tuple[str, str, int]
    value: float
    converged: bool
    method: str
    delta: float | None
    r_squared: float | None
    samples: tuple[tuple[int, float], ...]
    rate_alpha: float | None
    k_max: int


def _resolve_target(module: GraphBimodule, target) -> tuple[str, str, int]:
    if isinstance(target, Path):
        return (target.r, target.s, len(target))
    r, s, n = target
    module.vertices.index(r)
    module.vertices.index(s)
    n = int(n)
    if n < 0:
        raise ValueError("path length must be nonnegative")
    return (r, s, n)


def _target_realized(module: GraphBimodule, r: str, s: str, n: int) -> bool:
    """Whether some path of length exactly n runs from source s to range r."""
    frontier = {r}
    for _ in range(n):
        frontier = {e.s for v in frontier for e in module.edges_with_range(v)}
    return s in frontier


def _fit_decay(col: np.ndarray, n: int, value: float, k_max: int):
    """Least-squares slope of log residual against log k over the top half.

    `col` holds the growth ratios for k = n..k_max.  Only the k >= k_max // 2
    are read, and only the residuals above 1e-14 are logged.
    """
    first = max(1, k_max // 2, n)
    res = np.abs(col[first - n :] - value)
    keep = np.flatnonzero(res > 1e-14)
    if len(keep) < 3:
        return math.inf, None
    xs = np.array([math.log(k) for k in (keep + first).tolist()])
    ys = np.array([math.log(x) for x in res[keep].tolist()])
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(-coef[0]), r2


def _extrapolation_nodes(n: int, k_max: int, count: int = 12) -> list[int]:
    """Geometrically spaced sample indices, largest first, then reversed."""
    floor = max(n + 1, 6)
    ks = []
    k = float(k_max)
    while len(ks) < count:
        ki = int(round(k))
        if ki < floor:
            break
        if not ks or ki < ks[-1]:
            ks.append(ki)
        k /= math.sqrt(2.0)
    if len(ks) < 4:
        raise ValueError("k_max too small for the requested length")
    return ks[::-1]


def _extrapolate_to_zero(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Neville evaluation at 0 with an error estimate from the last column."""
    m = len(xs)
    T = list(ys)
    prev_diag = T[0]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            T[i] = T[i] + (T[i] - T[i - 1]) * xs[i] / (xs[i - j] - xs[i])
        if j == m - 2:
            prev_diag = T[m - 1]
    est = abs(T[m - 1] - prev_diag)
    return T[m - 1], est


def eta_tilde(
    table: GrowthTable,
    target,
    tol: float = 1e-10,
    force_iterative: bool = False,
) -> ResidueReport:
    """Residue coefficient for a path class, with convergence diagnostics.

    `target` is a Path or an (r, s, n) triple; the ratio depends on the
    path only through its endpoints and length.  The growth table supplies
    k_max, the Perron data, the growth profile and the samples, read as one
    column of ratios for k = n..k_max.  Primitive graphs whose Perron root
    pf_data certifies get the closed form r^{-n} w_s / w_r from the right
    Perron eigenvector of the adjacency matrix.  Otherwise a sequence
    stationary over its last three quarters is read off directly, a strict
    growth gap forces the limit 0 exactly, and the remaining cases are
    extrapolated polynomially in 1/k; a sequence with no limit
    (oscillating growth coefficients) is reported unconverged.
    """
    module, k_max = table.module, table.k_max
    r, s, n = _resolve_target(module, target)
    if not _target_realized(module, r, s, n):
        raise ValueError(f"no path of length {n} from source {s!r} to range {r!r}")
    if k_max < n + 8:
        raise ValueError("k_max too small for the requested length")
    col = table.ratios(s, r, n)
    vals = col.tolist()
    samples = tuple(zip(range(n, k_max + 1), vals))
    data = table.pf
    rate_alpha = data.rate_alpha

    if data.primitive and data.converged and not force_iterative:
        w = data.right_eigenvector
        wi = {v: float(w[i]) for i, v in enumerate(module.vertices)}
        value = data.spectral_radius ** (-n) * wi[s] / wi[r]
        converged, method = True, "closed_form"
    else:
        vc = vals[-1]
        scale = max(1.0, abs(vc))
        stationary = bool(np.all(np.abs(col[len(col) // 4 :] - vc) <= tol * scale))
        if stationary:
            value, converged, method = vc, True, "stationary"
        else:
            rad, deg = table.profile.radius, table.profile.degree
            gap = rad[s] < rad[r] * (1.0 - _RADIUS_RTOL) or (
                math.isclose(rad[s], rad[r], rel_tol=_RADIUS_RTOL) and deg[s] < deg[r]
            )
            if gap:
                value, converged, method = 0.0, True, "structural_zero"
            else:
                ks = _extrapolation_nodes(n, k_max)
                xs = [1.0 / k for k in ks]
                ys = [vals[k - n] for k in ks]
                value, est = _extrapolate_to_zero(xs, ys)
                value = float(value)
                converged = bool(est <= max(tol * max(1.0, abs(value)), 1e-13))
                method = "extrapolation"

    delta, r2 = _fit_decay(col, n, value, k_max)
    return ResidueReport(
        (r, s, n), value, converged, method, delta, r2, samples, rate_alpha, k_max
    )


@dataclass(frozen=True)
class PartialSumReport:
    """Truncation of the weighted series of level compressions."""

    value: AlgebraElement
    per_level: tuple[AlgebraElement, ...]
    s: complex
    K: int
    norm_estimate: float
    tail_coefficient: float
    tail_bound: float


def phi_s_partial(module: GraphBimodule, T, s: complex, K: int) -> PartialSumReport:
    """Sum over k <= K of the level-k diagonal compression of T, scaled by
    the inverse index and the weight (1 + k^2)^{-s/2}.

    T is a symbol combination (anything with a `terms` mapping of path
    pairs to coefficients).  The level sum has a closed form, so no path
    basis is ever built and K is unrestricted.  The discarded tail is
    bounded in sup norm by norm_estimate, the triangle bound over terms,
    times K^{1 - Re s} / (Re s - 1), which requires Re s > 1.
    """
    sigma = complex(s).real
    if sigma <= 1.0:
        raise ValueError("the tail bound needs Re(s) > 1")
    if K < 0:
        raise ValueError("K must be nonnegative")
    total = AlgebraElement.zero(module.vertices)
    per_level = []
    vidx = {v: i for i, v in enumerate(module.vertices)}
    terms = T.terms
    table = GrowthTable(module, K)
    norm_est = float(sum(abs(c) for c in terms.values()))
    for k in range(K + 1):
        vals = np.zeros(len(module.vertices), dtype=complex)
        for (mu, nu), c in terms.items():
            if mu != nu or len(mu) > k:
                continue
            ratio = table.ratio(mu.s, mu.r, len(mu), k)
            vals[vidx[mu.r]] += c * mu.weight * ratio
        weight = (1.0 + k * k) ** (-complex(s) / 2.0)
        term = AlgebraElement(module.vertices, vals) * weight
        per_level.append(term)
        total = total + term
    tail_coeff = (max(K, 1)) ** (1.0 - sigma) / (sigma - 1.0)
    return PartialSumReport(
        total, tuple(per_level), complex(s), K, norm_est, tail_coeff,
        tail_coeff * norm_est,
    )
