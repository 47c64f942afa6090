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
import sys
from collections import namedtuple
from functools import cached_property
from fractions import Fraction

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
# inverse iteration steps per Perron pair; shifted by the Collatz-Wielandt
# upper bound, the steps settle to a few ulps in a handful
_PERRON_MAX_STEPS = 100
_EPS = 2.0**-52


def _shifted_solve(M: list[list[float]], sigma: float, b: list[float]) -> list[float]:
    """Solve (sigma I - M) z = b by Gaussian elimination without pivoting.

    For an irreducible nonnegative M and sigma at or above its Perron root,
    sigma I - M is an M-matrix: the pivots are positive (the last one
    tends to 0 as sigma tends to the root), the off-diagonal entries stay
    nonpositive, and for b > 0 forward and back substitution only add
    nonnegative terms, so z > 0.  A pivot that rounds to at most
    eps * sigma (or the least normal float) is raised to that, as inverse
    iteration does for a shift on the eigenvalue: z is then large along
    the Perron vector.
    """
    n = len(M)
    U = [[(sigma if i == j else 0.0) - a for j, a in enumerate(row)] for i, row in enumerate(M)]
    z = list(b)
    tiny = max(_EPS * sigma, sys.float_info.min)
    for k in range(n):
        uk = U[k]
        if uk[k] <= tiny:
            uk[k] = tiny
        for i in range(k + 1, n):
            ui = U[i]
            f = ui[k] / uk[k]
            if f:
                for j in range(k + 1, n):
                    ui[j] -= f * uk[j]
                z[i] -= f * z[k]
    for k in reversed(range(n)):
        uk = U[k]
        z[k] = (z[k] - sum(uk[j] * z[j] for j in range(k + 1, n))) / uk[k]
    return z


def _perron(
    rows: list[list[tuple[int, int]]], D: int
) -> tuple[float, tuple[float, ...], int, tuple[Fraction, Fraction]]:
    """Perron root and unit positive Perron vector of an irreducible B = A / D.

    rows[i] holds the (column, entry) pairs of row i of the integer A.
    Shifted inverse iteration (Ipsen, SIAM Review 1997) from the unit
    all-equal vector: each step solves (h I - B) z = x, with h the
    Collatz-Wielandt upper bound max_i (Bx)_i / x_i of the current x,
    which is at or above the root, so z stays positive.  It stops when the
    float bracket [min_i, max_i] of those quotients is two ulps wide or no
    longer narrows, and keeps the narrowest x.  Returns the root, x, the
    number of steps and the exact bracket of x, (Ax)_i / (D x_i) in
    Fractions, which holds the root; the root is the float nearest the
    middle of that bracket.  A step costs O(V^3) float operations in
    Python; the vector of a graph took about 0.25 ms at 6 vertices and
    9-14 ms at 60 (2-CPU machine, random graphs with two edges per
    source, 6-11 steps).
    """
    n = len(rows)
    M = [[0.0] * n for _ in range(n)]
    for Mi, row in zip(M, rows):
        for j, a in row:
            Mi[j] = a / D
    x = [n**-0.5] * n
    best, best_width, steps = x, math.inf, 0
    while True:
        q = [
            sum(Mi[j] * x[j] for j, _ in row) / xi for Mi, row, xi in zip(M, rows, x)
        ]
        hi = max(q)
        width = hi - min(q)
        if width >= best_width:
            break
        best, best_width = x, width
        if width <= 2 * _EPS * hi or steps == _PERRON_MAX_STEPS:
            break
        z = _shifted_solve(M, hi, x)
        norm = math.hypot(*z)
        if not 0 < norm < math.inf:
            break
        z = [v / norm for v in z]
        if min(z) <= 0:
            break
        x = z
        steps += 1
    # the exact bracket over a common power-of-two denominator of x
    ratios = [v.as_integer_ratio() for v in best]
    common = max(d for _, d in ratios)
    X = [p * (common // d) for p, d in ratios]
    quotients = [
        Fraction(sum(a * X[j] for j, a in row), D * xi) for row, xi in zip(rows, X)
    ]
    bounds = (min(quotients), max(quotients))
    return float((bounds[0] + bounds[1]) / 2), tuple(best), steps, bounds


class PFData(
    namedtuple(
        "PFData",
        "spectral_radius right_eigenvector primitive iterations converged radius_bounds",
    )
):
    """Perron data of the weighted adjacency matrix.

    Computed only on an irreducible graph (one strongly connected
    component), where the Perron root is simple and its eigenvectors are
    positive; on a reducible graph every field but `primitive` (False) is
    None, 0 or False.  `right_eigenvector` w is the unit Perron vector of
    B from `_perron`, whose steps `iterations` counts.  `radius_bounds`
    is the Collatz-Wielandt bracket
    min_i (Bw)_i / w_i <= r <= max_i of the same, computed exactly in
    Fractions from the integer adjacency, the denominator and the binary
    values of w, and `spectral_radius` the float nearest its middle.
    `converged` means the bracket's width is at most 1e-12 relative to its
    upper end.
    """

    __slots__ = ()


def pf_data(module: GraphBimodule) -> PFData:
    if len(module.period) > 1:
        return PFData(None, None, False, 0, False, None)
    radius, w, steps, bounds = _perron(module.integer_adjacency, module.denominator)
    converged = bounds[1] - bounds[0] <= _CERTIFIED_WIDTH * bounds[1]
    return PFData(radius, w, module.period == (1,), steps, converged, bounds)


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

    def ratios(self, s_vertex: str, r_vertex: str, n: int) -> list[float]:
        """(B^{k-n} 1)_s / (B^k 1)_r for k = n..k_max, entry k - n.

        Each is A^{k-n}1_s D^n / A^k 1_r, correctly rounded and never 0/0,
        as every vertex is a range.  Only a class with no path, or whose
        path weighs below 2^-1024, passes the double range: that raises
        ValueError.
        """
        if not 0 <= n <= self.k_max:
            raise ValueError("need 0 <= n <= k_max")
        vidx = self.module.vertices.index
        si, ri = vidx(s_vertex), vidx(r_vertex)
        scale, levels = self.module.denominator**n, self.levels
        try:
            return [levels[k - n][si] * scale / levels[k][ri] for k in range(n, self.k_max + 1)]
        except OverflowError:
            target = (r_vertex, s_vertex, n)
            raise ValueError(f"class {target}: growth ratio past the double range")


# -- condensation growth profile ------------------------------------------


class GrowthProfile(namedtuple("GrowthProfile", "radius degree")):
    """Per-vertex growth exponents of (B^k 1)_v ~ k^degree * radius^k.

    radius is the largest spectral radius among strongly connected
    components reachable from the vertex (walking range to source), and
    degree counts the longest reachable chain of components attaining that
    radius, minus one.  Both are dicts by vertex name.
    """

    __slots__ = ()


def growth_profile(module: GraphBimodule) -> GrowthProfile:
    """Read the module's condensation, closing it from the last label down.

    Every successor of a component has a larger label, so it is closed
    before the component itself.
    """
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
            local = {v: i for i, v in enumerate(v for v, cv in enumerate(comp) if cv == c)}
            rows = [
                [(local[w], a) for w, a in module.integer_adjacency[v] if w in local]
                for v in local
            ]
            own = _perron(rows, module.denominator)[0]
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


class ResidueReport(
    namedtuple(
        "ResidueReport", "target value converged method delta r_squared samples k_max"
    )
):
    """Limit of the growth ratio for one (range, source, length) class.

    `target` is the class, `value` the limit and `method` the branch that
    found it; `delta` and `r_squared` (float or None) are the fitted decay,
    and `samples` the (k, ratio) pairs read up to `k_max`.
    """

    __slots__ = ()


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


def _fit_decay(col: list[float], n: int, value: float, k_max: int):
    """Least-squares slope of log residual against log k over the top half.

    `col` holds the growth ratios for k = n..k_max.  Only the k >= k_max // 2
    are read, and only the residuals above 1e-14 are logged.  The line is
    the closed-form fit of y = a x + b on the centred points, with every
    sum taken by `math.fsum`.
    """
    first = max(1, k_max // 2, n)
    xs, ys = [], []
    for k, c in zip(range(first, k_max + 1), col[first - n :]):
        res = abs(c - value)
        if res > 1e-14:
            xs.append(math.log(k))
            ys.append(math.log(res))
    m = len(xs)
    if m < 3:
        return math.inf, None
    x_mean, y_mean = math.fsum(xs) / m, math.fsum(ys) / m
    dx = [x - x_mean for x in xs]
    dy = [y - y_mean for y in ys]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    misfit = [b - slope * a for a, b in zip(dx, dy)]
    ss_res = math.fsum(e * e for e in misfit)
    ss_tot = math.fsum(b * b for b in dy)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return -slope, r2


# a class of length n reads its samples from k = n to k_max, and needs this
# many of them past n
KMAX_MARGIN = 8


def check_kmax(k_max: int, n: int) -> None:
    """Refuse a class of length n that k_max leaves too few samples."""
    if k_max < n + KMAX_MARGIN:
        raise ValueError(
            f"k_max {k_max} too small for the requested length {n}: "
            f"it needs k_max >= {n + KMAX_MARGIN}"
        )


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
    check_kmax(k_max, n)
    vals = table.ratios(s, r, n)
    samples = tuple(zip(range(n, k_max + 1), vals))
    data = table.pf

    if data.primitive and data.converged and not force_iterative:
        w, index = data.right_eigenvector, module.vertices.index
        value = data.spectral_radius ** (-n) * w[index(s)] / w[index(r)]
        converged, method = True, "closed_form"
    else:
        vc = vals[-1]
        scale = max(1.0, abs(vc))
        stationary = all(abs(c - vc) <= tol * scale for c in vals[len(vals) // 4 :])
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

    delta, r2 = _fit_decay(vals, n, value, k_max)
    return ResidueReport((r, s, n), value, converged, method, delta, r2, samples, k_max)
