"""Growth of B^k 1 (B the weighted adjacency, range by source) and the
residues of the ratios c_k(r, s, n) = (B^{k-n} 1)_s / (B^k 1)_r.

Along each phase k = j (mod p), p the lcm of the periods of the classes of
largest radius that r reaches, c_k has a limit fixed by the leading data
of the condensation (Friedland and Schneider, SIAM J. Alg. Disc. Meth. 1,
1980; Rothblum, LAA 12, 1975); the residue, the Cesaro mean of c_k, is
the mean of those p limits.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from contextlib import suppress
from functools import cached_property
from fractions import Fraction
from itertools import repeat
from operator import lshift, truediv

from .bimodule import GraphBimodule, _back_substitute, _radius_vs_one, _strong_components
from .fock import Path, index_levels

_CERTIFIED_WIDTH = 1e-12
# A table to k_max holds about V * log2(D * radius) * k_max^2 / 2 level bits.
# On a 2-CPU machine, `residue` wall and peak RSS, median of 5 runs: 4
# vertices, weights 0.1 and 3, k_max 2000: 445 million bits, 0.78 s, 74 MiB;
# 3 vertices, weights 1e-300, k_max 580: 530 million bits, 0.82 s, 99 MiB,
# half of it building the levels.  So 64 MiB of bits keep a run under about
# 1 s and 100 MiB
GROWTH_MAX_LEVEL_BITS = 2**29
# relative tolerance under which two spectral radii count as equal
_RADIUS_RTOL = 1e-9
# inverse iteration steps per Perron pair: a handful settle to a few ulps,
# but where weights near 1e-300 meet O(1) ones the shift falls by about 1.6
# a step, so a root near 1e-100 takes about 500; then exact power steps,
# for a Perron vector that spans more than the double range
_PERRON_MAX_STEPS = 1000
_POWER_MAX_STEPS = 60
_EPS = 2.0**-52


def _shifted_solve(M: list[list[float]], sigma: float, b: list[float]) -> list[float]:
    """Solve (sigma I - M) z = b, M >= 0, by elimination without pivoting:
    sigma at or above the Perron root makes sigma I - M an M-matrix, with
    positive pivots.  In floats a pivot of at most eps * sigma is raised to
    that, as inverse iteration does; with a Fraction sigma the solve is
    exact, and a pivot <= 0 (sigma below the root) raises ArithmeticError.
    """
    n = len(M)
    U = [[(sigma if i == j else 0 * sigma) - a for j, a in enumerate(r)] for i, r in enumerate(M)]
    z = list(b)
    tiny = max(_EPS * sigma, sys.float_info.min) if type(sigma) is float else 0
    for k in range(n):
        uk = U[k]
        if uk[k] <= tiny:
            if not tiny:
                raise ArithmeticError
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
) -> tuple[float, tuple[float, ...], bool, tuple[Fraction, Fraction]]:
    """Perron root and unit positive Perron vector of an irreducible B = A / D.

    rows[i] holds the (column, entry) pairs of row i of the integer A.
    Shifted inverse iteration (Ipsen, SIAM Review 1997) from the unit
    all-equal vector: each step solves (h I - B) z = x, h the
    Collatz-Wielandt bound max_i (Bx)_i / x_i, at or above the root.  It
    stops when the bracket of those quotients is two ulps wide, or no
    longer narrows once within 1e-12 of its top, and keeps the narrowest
    x.  Where its exact bracket, (Ax)_i / (D x_i) in Fractions, is wider,
    exact power steps X <- A X narrow it.  Returns the root (the float
    nearest the middle of the bracket), x, whether the bracket certifies
    (1e-12 wide relative to its top) and the bracket.  A step took 0.25 ms
    at 6 vertices, 9-14 ms at 60 (2-CPU machine).
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
        if width < best_width:
            best, best_width = x, width
        elif best_width <= _CERTIFIED_WIDTH * hi:
            break
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
    for power in range(_POWER_MAX_STEPS + 1):
        AX = [sum(a * X[j] for j, a in row) for row in rows]
        quotients = [Fraction(y, D * xi) for y, xi in zip(AX, X)]
        bounds = (min(quotients), max(quotients))
        certified = bounds[1] - bounds[0] <= _CERTIFIED_WIDTH * bounds[1]
        if certified or power == _POWER_MAX_STEPS:
            break
        # a common power of two off, keeping 64 bits of the least entry
        X = [y >> max(0, min(AX).bit_length() - 64) for y in AX]
    if power:
        best = [xi / max(X) for xi in X]
        norm = math.hypot(*best)
        best = [v / norm for v in best]
    return float((bounds[0] + bounds[1]) / 2), tuple(best), certified, bounds


class GrowthTable:
    """The exact levels of one graph up to k_max, for the `residue` report.

    On first use, the levels A^k 1 = D^k B^k 1 of `fock.index_levels` for
    k = 0..k_max, one tuple per vertex (`columns`).  They gain
    log2(D * radius) bits per entry and step (D = 2^55 for a weight 0.1);
    their total, `level_bits`, may not pass `GROWTH_MAX_LEVEL_BITS`.
    """

    def __init__(self, module: GraphBimodule, k_max: int):
        if k_max < 0:
            raise ValueError("k_max must be nonnegative")
        D = module.denominator
        if D & (D - 1):
            raise ValueError(
                f"the growth ratios need binary weights, but the weights' "
                f"common denominator {D} is not a power of two"
            )
        self.module = module
        self.k_max = k_max
        self.level_bits = 0
        # every weight is a binary float, so D = 2^shift and D^n = 1 << n*shift
        self.shift = D.bit_length() - 1

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        levels, self.level_bits = [], 0
        for k, level in zip(range(self.k_max + 1), index_levels(self.module)):
            self.level_bits += sum(map(int.bit_length, level))
            if self.level_bits > GROWTH_MAX_LEVEL_BITS:
                raise ValueError(
                    f"the index levels to k_max {self.k_max} pass the limit of "
                    f"{GROWTH_MAX_LEVEL_BITS} bits (64 MiB, about 1 s and 100 MiB) "
                    f"at level {k}"
                )
            levels.append(level)
        return tuple(zip(*levels))

    def ratios(self, s_vertex: str, r_vertex: str, n: int, ks: range | None = None) -> list[float]:
        """(B^{k-n} 1)_s / (B^k 1)_r for k in the range ks (by default n..k_max),
        each (A^{k-n}1_s << n log2 D) / A^k 1_r correctly rounded; a ratio
        past the double range raises ValueError naming the class."""
        ks = range(n, self.k_max + 1) if ks is None else ks
        if not 0 <= n <= self.k_max or ks and (ks[0] < n or ks[-1] > self.k_max):
            raise ValueError("need 0 <= n <= k <= k_max")
        index = self.module.vertices.index
        num, den = self.columns[index(s_vertex)], self.columns[index(r_vertex)]
        nums = num[ks.start - n : ks.stop - n : ks.step]
        if n * self.shift:
            nums = map(lshift, nums, repeat(n * self.shift))
        try:
            return list(map(truediv, nums, den[ks.start : ks.stop : ks.step]))
        except OverflowError:
            raise ValueError(
                f"class {(r_vertex, s_vertex, n)}: growth ratio past the double range"
            ) from None


# -- the condensation: Perron data per class and the growth profile -------


class _PerronClass(namedtuple("_PerronClass", "parts rows pairs radius")):
    """One strong class of period q: its cyclic `parts`, the (column, entry)
    `rows` of A^q on each, each part's `_perron` result for A^q / D^q
    (`pairs`), and the class's root (`radius`, 0.0 with no cycle)."""

    __slots__ = ()


def _power(rows: list, p: int, one) -> list[list]:
    """The p-th power, dense, of the matrix with these (column, entry) rows."""
    m = len(rows)
    P = [[one * (i == j) for j in range(m)] for i in range(m)]
    for _ in range(p):
        P = [[sum((a * P[k][j] for k, a in row), one * 0) for j in range(m)] for row in rows]
    return P


def _perron_classes(module: GraphBimodule) -> list[_PerronClass]:
    """`_PerronClass` per strong class, in label order.  A^q splits a class
    of period q into its q cyclic parts, each primitive, so each part's
    Perron pair certifies alone; on a primitive graph this is the one
    `_perron` call of the closed form."""
    out = []
    for c, q in enumerate(module.period):
        members = [v for v, cv in enumerate(module.component) if cv == c]
        if not q:
            out.append(_PerronClass((members,), (), (), 0.0))
            continue
        local = {v: i for i, v in enumerate(members)}
        A = [[(local[w], a) for w, a in module.integer_adjacency[v] if w in local] for v in members]
        parts, rows = [range(len(members))], [A]
        if q > 1:
            Q = _power(A, q, 1)
            label = _strong_components([[j for j, a in enumerate(row) if a] for row in Q])[0]
            parts = [[i for i, x in enumerate(label) if x == k] for k in range(q)]
            rows = [[[(b, Q[i][j]) for b, j in enumerate(p) if Q[i][j]] for i in p] for p in parts]
        pairs = [_perron(r, module.denominator**q) for r in rows]
        parts = [[members[i] for i in p] for p in parts]
        out.append(_PerronClass(parts, rows, pairs, pairs[0][0] ** (1 / q)))
    return out


class GrowthProfile(namedtuple("GrowthProfile", "radius degree")):
    """Per-vertex growth exponents of (B^k 1)_v ~ k^degree * radius^k, as
    dicts by vertex name: the largest radius among the classes the vertex
    reaches, and the longest chain of them attaining it, minus one."""

    __slots__ = ()


def growth_profile(module: GraphBimodule, classes: list | None = None) -> GrowthProfile:
    """Close the condensation from the last label down, a successor before
    its component, on the radii of `classes` (`_perron_classes`)."""
    own = [k.radius for k in classes or _perron_classes(module)]
    if len(own) == 1:  # one class, which every vertex reaches
        radius, degree = dict.fromkeys(module.vertices, own[0]), dict.fromkeys(module.vertices, 0)
        return GrowthProfile(radius, degree)
    comp = module.component
    n_comp = len(module.period)
    # reachable radius and radius-attaining chain count per component
    best_radius = [0.0] * n_comp
    chain = [0] * n_comp
    for c in reversed(range(n_comp)):
        r = max([own[c]] + [best_radius[d] for d in module.successors[c]])
        same = [chain[d] for d in module.successors[c] if _same_radius(best_radius[d], r)]
        m = max(same, default=0)
        best_radius[c] = r
        chain[c] = m + 1 if _same_radius(own[c], r) else m
    return GrowthProfile(
        {v: best_radius[comp[i]] for i, v in enumerate(module.vertices)},
        {v: max(chain[comp[i]] - 1, 0) for i, v in enumerate(module.vertices)},
    )


def _same_radius(a: float, b: float) -> bool:
    # relative only: radii near 1e-300 are as far apart as any others
    return math.isclose(a, b, rel_tol=_RADIUS_RTOL)


# -- the leading coefficients of each reach radius ---------------------------


class _Level(namedtuple("_Level", "method period leading scale converged")):
    """u^(j) of one reach radius rho by vertex, `leading[j]` for j < p =
    `period`; `scale` is rho, or Lambda = (D rho)^p if `method` is "exact"."""

    __slots__ = ()


class ResidueLimits:
    """The residue limits of one graph, from its condensation: the Perron
    data of each class and the growth profile, and the leading coefficients
    of each reach radius (`level`), built on its first read."""

    def __init__(self, module: GraphBimodule):
        self.module = module
        self.classes = _perron_classes(module)
        self.profile = growth_profile(module, self.classes)
        self._levels: dict[float, _Level] = {}

    def level(self, rho: float) -> _Level:
        """The leading coefficients of reach radius rho (`_solve_level`)."""
        if rho not in self._levels:
            module, classes = self.module, self.classes
            S, labels, top = range(len(module.vertices)), [0], [0]  # one class
            if len(classes) > 1:
                rad = self.profile.radius.values()  # in vertex order
                S = [v for v, x in enumerate(rad) if x <= rho or _same_radius(x, rho)]
                labels = sorted({module.component[v] for v in S}, reverse=True)
                own = [(c, classes[c].radius) for c in labels if module.period[c]]
                top = [c for c, x in own if x == rho or _same_radius(x, rho)]
            p = math.lcm(*(module.period[c] for c in top))
            if len(labels) == 1 and p == 1:
                (part,), ((_, x, certified, _),) = classes[top[0]].parts, classes[top[0]].pairs
                names = map(module.vertices.labels.__getitem__, part)
                level = _Level("closed_form", 1, [dict(zip(names, x))], rho, certified)
            else:
                try:
                    level = _solve_level(self, S, labels, top, p, rho, exact=True)
                except ArithmeticError:
                    level = _solve_level(self, S, labels, top, p, rho, exact=False)
            self._levels[rho] = level
        return self._levels[rho]


def _solve_level(limits, S, labels, top, p, rho, exact) -> _Level:
    """The leading coefficients of the vertices whose reach radius is rho.

    S holds the vertices of reach radius at most rho, L those below it, p
    is the lcm of the periods of the classes of radius rho, P = (B/rho)^p
    and y^(j) = (B/rho)^j 1.  Then (P^m y^(j))_v = binom(m, d_v) u_v^(j)
    (1 + o(1)) for v of reach radius rho and degree d_v, and the classes,
    read from the last label down, give u_c, with Pi_c the Perron
    projection of P_cc at 1:
    - Pi_c (y_c + P_cL (I - P_LL)^-1 y_L) on a class of radius rho with
      no successor of radius rho;
    - Pi_c sum over d_b = d_c - 1 of P_cb u_b on one that has one;
    - (I - P_cc)^-1 sum over d_b = d_c of P_cb u_b on a lower class.
    Exactly, on A^p and u^(j) from A^j 1, Lambda = (D rho)^p is rounded from
    a bracket: Pi_c comes from the Bareiss null vectors of Lambda I - P_cc,
    which exist only at its root, and a solve needs positive pivots (roots
    below Lambda), else ArithmeticError.  In floats, Pi_c comes from the
    right and left `_perron` pairs of A^q on each cyclic part, and the
    level certifies when their brackets do and every u is finite.
    """
    module, classes, D = limits.module, limits.classes, limits.module.denominator
    idx = {v: i for i, v in enumerate(S)}
    m, one, zero = len(S), (1 if exact else 1.0), (Fraction(0) if exact else 0.0)
    T = [[(idx[w], a if exact else a / D / rho) for w, a in module.integer_adjacency[v]] for v in S]
    P, ys = _power(T, p, one), [[one] * m]
    while len(ys) < p:
        ys.append([sum((a * ys[-1][k] for k, a in row), zero) for row in T])
    names = module.vertices.labels
    deg = [limits.profile.degree[names[v]] for v in S]
    high = [_same_radius(limits.profile.radius[names[v]], rho) for v in S]
    low = [i for i in range(m) if not high[i]]
    bracket = classes[top[0]].pairs[0][3]
    lam = round((sum(bracket) / 2) ** (p // module.period[top[0]]) * D**p) if exact else 1.0

    def solve(block, rhs):
        # z with (Lambda I - P) z = rhs on a block of roots below Lambda
        return _shifted_solve([[P[a][b] for b in block] for a in block], zero + lam, rhs)

    projections, converged = {c: [] for c in top}, True
    for c in top:
        for part, rows, (_, x, certified, _) in zip(*classes[c][:3]):
            pos = [idx[v] for v in part]
            if exact:
                M = [[lam * (a == b) - P[a][b] for b in pos] for a in pos]
                x, left = _null_vector(M), _null_vector([list(col) for col in zip(*M)])
            else:
                flip = [[(i, a) for i, r in enumerate(rows) for k, a in r if k == j]
                        for j in range(len(pos))]
                _, left, left_certified, _ = _perron(flip, D ** module.period[c])
                converged = converged and certified and left_certified
            projections[c].append((pos, x, left))

    def inflow(i, d, at):
        # sum of P[i][b] u[b] over the b of degree d outside the class at
        return sum((P[i][b] * u[b] for b in range(m) if deg[b] == d and b not in at), zero)

    leading = []
    for y in ys:
        z, u = solve(low, [y[i] for i in low]), [zero] * m
        for c in labels:
            at = [idx[v] for v in S if module.component[v] == c]
            d = deg[at[0]]
            if c in projections:
                if d:
                    v = {i: inflow(i, d - 1, at) / lam for i in at}
                else:
                    v = {i: y[i] + sum((P[i][k] * zk for k, zk in zip(low, z)), zero) for i in at}
                for pos, x, left in projections[c]:
                    coef = sum((a * v[i] for i, a in zip(pos, left)), zero)
                    coef /= sum((a * b for a, b in zip(left, x)), zero)
                    for i, a in zip(pos, x):
                        u[i] = a * coef
            elif high[at[0]]:
                for i, a in zip(at, solve(at, [inflow(i, d, at) for i in at])):
                    u[i] = a
        converged = converged and all(x < math.inf for x in u)
        leading.append({names[v]: u[i] for v, i in idx.items() if high[i]})
    if exact:
        return _Level("exact", p, leading, lam, True)
    return _Level("perron", p, leading, rho, converged)


def _null_vector(M: list[list[int]]) -> list[int]:
    """The positive null vector of a singular irreducible integer M-matrix."""
    sign, scale = _radius_vs_one(M, len(M))
    if sign:
        raise ArithmeticError
    return _back_substitute(M, len(M) - 1, len(M) - 1, scale) + [scale]


# -- residue limits --------------------------------------------------------


class ResidueLimit(namedtuple("ResidueLimit", "target value converged method")):
    """The limit `value` of the growth ratio of the class `target`, and the
    `method` that found it."""

    __slots__ = ()


class ResidueReport(
    namedtuple("ResidueReport", "target value converged method delta r_squared samples k_max")
):
    """A `ResidueLimit` with its diagnostics: the fitted decay `delta` and
    `r_squared` (float or None), and every `sample_stride`-th (k, ratio)
    pair from the class length n to `k_max`."""

    __slots__ = ()


def _residue_class(module: GraphBimodule, target) -> tuple[str, str, int]:
    """The class (r, s, n) of a Path or triple, refused when no path of
    length n runs from s to r."""
    if isinstance(target, Path):
        r, s, n = target.r, target.s, len(target)
    else:
        r, s, n = target
        module.vertices.index(r)
        module.vertices.index(s)
        n = int(n)
        if n < 0:
            raise ValueError("path length must be nonnegative")
    if not _target_realized(module, r, s, n):
        raise ValueError(f"no path of length {n} from source {s!r} to range {r!r}")
    return (r, s, n)


def _target_realized(module: GraphBimodule, r: str, s: str, n: int) -> bool:
    """Whether some path of length exactly n runs from source s to range r."""
    frontier = {r}
    for _ in range(n):
        frontier = {e.s for v in frontier for e in module.edges_with_range(v)}
    return s in frontier


def residue_limit(limits: ResidueLimits, target) -> ResidueLimit:
    """Residue coefficient of the class of a Path or (r, s, n) triple.

    A strict growth gap between s and r forces 0 ("structural_zero");
    otherwise the level of r's reach radius rho gives rho^-n (1/p) sum
    over j < p of u_s^((j-n) mod p) / u_r^(j): "exact" in Fractions,
    "perron" in floats, and rho^-n w_s / w_r from the right Perron vector w
    of one primitive class ("closed_form").  A limit past the double range
    raises ValueError.
    """
    r, s, n = _residue_class(limits.module, target)
    rad, deg = limits.profile.radius, limits.profile.degree
    # r reaches s, so rad[s] <= rad[r] and, at equal radii, deg[s] <= deg[r]
    if rad[s] != rad[r] and not _same_radius(rad[s], rad[r]) or deg[s] < deg[r]:
        return ResidueLimit((r, s, n), 0.0, True, "structural_zero")
    level = limits._levels.get(rad[r]) or limits.level(rad[r])
    p, u, scale = level.period, level.leading, level.scale
    # phase j's term u_s^((j-n) mod p) / u_r^(j) times rho^-n, which is
    # D^n Lambda^t, t = (j - n) // p, where u^(j) comes from A^j 1
    try:
        if level.method == "exact":
            value = math.inf
        elif p == 1:
            value = scale**-n * u[0][s] / u[0][r]
        else:
            value = math.fsum(scale**-n * u[(j - n) % p][s] / u[j][r] for j in range(p)) / p
    except OverflowError:
        value = math.inf
    except ZeroDivisionError:  # 0 / 0: both coefficients below the double range
        value = math.nan
    if math.isinf(value):
        # in Fractions, where a float product may leave the double range on its way
        lam, D = Fraction(scale), limits.module.denominator
        terms = [(D**n * lam ** ((j - n) // p) if level.method == "exact" else lam**-n)
                 * Fraction(u[(j - n) % p][s]) / Fraction(u[j][r]) for j in range(p)]
        with suppress(OverflowError):
            value = float(sum(terms) / p)
    if math.isinf(value):
        raise ValueError(f"class {(r, s, n)}: growth ratio past the double range")
    return ResidueLimit((r, s, n), value, level.converged and value == value, level.method)


def _fit_decay(top: list[float], first: int, value: float):
    """Least-squares slope of log residual against log k over the top half.

    `top` holds the growth ratios for k = first..k_max; only residuals
    above 4 ulps of the larger of ratio and limit, past round-off, are
    logged.  The fit of y = a x + b is closed-form on the centred points,
    every sum by `math.fsum`.
    """
    xs, ys = [], []
    # the least and the largest floor, which decide most residuals
    low, cap = 4 * math.ulp(value), 4 * math.ulp(max(map(abs, top), default=0.0) + abs(value))
    for k, c in enumerate(top, first):
        res = abs(c - value)
        if res > cap or res > low and res > 4 * math.ulp(max(abs(c), abs(value))):
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


def sample_stride(n: int, k_max: int) -> int:
    """The step between the about 64 samples of a class of length n."""
    return max(1, (k_max - n + 1) // 64)


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


def eta_tilde(limits: ResidueLimits, table: GrowthTable, target) -> ResidueReport:
    """`residue_limit` with the diagnostics of a report, from two blocks of
    `GrowthTable.ratios`: the top half of the class's column
    (k >= max(1, k_max // 2, n)), fitted against the limit, and the
    samples, every `sample_stride`-th k from n."""
    limit = residue_limit(limits, target)
    r, s, n = limit.target
    k_max = table.k_max
    check_kmax(k_max, n)
    half = max(1, k_max // 2, n)
    delta, r2 = _fit_decay(table.ratios(s, r, n, range(half, k_max + 1)), half, limit.value)
    ks = range(n, k_max + 1, sample_stride(n, k_max))
    samples = tuple(zip(ks, table.ratios(s, r, n, ks)))
    return ResidueReport(*limit, delta, r2, samples, k_max)
