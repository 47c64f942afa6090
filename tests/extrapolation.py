"""The limit of a growth-ratio column read off the column, a test oracle.

The package reads each residue limit off the condensation.  This is the
route it replaced: a column whose last three quarters agree with its last
entry is stationary there, and any other is extrapolated, by Neville
evaluation at 1/k = 0 over up to 12 geometrically spaced nodes k_max,
k_max / sqrt 2, ... of the exact column, with an error estimate from the
last two diagonal entries.  A column with a period-p ripple or a decay
slower than a polynomial in 1/k does not certify, so the oracle only
answers where its test or its estimate is within the tolerance.
"""

from __future__ import annotations

import math


def extrapolation_nodes(n: int, k_max: int, count: int = 12) -> list[int]:
    """Geometrically spaced sample indices, ascending; fewer than 4 if k_max is too small."""
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
    return ks[::-1]


def extrapolate_to_zero(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Neville evaluation at 0 with an error estimate from the last column."""
    m = len(xs)
    T = list(ys)
    prev_diag = T[0]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            T[i] = T[i] + (T[i] - T[i - 1]) * xs[i] / (xs[i - j] - xs[i])
        if j == m - 2:
            prev_diag = T[m - 1]
    return T[m - 1], abs(T[m - 1] - prev_diag)


def extrapolated_limit(table, r: str, s: str, n: int, tol: float = 1e-10) -> tuple[float, bool]:
    """The limit of the class (r, s, n) from a GrowthTable's column, and
    whether it certifies: stationary within tol (relative above 1), or
    extrapolated with an error estimate within that (and never below
    1e-13)."""
    column = table.ratios(s, r, n)
    last = column[-1]
    if all(abs(c - last) <= tol * max(1.0, abs(last)) for c in column[len(column) // 4 :]):
        return last, True
    ks = extrapolation_nodes(n, table.k_max)
    if len(ks) < 4:
        raise ValueError(f"k_max {table.k_max} leaves fewer than 4 nodes")
    value, est = extrapolate_to_zero([1.0 / k for k in ks], [column[k - n] for k in ks])
    return value, est <= max(tol * max(1.0, abs(value)), 1e-13)
