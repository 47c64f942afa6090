"""Dense numpy routes to the spectral data, kept as test oracles.

The package computes its Perron data by shifted inverse iteration in pure
Python (`spectral._perron`) and holds no dense matrix.  These are the
routes it replaced: the read-only float B, the Perron pair from one
`numpy.linalg.eig`, its exact Collatz-Wielandt bracket, and the geometric
rate constants of the normalized transpose powers with their
certificate, which hold only when B is normal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_CERTIFIED_WIDTH = 1e-12


def adjacency(module) -> np.ndarray:
    """Read-only B, B[r(g), s(g)] the correctly rounded sum of the weights c_g."""
    V = len(module.vertices)
    B = np.zeros((V, V))
    for i, row in enumerate(module.integer_adjacency):
        for j, a in row:
            B[i, j] = a / module.denominator
    B.flags.writeable = False
    return B


def perron_pair(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and unit nonnegative eigenvector of a nonnegative matrix.

    Every other eigenvalue has modulus at most the Perron root, so the
    Perron root is the one with the largest real part.
    """
    vals, vecs = np.linalg.eig(M)
    i = int(np.argmax(vals.real))
    v = np.abs(vecs[:, i].real)
    return float(vals[i].real), v / np.linalg.norm(v)


def collatz_wielandt(rows, D: int, w) -> tuple[Fraction, Fraction] | None:
    """Exact min_i and max_i of (Bw)_i / w_i for B = A / D given by the
    (column, entry) rows of A, or None when w has an entry <= 0."""
    if not all(x > 0 for x in w):
        return None
    wf = [Fraction(float(x)) for x in w]
    quotients = [sum(a * wf[j] for j, a in row) / (D * wf[i]) for i, row in enumerate(rows)]
    return min(quotients), max(quotients)


def certifies(bounds) -> bool:
    """Whether a bracket exists and is at most 1e-12 wide relative to its top."""
    return bounds is not None and bounds[1] - bounds[0] <= _CERTIFIED_WIDTH * bounds[1]


def is_normal(module) -> bool:
    """Whether the integer adjacency A has A A^T = A^T A, exactly."""
    V = len(module.vertices)
    A = np.zeros((V, V), dtype=object)
    for i, row in enumerate(module.integer_adjacency):
        for j, a in row:
            A[i, j] = a
    return bool((A @ A.T == A.T @ A).all())


@dataclass(frozen=True)
class RateConstants:
    """||(B^T/r)^k - Q|| <= C alpha^k, with Q the orthogonal Perron projection."""

    radius: float
    projection: np.ndarray
    alpha: float
    C: float


def rate_constants(module) -> RateConstants | None:
    """The geometric rate constants, or None unless B is primitive and
    normal and eig's Perron root is certified.

    l is the smallest power with ||(1-Q)(B^T/r)^l(1-Q)|| < 1, alpha its
    l-th root, and C a geometric envelope constant covering the powers
    below l.
    """
    B = adjacency(module)
    lam, x = perron_pair(B.T)
    _, w = perron_pair(B)
    bounds = collatz_wielandt(module.integer_adjacency, module.denominator, w)
    if not (module.period == (1,) and certifies(bounds) and is_normal(module)):
        return None
    n = B.shape[0]
    Q = np.outer(x, x)
    comp = np.eye(n) - Q
    S = B.T / lam
    power = np.eye(n)
    norms = []
    for p in range(0, 400):
        norms.append(float(np.linalg.norm(comp @ power @ comp, 2)))
        if p >= 1 and norms[p] < 1.0:
            break
        power = power @ S
    else:
        return None
    l = len(norms) - 1
    alpha = norms[l] ** (1.0 / l)
    # alpha = 0 only when 1 - Q vanishes, on a single vertex
    C = max(norms[p] / alpha**p for p in range(l + 1)) if alpha > 0 else norms[0]
    return RateConstants(lam, Q, alpha, C)


@dataclass(frozen=True)
class RateCheck:
    passed: bool
    worst_ratio: float
    first_failure: int | None
    k_max: int
    alpha: float
    C: float
    precision_floor: float


def verify_rate_certificate(module, k_max: int = 100, slack: float = 1e-9) -> RateCheck:
    """Check ||(B^T/r)^k - Q|| <= C alpha^k for k = 1..k_max.

    The normalized powers converge to the orthogonal projection only when
    the adjacency matrix is normal, so a non-normal graph raises
    ValueError.  The geometric bound quickly drops below what repeated
    matrix products can resolve, so a precision floor growing linearly
    with k is added to the bound before comparing.
    """
    if module.period != (1,):
        raise ValueError("rate certificate requires a primitive adjacency matrix")
    rates = rate_constants(module)
    if rates is None:
        raise ValueError(
            "rate constants unavailable (adjacency not normal, or Perron root not certified)"
        )
    B = adjacency(module)
    S = B.T / rates.radius
    eps = float(np.finfo(float).eps)
    power = np.eye(B.shape[0])
    worst = 0.0
    first = None
    floor = 0.0
    for k in range(1, k_max + 1):
        power = power @ S
        lhs = float(np.linalg.norm(power - rates.projection, 2))
        floor = (32.0 + 8.0 * k) * eps
        bound = rates.C * rates.alpha**k + floor
        ratio = lhs / bound
        if ratio > worst:
            worst = ratio
        if ratio > 1.0 + slack and first is None:
            first = k
    return RateCheck(first is None, worst, first, k_max, rates.alpha, rates.C, floor)
