"""Print the approach of a growth-ratio class to its limit.

Picks the (range, source, length) class of a path in the given graph and
tabulates partial ratios against k, the fitted decay exponent, and the
extrapolated limit.  Useful for eyeballing how slow the triangular-growth
classes are compared to the primitive ones.

usage: python scripts/residue_sweep.py scripts/graphs/triangular.json g,f --kmax 2000
"""

import argparse
import sys

from graphbimod import eta_tilde, make_path
from graphbimod.cli import load_graph
from graphbimod.spectral import GrowthTable


def run(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("graph")
    ap.add_argument("path", help="comma-separated edge ids")
    ap.add_argument("--kmax", type=int, default=400)
    ap.add_argument("--points", type=int, default=12)
    args = ap.parse_args(argv)

    module = load_graph(args.graph)
    p = make_path(module, [t for t in args.path.split(",") if t])
    table = GrowthTable(module, args.kmax)
    rep = eta_tilde(table, p, force_iterative=True)

    r, s, n = rep.target
    print(f"class: range {r}, source {s}, length {n}")
    print(f"method {rep.method}, converged {rep.converged}")
    ratio = table.ratio(s, r, n)
    stride = max(1, (args.kmax - n + 1) // args.points)
    print(f"{'k':>6s}  {'ratio':>22s}  {'gap to limit':>14s}")
    for k in range(n, args.kmax + 1, stride):
        val = ratio(k)
        print(f"{k:6d}  {val:22.15f}  {abs(val - rep.value):14.3e}")
    print(f"limit {rep.value:.15f}")
    if rep.delta == rep.delta and rep.delta != float("inf"):
        print(f"fitted decay exponent {rep.delta:.4f} (r^2 {rep.r_squared:.6f})")
    return 0 if rep.converged else 1


if __name__ == "__main__":
    sys.exit(run())
