"""Drive every CLI subcommand over the bundled graphs and summarize.

Runs in-process, parses each JSON report, and prints one line per run.
Pass --full to dump the raw reports instead.  Exit code is the worst
exit code seen, so this doubles as a smoke test.
"""

import argparse
import contextlib
import io
import json
import os
import sys

from graphbimod.cli import main as cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
GRAPHS = os.path.join(HERE, "graphs")

RUNS = [
    ("index", "full_shift_2.json", ["--depth", "3"]),
    ("index", "full_shift_3.json", ["--depth", "3"]),
    ("index", "golden_mean.json", ["--depth", "3"]),
    ("index", "triangular.json", ["--depth", "4"]),
    ("residue", "full_shift_2.json", ["--target", "3"]),
    ("residue", "golden_mean.json", ["--target", "1"]),
    ("residue", "triangular.json", ["--target", "2", "--kmax", "2000"]),
    ("kasparov", "full_shift_2.json", ["--depth", "2"]),
    ("kasparov", "golden_mean.json", ["--depth", "2"]),
    ("kasparov", "triangular.json", ["--depth", "2"]),
    ("kms", "full_shift_2.json", []),
    ("kms", "golden_mean.json", []),
    ("kms", "triangular.json", []),
]


def summarize(command: str, doc: dict) -> str:
    if command == "index":
        top = max(doc["levels"], key=int)
        vec = ", ".join(f"{v}={x}" for v, x in sorted(doc["levels"][top].items()))
        return f"level {top}: {vec} (central: {doc['central']})"
    if command == "residue":
        vals = sorted({round(row["value"], 10) for row in doc["paths"]})
        methods = sorted({row["method"] for row in doc["paths"]})
        return f"{len(doc['paths'])} paths, limits {vals}, via {'/'.join(methods)}"
    if command == "kasparov":
        defect = doc["gram"]["isometry_defect"]
        ranks = ", ".join(f"{c['edge']}:{c['total_rank']}" for c in doc["commutators"])
        return f"basis {doc['basis_size']}, isometry defect {defect:.1e}, ranks {ranks}"
    if command == "kms":
        if not doc["feasible"]:
            return "no invariant trace"
        masses = ", ".join(f"{v}={w}" for v, w in sorted(doc["canonical"].items()))
        return f"canonical {masses}, descent residual {doc['descent_residual']}"
    return "?"


def run(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--full", action="store_true", help="print raw reports")
    args = ap.parse_args(argv)
    worst = 0
    for command, graph, extra in RUNS:
        cli_argv = [command, os.path.join(GRAPHS, graph)] + extra
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(cli_argv)
        worst = max(worst, code)
        label = f"{command:8s} {graph:18s}"
        if args.full:
            print(f"== {label} (exit {code})")
            print(buf.getvalue())
            continue
        if code == 2:
            print(f"{label} exit 2")
            continue
        doc = json.loads(buf.getvalue())
        flag = "" if code == 0 else f"  [exit {code}: {doc.get('failures')}]"
        print(f"{label} {summarize(command, doc)}{flag}")
    return worst


if __name__ == "__main__":
    sys.exit(run())
