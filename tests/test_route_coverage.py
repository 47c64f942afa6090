"""Every function of the package is entered by some CLI run.

Each CLI form runs in this process under `sys.setprofile`, failure exits
included, and the functions of `src/graphbimod` that no run entered are
listed.  A function may stay unentered only with its reason in ALLOWED;
the symbol calculus and the other independent routes live in the tests.
"""

import contextlib
import inspect
import io
import json
import os
import sys
from pathlib import Path

from graphbimod.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "graphbimod"
GRAPHS = ROOT / "scripts" / "graphs"
DATA = Path(__file__).resolve().parent / "data"

# module-qualified name -> why no CLI run enters it
ALLOWED = {
    "__init__.__getattr__": "resolves graphbimod.<name> on first access; the CLI "
    "imports its modules directly",
    "bimodule._Frozen.__setattr__": "refuses assignment, so that a stored hash stays valid",
    "bimodule._Frozen.__delattr__": "refuses deletion, so that a stored hash stays valid",
    "bimodule.Edge.__eq__": "an Edge equals one with the same fields",
    "bimodule.Edge.__hash__": "an Edge hashes as its fields",
    "bimodule.Edge.__reduce__": "a pickled Edge rehashes in another process",
    "fock.Path.__eq__": "a Path equals one with the same edges and base",
    "fock.Path.__hash__": "a Path hashes as its edges and base",
    "fock.Path.__reduce__": "a pickled Path rehashes in another process",
}

OSCILLATING = {
    "vertices": ["x", "y", "z"],
    "edges": [
        {"id": "p", "r": "x", "s": "y"},
        {"id": "q", "r": "y", "s": "x", "weight": 4.0},
        {"id": "l", "r": "z", "s": "z", "weight": 2.0},
        {"id": "m", "r": "z", "s": "x"},
    ],
}
O10 = {"vertices": ["z"], "edges": [{"id": f"e{i}", "r": "z", "s": "z"} for i in range(10)]}
K20 = {
    "vertices": [f"v{i}" for i in range(20)],
    "edges": [{"id": f"e{i}_{j}", "r": f"v{i}", "s": f"v{j}"} for i in range(20) for j in range(20)],
}
HUGE = {"vertices": ["z"], "edges": [{"id": "a", "r": "z", "s": "z", "weight": 10**400}]}
# the cycle a -> b -> c -> a with a loop at a, two edges of weight 1e-300:
# the Perron vector's entry at c has no double, so (c, c, 0) does not certify
SPREAD = {
    "vertices": ["a", "b", "c"],
    "edges": [
        {"id": "la", "r": "a", "s": "a"},
        {"id": "ab", "r": "b", "s": "a", "weight": 1e-300},
        {"id": "bc", "r": "c", "s": "b", "weight": 1e-300},
        {"id": "ca", "r": "a", "s": "c"},
    ],
}


def _forms(tmp_path):
    """(argv, exit code) of every CLI form: each subcommand on each graph,
    each output option, and each refusal."""
    docs = (("osc", OSCILLATING), ("o10", O10), ("k20", K20), ("huge", HUGE), ("spread", SPREAD))
    for name, doc in docs:
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    (tmp_path / "broken.json").write_text('{"vertices": [')
    graphs = [str(GRAPHS / f"{name}.json") for name in
              ("full_shift_2", "full_shift_3", "golden_mean", "triangular")]
    graphs += [str(DATA / f"{name}.json") for name in
               ("reducible_weighted", "underflow", "weighted_two_vertex")]
    golden, osc = graphs[2], str(tmp_path / "osc.json")
    for graph in graphs + [osc]:
        yield ["index", graph, "--depth", "30"], 0
        yield ["residue", graph, "--target", "2"], 0
        yield ["kms", graph], 0
    for graph in graphs:
        yield ["kasparov", graph, "--depth", "2"], 0
    yield ["index", golden, "--format", "csv", "--timings"], 0
    yield ["residue", golden, "--target", "a,b", "--timings"], 0
    yield ["kasparov", golden, "--timings", "--tol", "1e-9"], 0
    yield ["kms", golden, "--timings", "--format", "csv"], 0
    yield ["kasparov", osc, "--depth", "1"], 0
    yield ["kasparov", str(tmp_path / "spread.json"), "--depth", "0"], 1
    yield ["index", str(tmp_path / "missing.json")], 2
    yield ["index", str(tmp_path / "broken.json")], 2
    yield ["index", str(tmp_path / "huge.json")], 2
    yield ["residue", golden, "--target", "zz"], 2
    yield ["residue", golden, "--target", "1", "--kmax", "5"], 2
    yield ["residue", str(tmp_path / "o10.json"), "--target", "8"], 2
    yield ["kasparov", str(tmp_path / "k20.json"), "--depth", "40"], 2
    yield ["index", golden, "--depth", "-1"], 2
    yield ["kasparov", golden, "--tol", "nan"], 2


def _functions():
    """Each function of the package: its code key -> module-qualified name.

    Module and class bodies, lambdas and comprehensions are not functions
    here; nested functions are.
    """
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), os.path.realpath(path), "exec")]
        while stack:
            code = stack.pop()
            consts = [c for c in code.co_consts if inspect.iscode(c)]
            stack.extend(consts)
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                key = (code.co_filename, code.co_firstlineno, code.co_name)
                found[key] = f"{path.stem}.{code.co_qualname}"
    return found


def test_every_function_is_entered_by_a_cli_run(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        for argv, want in _forms(tmp_path):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            codes.append((argv, code, want))
    finally:
        sys.setprofile(None)
    assert [(argv, code) for argv, code, want in codes if code != want] == []
    keys = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in entered}
    unentered = {name for key, name in _functions().items() if key not in keys}
    assert sorted(unentered) == sorted(ALLOWED)
