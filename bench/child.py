"""Run one graphbimod CLI case in this process and record when it ran.

    python3 bench/child.py OUT_PREFIX TRACE AS_LIMIT_BYTES -- SUBCOMMAND ARGS...
    python3 bench/child.py --probe

The case runs under an address-space limit, so an oversize dense
allocation fails here instead of exhausting the machine.  The report goes
to stdout as usual and the exit code is the CLI's.  At exit the child
writes OUT_PREFIX.json with its time marks (monotonic clock, comparable
with the parent's): `start`, `setup_end` (the first `load_graph` returned,
so the subcommand starts), `emit_end` (the report was written) and `end`.

With TRACE=1 every public function of every graphbimod module is wrapped,
replacing the name in each module that binds it, together with a few
methods and `numpy.linalg.eigh` / `matrix_rank`.  Spans (name, parent,
start, end) are kept in memory and written to OUT_PREFIX.spans at exit as
float64 quadruples; counters derived from arguments and results go into
OUT_PREFIX.json.  Byte and operation counts are computed from array
shapes, not measured.

--probe prints the interpreter, numpy and BLAS thread facts as JSON and
exits; it fails when graphbimod cannot be imported.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("algebra", "bimodule", "fock", "spectral", "cuntz_pimsner", "kms", "cli")
COMPLEX_BYTES = 16


class Recorder:
    """Nested spans in flat float64 storage plus summed and maximal counters."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, name, fn, before=None, after=None):
        """`before(args, kwargs)` runs first; `after(result, args, kwargs)` on success."""
        name_id = float(len(self.names))
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            slot = len(spans)
            spans.extend((name_id, float(stack[-1]) if stack else -1.0, 0.0, 0.0))
            stack.append(slot // 4)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[slot + 3] = clock()
                spans[slot + 2] = start
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced


def _basis_size(module, depth: int) -> int:
    """Size of the depth-limited spanning family, from path counts by source."""
    from checks import paths_by_source

    doc = {"vertices": list(module.vertices), "edges": [{"r": g.r, "s": g.s} for g in module.edges]}
    counts = paths_by_source(doc, depth)
    return sum(sum(c[v] for c in counts) ** 2 for v in doc["vertices"])


def _hooks(rec: Recorder) -> dict:
    """Counters per span name: name -> (before, after)."""

    def after_paths(result, args, kwargs):
        rec.add("fock.paths.items", len(result))

    def after_eta(result, args, kwargs):
        rec.add(f"spectral.eta_tilde.method.{result.method}")

    def after_pf(result, args, kwargs):
        rec.add("spectral.pf_data.iterations", result.iterations)
        rec.add("spectral.pf_data.unconverged", 0 if result.converged else 1)

    def before_residue(args, kwargs):
        self, key = args[0], tuple(args[1:4])
        rec.add("cuntz_pimsner.residue.hits", 1 if key in self._reports else 0)

    def _depth(args, kwargs):
        return kwargs["depth"] if "depth" in kwargs else args[1]

    def before_gram(args, kwargs):
        n = _basis_size(args[0], _depth(args, kwargs))
        rec.peak("cuntz_pimsner.gram.basis_max", n)
        rec.add("cuntz_pimsner.gram.dense_bytes", len(args[0].vertices) * n * n * COMPLEX_BYTES)

    def before_commutator(args, kwargs):
        depth = _depth(args, kwargs)
        cols = _basis_size(args[0], depth)
        rows = _basis_size(args[0], depth + 1)
        # P at depth and depth+1, then edge shift, direct and formula matrices
        dense = cols * cols + rows * rows + 3 * rows * cols
        rec.add("cuntz_pimsner.commutator_check.dense_bytes", dense * COMPLEX_BYTES)

    def before_eigh(args, kwargs):
        n = args[0].shape[-1]
        rec.peak("linalg.eigh.max_n", n)
        rec.add("linalg.eigh.ops", n**3)

    def before_rank(args, kwargs):
        m, n = args[0].shape[-2:]
        rec.peak("linalg.matrix_rank.max_n", max(m, n))
        rec.add("linalg.matrix_rank.ops", m * n * min(m, n))

    return {
        "fock.paths": (None, after_paths),
        "spectral.eta_tilde": (None, after_eta),
        "spectral.pf_data": (None, after_pf),
        "cuntz_pimsner.residue": (before_residue, None),
        "cuntz_pimsner.gram": (before_gram, None),
        "cuntz_pimsner.commutator_check": (before_commutator, None),
        "linalg.eigh": (before_eigh, None),
        "linalg.matrix_rank": (before_rank, None),
    }


def install_tracing(rec: Recorder) -> None:
    import inspect

    import numpy as np

    import graphbimod
    from graphbimod import cuntz_pimsner, spectral

    hooks = _hooks(rec)
    modules = [graphbimod] + [getattr(graphbimod, m) for m in MODULES]

    def wrapped(name, fn):
        before, after = hooks.get(name, (None, None))
        return rec.wrap(name, fn, before, after)

    replacement = {}
    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                replacement[id(obj)] = wrapped(f"{short}.{attr}", obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replacement:
                setattr(mod, attr, replacement[id(obj)])

    methods = (
        (cuntz_pimsner.ConditionalExpectation, "residue", "cuntz_pimsner.residue"),
        (cuntz_pimsner.GramData, "operator_rank", "cuntz_pimsner.operator_rank"),
        (spectral.GrowthTable, "__init__", "spectral.GrowthTable"),
    )
    for cls, attr, name in methods:
        setattr(cls, attr, wrapped(name, getattr(cls, attr)))
    np.linalg.eigh = wrapped("linalg.eigh", np.linalg.eigh)
    np.linalg.matrix_rank = wrapped("linalg.matrix_rank", np.linalg.matrix_rank)


def install_marks(cli, marks: dict) -> None:
    """Outermost wrappers on load_graph and emit that stamp the phase ends."""
    load, emit = cli.load_graph, cli.emit

    def load_graph(*args, **kwargs):
        try:
            return load(*args, **kwargs)
        finally:
            marks.setdefault("setup_end", time.monotonic())

    def emitted(*args, **kwargs):
        try:
            return emit(*args, **kwargs)
        finally:
            sys.stdout.flush()
            marks["emit_end"] = time.monotonic()

    cli.load_graph, cli.emit = load_graph, emitted


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def probe() -> int:
    import platform

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy

    import graphbimod.cli  # noqa: F401  (fails when the program is missing)

    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
    }))
    return 0


def main(argv: list[str]) -> int:
    if argv[1:] == ["--probe"]:
        return probe()
    out_prefix, trace, limit = argv[1], argv[2] == "1", int(argv[3])
    if argv[4] != "--":
        raise SystemExit("usage: child.py OUT_PREFIX TRACE AS_LIMIT_BYTES -- ARGS...")
    marks = {"start": time.monotonic()}
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    rec = Recorder() if trace else None
    try:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from graphbimod import cli

        if rec is not None:
            install_tracing(rec)
        install_marks(cli, marks)
        return cli.main(argv[5:])
    finally:
        marks["end"] = time.monotonic()
        doc = {"marks": marks}
        if rec is not None:
            doc.update(names=rec.names, counts=rec.counts, maxima=rec.maxima)
            with open(out_prefix + ".spans", "wb") as fh:
                rec.spans.tofile(fh)
        with open(out_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
