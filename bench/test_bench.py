"""Tests of the benchmark's generators, checkers and child recorder.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import graphs  # noqa: E402
import run  # noqa: E402
from graphbimod import cli  # noqa: E402


def _write(doc, tmp_path, name="g.json"):
    path = tmp_path / name
    graphs.write_graph(doc, str(path))
    return str(path)


def _report(tmp_path, doc, *args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([args[0], _write(doc, tmp_path), *args[1:]])
    return rc, json.loads(buf.getvalue())


# -- generators ------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(run.load_spec()["workloads"]))
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        run.build_workload(workload, 7, str(tmp_path / sub))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_other_seed_gives_other_random_graphs(tmp_path):
    docs = [run.build_workload("random-kms", seed, str(tmp_path))[1] for seed in (1, 2)]
    assert docs[0]["rand1"] != docs[1]["rand1"]


def test_generators_keep_their_structure():
    rng = random.Random(3)
    o3 = graphs.full_shift(3, rng)
    assert len(o3["vertices"]) == 1 and len(o3["edges"]) == 3
    assert graphs.is_primitive(graphs.golden_mean(rng))
    chain = graphs.reducible_chain([1, 1, 1], rng)
    assert graphs.has_no_sources_or_sinks(chain) and not graphs.is_strongly_connected(chain)
    assert not graphs.is_primitive(chain)
    for _ in range(20):
        doc = graphs.random_graph(6, 2, rng)
        assert graphs.has_no_sources_or_sinks(doc) and graphs.is_strongly_connected(doc)
        assert len(doc["edges"]) == 12
        assert [sum(c.values()) for c in checks.paths_by_source(doc, 6)] == [6 * 2**k for k in range(7)]
        assert graphs.is_primitive(graphs.random_graph(6, 2, rng, primitive=True))


def test_structure_predicates_reject_counterexamples():
    cycle = {"vertices": ["a", "b"], "edges": [
        {"id": "x", "r": "a", "s": "b"}, {"id": "y", "r": "b", "s": "a"}]}
    assert graphs.is_strongly_connected(cycle) and not graphs.is_primitive(cycle)
    sink = {"vertices": ["a", "b"], "edges": [{"id": "x", "r": "a", "s": "a"}, {"id": "y", "r": "a", "s": "b"}]}
    assert not graphs.has_no_sources_or_sinks(sink)
    with pytest.raises(ValueError):
        graphs.random_graph(6, 0, random.Random(0))


def test_generated_graphs_load_in_the_cli(tmp_path):
    _, docs = run.build_workload("reducible-residue", 1, str(tmp_path))
    for key in docs:
        module = cli.load_graph(str(tmp_path / f"{key}.json"))
        assert len(module.vertices) == len(docs[key]["vertices"])


def test_weighted_random_graph_overflows_at_depth_700(tmp_path):
    _, docs = run.build_workload("random-kms", 5, str(tmp_path))
    assert max(checks.exact_levels(docs["wrand6"], 700)[-1]) > sys.float_info.max


# -- checkers: real reports pass, corrupted ones are flagged ------------------------


@pytest.fixture()
def golden():
    return graphs.golden_mean(random.Random(0))


def test_index_check(golden, tmp_path):
    rc, rep = _report(tmp_path, golden, "index", "--depth", "12")
    assert rc == 0 and checks.check_report("index", golden, 12, rep) == []
    bad = copy.deepcopy(rep)
    v = golden["vertices"][0]
    bad["levels"]["12"][v] *= 1 + 1e-9
    assert checks.check_report("index", golden, 12, bad)
    bad["levels"]["12"][v] = "inf"
    assert checks.check_report("index", golden, 12, bad)
    del rep["levels"]["12"]
    assert checks.check_report("index", golden, 12, rep)


def test_residue_check(golden, tmp_path):
    rc, rep = _report(tmp_path, golden, "residue", "--target", "2")
    assert rc == 0 and checks.check_report("residue", golden, 2, rep) == []
    bad = copy.deepcopy(rep)
    bad["paths"][0]["value"] *= 1 + 1e-6
    assert checks.check_report("residue", golden, 2, bad)
    bad = copy.deepcopy(rep)
    bad["paths"].pop()
    assert checks.check_report("residue", golden, 2, bad)
    bad = copy.deepcopy(rep)
    bad["classes"][0]["converged"] = False
    assert checks.check_report("residue", golden, 2, bad)
    bad = copy.deepcopy(rep)
    bad["paths"][0]["edges"] = bad["paths"][0]["edges"][::-1] + ["nope"]
    assert checks.check_report("residue", golden, 2, bad)


def test_residue_check_weighs_paths():
    doc = {"vertices": ["u"], "edges": [
        {"id": "a", "r": "u", "s": "u", "weight": 3}, {"id": "b", "r": "u", "s": "u"}]}
    rows = [{"path": i, "edges": [i], "range": "u", "source": "u", "value": 0.25} for i in "ab"]
    rep = {"command": "residue", "classes": [{"converged": True}], "paths": rows}
    assert checks.check_report("residue", doc, 1, rep) == []
    rows[1]["value"] = 0.75
    assert checks.check_report("residue", doc, 1, rep)


def test_kasparov_check(golden, tmp_path):
    rc, rep = _report(tmp_path, golden, "kasparov", "--depth", "1")
    assert rc == 0 and checks.check_report("kasparov", golden, 1, rep) == []
    assert rep["basis_size"] == 3 ** 2 + 2 ** 2  # paths of length <= 1 by source
    assert checks.check_report("kasparov", golden, 1, {**rep, "basis_size": rep["basis_size"] - 1})
    assert checks.check_report("kasparov", golden, 1, {**rep, "failures": ["x"]})
    assert checks.check_report("index", golden, 1, rep)


def test_kms_check(tmp_path):
    doc = graphs.random_graph(5, 2, random.Random(4))
    rc, rep = _report(tmp_path, doc, "kms", "--pairs", "5")
    assert rc == 0 and checks.check_report("kms", doc, 0, rep) == []
    v = sorted(rep["generators"][0])[0]
    bad = copy.deepcopy(rep)
    bad["generators"][0][v] = "1/3"
    assert checks.check_report("kms", doc, 0, bad)
    bad["generators"][0][v] = "-" + rep["generators"][0][v]
    assert checks.check_report("kms", doc, 0, bad)
    assert checks.check_report("kms", doc, 0, {**rep, "generators": []})


def test_kms_trace_equation_is_checked_exactly():
    # index 2 at u and 1 at v; the trace equation forces equal weights
    doc = {"vertices": ["u", "v"], "edges": [
        {"id": "a", "r": "u", "s": "u"}, {"id": "b", "r": "u", "s": "v"}, {"id": "c", "r": "v", "s": "u"}]}
    rep = {"command": "kms", "feasible": True, "generators": [{"u": "1/2", "v": "1/2"}]}
    assert checks.check_report("kms", doc, 0, rep) == []
    rep["generators"] = [{"u": "1/3", "v": "2/3"}]
    assert checks.check_report("kms", doc, 0, rep)


# -- child recorder --------------------------------------------------------------


def _traced_case(tmp_path, doc, tag, *args):
    prefix = str(tmp_path / tag)
    argv = [sys.executable, run.CHILD, prefix, "1", str(run.AS_LIMIT), "--",
            args[0], _write(doc, tmp_path, f"{tag}.json"), *args[1:]]
    proc = subprocess.run(argv, capture_output=True, env=run._child_env(), timeout=120)
    with open(prefix + ".json", encoding="utf-8") as fh:
        child = json.load(fh)
    return proc, child, run._load_trace(prefix, child)


def test_traced_child_records_spans_and_repeatable_counts(golden, tmp_path):
    first = _traced_case(tmp_path, golden, "one", "kasparov", "--depth", "1")
    second = _traced_case(tmp_path, golden, "two", "kasparov", "--depth", "1")
    proc, child, trace = first
    assert proc.returncode == 0
    marks = child["marks"]
    assert marks["start"] <= marks["setup_end"] <= marks["emit_end"] <= marks["end"]
    spans = trace["spans"]
    assert spans["cli.main"]["calls"] == 1
    assert spans["cuntz_pimsner.gram"]["calls"] >= 1 and spans["linalg.eigh"]["calls"] >= 1
    assert 0 <= spans["cli.main"]["self_s"] <= spans["cli.main"]["s"]
    assert trace["counts"]["spectral.eta_tilde.method.closed_form"] >= 1
    # the commutator check builds the Gram at depth 2: 6 and 4 paths by source
    assert trace["maxima"]["cuntz_pimsner.gram.basis_max"] == 6 ** 2 + 4 ** 2
    assert trace["counts"] == second[2]["counts"] and trace["maxima"] == second[2]["maxima"]
    assert {n: a["calls"] for n, a in spans.items()} == {n: a["calls"] for n, a in second[2]["spans"].items()}


def test_run_case_checks_reports_and_counts_the_timeout(golden, tmp_path, monkeypatch):
    graphs.write_graph(golden, str(tmp_path / "golden.json"))
    graphs.write_graph(graphs.full_shift(3, random.Random(0)), str(tmp_path / "O3.json"))
    deadline = time.monotonic() + 100
    ok = run.run_case(run.Case("ok", "kasparov", "golden", 1, ["--depth", "1"]), golden,
                      str(tmp_path), "ok", False, deadline)
    assert not ok.failed and 0 < ok.setup < ok.wall and 0 < ok.compute < ok.wall
    monkeypatch.setattr(run, "CASE_TIMEOUT", 1.0)
    slow = run.run_case(run.Case("slow", "kasparov", "O3", 3, ["--depth", "3"]), None,
                        str(tmp_path), "slow", False, deadline)
    assert slow.failed and "timeout" in slow.problems[0]
    assert slow.compute == 1.0 and slow.wall < 10
