import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import TINY_CHAIN, exact_ratio, fraction_levels
from dense_spectral import rate_constants, verify_rate_certificate

from graphbimod import bimodule, cli, cuntz_pimsner, fock, kms, spectral
from graphbimod.cli import main

ROOT = Path(__file__).resolve().parents[1]
GRAPHS = ROOT / "scripts" / "graphs"
DATA = Path(__file__).resolve().parent / "data"
BUNDLED = ["full_shift_2", "full_shift_3", "golden_mean", "triangular"]

GOLDEN = {
    "vertices": ["u", "v"],
    "edges": [
        {"id": "a", "r": "u", "s": "u"},
        {"id": "b", "r": "u", "s": "v"},
        {"id": "c", "r": "v", "s": "u"},
    ],
}

FULL_SHIFT = {
    "vertices": ["z"],
    "edges": [
        {"id": "a", "range": "z", "source": "z"},
        {"id": "b", "range": "z", "source": "z"},
    ],
}

# the `oscillating` graph of conftest.py: the class (z, z, 1) tends to 1/2
# with a period-2 ripple of order 1/k, which no extrapolation of its column
# certifies; its limit is 1/2 exactly
OSCILLATING = {
    "vertices": ["x", "y", "z"],
    "edges": [
        {"id": "p", "r": "x", "s": "y"},
        {"id": "q", "r": "y", "s": "x", "weight": 4.0},
        {"id": "l", "r": "z", "s": "z", "weight": 2.0},
        {"id": "m", "r": "z", "s": "x"},
    ],
}


# the class (v2, v1, 1) tends to 1 like 1 - 2/k with a period-2 ripple,
# which no extrapolation of its column certified; its limit is 1 exactly
RIPPLE = {
    "vertices": ["v0", "v1", "v2", "v3"],
    "edges": [
        {"id": f"e{i}", "r": r, "s": s}
        for i, (r, s) in enumerate(
            [("v0", "v0"), ("v3", "v0"), ("v2", "v0"), ("v2", "v1"),
             ("v1", "v2"), ("v3", "v2"), ("v3", "v3")]
        )
    ],
}


@pytest.fixture
def golden_file(tmp_path):
    p = tmp_path / "golden.json"
    p.write_text(json.dumps(GOLDEN))
    return str(p)


@pytest.fixture
def shift_file(tmp_path):
    p = tmp_path / "shift.json"
    p.write_text(json.dumps(FULL_SHIFT))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_index_report_fields(capsys, golden_file):
    code, out, err = run(capsys, "index", golden_file, "--depth", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["index"] == {"u": 2.0, "v": 1.0}
    assert doc["central"] is False
    assert doc["levels"]["3"] == {"u": 5.0, "v": 3.0}
    assert "central_collapse_max_error" not in doc


def test_index_central_collapse_verified(capsys, shift_file):
    code, out, _ = run(capsys, "index", shift_file, "--depth", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["central"] is True
    assert doc["central_collapse_max_error"] == 0.0
    assert doc["levels"]["6"] == {"z": 64.0}


def test_index_takes_no_tolerance_and_fails_a_collapse_gap(capsys, monkeypatch, shift_file):
    # on a central index A^k 1 = (D beta)^k holds exactly, so a tolerance
    # would decide nothing, and any gap fails the run
    with pytest.raises(SystemExit) as exc:
        main(["index", shift_file, "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err
    levels = fock.index_levels

    def off_at_3(module):
        for k, vec in enumerate(levels(module)):
            yield [x + (k == 3) for x in vec]

    monkeypatch.setattr(fock, "index_levels", off_at_3)
    code, out, _ = run(capsys, "index", shift_file, "--depth", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["parameters"] == {"depth": 4}
    # the gap 9 - 2^3 relative to the level
    assert doc["central_collapse_max_error"] == 0.125
    assert doc["failures"] == ["central collapse error 0.125 is not zero"]


def test_index_central_collapse_is_relative_past_2_53(capsys, tmp_path):
    # 3^40 exceeds 2^53, so the float levels differ from the powers in
    # absolute terms; relative to the level the error is round-off
    o3 = {"vertices": ["z"], "edges": [{"id": e, "r": "z", "s": "z"} for e in "abc"]}
    p = tmp_path / "o3.json"
    p.write_text(json.dumps(o3))
    code, out, _ = run(capsys, "index", str(p), "--depth", "40")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    assert doc["central_collapse_max_error"] < 1e-14


def test_residue_degree_mode_lists_paths(capsys, shift_file):
    code, out, _ = run(capsys, "residue", shift_file, "--target", "3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["paths"]) == 8
    assert all(row["value"] == 0.125 for row in doc["paths"])
    assert len(doc["classes"]) == 1
    assert doc["classes"][0]["method"] == "closed_form"


def test_residue_edge_target(capsys, golden_file):
    code, out, _ = run(capsys, "residue", golden_file, "--target", "c")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["paths"]) == 1
    row = doc["paths"][0]
    assert row["path"] == "c"
    assert row["range"] == "v"
    assert row["source"] == "u"
    assert row["value"] == pytest.approx(1.0, abs=1e-12)


def test_residue_bad_target_exits_2(capsys, golden_file):
    code, _, err = run(capsys, "residue", golden_file, "--target", "zz")
    assert code == 2
    assert "bad target" in err


def test_residue_row_limit_exits_before_listing(capsys, tmp_path):
    # O10 has 10^8 paths of length 8, one report row each
    p = tmp_path / "o10.json"
    edges = [{"id": f"e{i}", "r": "z", "s": "z"} for i in range(10)]
    p.write_text(json.dumps({"vertices": ["z"], "edges": edges}))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "residue", str(p), "--target", "8")
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == ""
    assert f"needs {10**8} paths of length 8" in err
    assert f"limit of {cli.RESIDUE_MAX_ROWS} rows" in err
    assert elapsed < 1.0


def test_residue_kmax_below_the_target_exits_before_listing(capsys, monkeypatch, tmp_path):
    # a class of length n needs k_max >= n + 8; on one loop, the paths of
    # --target 40000 were listed before the refusal, in 3.4 s
    p = tmp_path / "loop.json"
    p.write_text(json.dumps({"vertices": ["z"], "edges": [{"id": "l", "r": "z", "s": "z"}]}))

    def unreached(*args):
        raise AssertionError("paths enumerated")

    monkeypatch.setattr(fock, "path_counts", unreached)
    monkeypatch.setattr(fock, "paths", unreached)
    for target, n in (("40000", 40000), ("193", 193), (",".join(["l"] * 193), 193)):
        code, out, err = run(capsys, "residue", str(p), "--target", target)
        assert (code, out) == (2, "")
        assert err == (
            f"error: k_max 200 too small for the requested length {n}: "
            f"it needs k_max >= {n + 8}\n"
        )
    monkeypatch.undo()
    code, _, _ = run(capsys, "residue", str(p), "--target", "192")
    assert code == 0


def test_residue_small_kmax_reports_the_exact_limit(capsys, tmp_path):
    # a limit reads no growth ratio, so k_max only bounds the samples and
    # the fit: k_max 9 to 15, which left the class (z, z, 1) of the
    # oscillating graph fewer than four extrapolation nodes, report its 1/2
    p = tmp_path / "oscillating.json"
    p.write_text(json.dumps(OSCILLATING))
    for kmax in (9, 10, 12, 15, 16):
        code, out, err = run(capsys, "residue", str(p), "--target", "1", "--kmax", str(kmax))
        assert (code, err) == (0, "")
        (zz,) = [c for c in json.loads(out)["classes"] if c["target"]["source"] == "z"]
        assert (zz["value"], zz["converged"], zz["method"]) == (0.5, True, "exact")


# a primitive graph whose adjacency is not normal: its normalized powers
# tend to an oblique Perron projection, not to the orthogonal one that the
# rate constants bound, and the certificate failed at k = 1 by 2.6e12;
# no report prints a rate constant, and the test oracle gives none here
NON_NORMAL = {
    "vertices": ["u", "v", "w"],
    "edges": [
        {"id": i, "r": r, "s": s}
        for i, r, s in [("a", "u", "u"), ("b", "u", "v"), ("c", "v", "w"),
                        ("d", "w", "u"), ("e", "u", "w"), ("f", "w", "w")]
    ],
}


def test_residue_prints_no_rate_for_a_non_normal_graph(capsys, tmp_path):
    p = tmp_path / "non_normal.json"
    p.write_text(json.dumps(NON_NORMAL))
    code, out, _ = run(capsys, "residue", str(p), "--target", "1")
    assert code == 0
    classes = json.loads(out)["classes"]
    assert len(classes) == 6
    assert all(c["method"] == "closed_form" and "rate_alpha" not in c for c in classes)
    module = cli.load_graph(str(p))
    assert rate_constants(module) is None
    with pytest.raises(ValueError, match="not normal"):
        verify_rate_certificate(module)


def test_kasparov_clean_run(capsys, golden_file):
    code, out, _ = run(capsys, "kasparov", golden_file, "--depth", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    assert "projection" not in doc and "hermitian_defect" not in doc["gram"]
    assert doc["gram"]["isometry_defect"] == 0.0
    assert all(c["matches"] for c in doc["commutators"])


# a loop at a and the cycle a -> b -> c -> a, whose first two edges weigh
# 1e-300: the Perron vector's entry at c, about 1e-600, has no double
SPREAD_CYCLE = {
    "vertices": ["a", "b", "c"],
    "edges": [
        {"id": "la", "r": "a", "s": "a"},
        {"id": "ab", "r": "b", "s": "a", "weight": 1e-300},
        {"id": "bc", "r": "c", "s": "b", "weight": 1e-300},
        {"id": "ca", "r": "a", "s": "c"},
    ],
}


def test_kasparov_propagates_uncertified_residues(capsys, tmp_path):
    # the oscillating graph certifies: its (z, z, 1) is 1/2 exactly, and
    # with the no-limit loop of weight 1 the parity mean 41/80
    p = tmp_path / "osc.json"
    for loop, want in ((2.0, 0.5), (1.0, 0.5125)):
        doc = json.loads(json.dumps(OSCILLATING))
        doc["edges"][2]["weight"] = loop
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "kasparov", str(p), "--depth", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["failures"] == []
        code, out, _ = run(capsys, "residue", str(p), "--target", "l")
        (cls,) = json.loads(out)["classes"]
        assert (cls["value"], cls["converged"], cls["method"]) == (want, True, "exact")
    # a class that does not certify fails the run, at the vacuum of c
    p.write_text(json.dumps(SPREAD_CYCLE))
    code, out, err = run(capsys, "kasparov", str(p), "--depth", "0")
    assert (code, err) == (1, "")
    assert json.loads(out)["failures"] == [
        "residue limit for class ('c', 'c', 0) did not converge (method closed_form)"
    ]


def test_kasparov_reports_uncertified_commutator_residues(capsys, tmp_path):
    # the commutator of e3 reads the class (v2, v1, 1), which certifies at 1
    p = tmp_path / "ripple.json"
    p.write_text(json.dumps(RIPPLE))
    for depth in ("0", "1", "2"):
        code, out, err = run(capsys, "kasparov", str(p), "--depth", depth)
        assert (code, err) == (0, "")
        assert json.loads(out)["failures"] == []
    code, out, _ = run(capsys, "residue", str(p), "--target", "e3")
    (cls,) = json.loads(out)["classes"]
    assert (cls["target"], cls["value"], cls["converged"]) == (
        {"range": "v2", "source": "v1", "length": 1}, 1.0, True
    )


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_kasparov_reads_residue_classes_up_to_depth_only(capsys, monkeypatch, name, depth):
    # the Gram pivots and the one-row commutators read classes of length
    # at most the depth, so no class of length depth+1 is ever solved
    made = []

    class Recorded(cuntz_pimsner.ConditionalExpectation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(cuntz_pimsner, "ConditionalExpectation", Recorded)
    code, _, _ = run(capsys, "kasparov", str(GRAPHS / f"{name}.json"), "--depth", str(depth))
    assert code == 0
    assert len(made) == 1 and made[0]._reports
    assert max(n for _, _, n in made[0]._reports) <= depth


def test_kasparov_passes_a_positive_reducible_weighted_gram(capsys):
    # (v2, v2, 1) is 1/0.1 at every k; a normalized float table gave it
    # 3.2e-9 too high, which broke the harmonic pivots
    graph = str(DATA / "reducible_weighted.json")
    code, out, err = run(capsys, "kasparov", graph, "--depth", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["failures"] == []
    code, out, _ = run(capsys, "residue", graph, "--target", "e5")
    assert json.loads(out)["classes"][0]["value"] == float(1 / Fraction(0.1))


# on TINY_CHAIN the class (c, a, 2) has ratio near 1e600
def test_growth_table_past_its_limits_exits_2(capsys, tmp_path):
    p = tmp_path / "chain.json"
    p.write_text(json.dumps(TINY_CHAIN))
    # about 3 * 1050 * k^2 / 2 level bits pass 2^29 at k = 585
    code, out, err = run(capsys, "residue", str(p), "--target", "1", "--kmax", "2000")
    assert (code, out) == (2, "")
    assert err == (
        "error: the index levels to k_max 2000 pass the limit of 536870912 "
        "bits (64 MiB, about 1 s and 100 MiB) at level 585\n"
    )
    # the limit of (c, a, 2) is past the double range too, on both routes
    for argv in (["residue", "--target", "2", "--kmax", "40"], ["kasparov", "--depth", "2"]):
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert (code, out) == (2, "")
        assert err == "error: class ('c', 'a', 2): growth ratio past the double range\n"


@pytest.mark.parametrize("argv", [["residue", "--target", "2"], ["kasparov", "--depth", "2"]])
def test_limit_past_the_double_range_exits_2(capsys, tmp_path, argv):
    # one loop of weight 1e-300: the class (z, z, 2) is 1e600
    p = tmp_path / "faint_loop.json"
    loop = {"id": "l", "r": "z", "s": "z", "weight": 1e-300}
    p.write_text(json.dumps({"vertices": ["z"], "edges": [loop]}))
    code, out, err = run(capsys, argv[0], str(p), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: class ('z', 'z', 2): growth ratio past the double range\n"


def test_kasparov_commutator_norm_is_scaled(capsys, tmp_path):
    # weights 1e-300 and 0.1-1 with the limit (v0, v0, 2) = 6.25e299: the
    # cell of e0 has a sum of squared weights of 1e-600 and (w_g c)^2 is
    # past the double range, so an unscaled norm was inf * 0 = nan, rank 0
    # against the predicted 1.  Scaled by the cell's greatest weight, each
    # term w_g c (greatest weight) is of order one
    p = tmp_path / "spread.json"
    edges = [("e0", "v1", "v0", 1e-300), ("e1", "v0", "v1", 0.1),
             ("e2", "v0", "v1", 0.5), ("e3", "v0", "v1", 1.0)]
    p.write_text(json.dumps({
        "vertices": ["v0", "v1"],
        "edges": [{"id": i, "r": r, "s": s, "weight": w} for i, r, s, w in edges],
    }))
    code, out, err = run(capsys, "kasparov", str(p), "--depth", "2")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["failures"] == []
    assert [(c["edge"], c["total_rank"], c["predicted_total"]) for c in doc["commutators"]] == [
        ("e0", 1, 1), ("e1", 1, 1), ("e2", 1, 1), ("e3", 1, 1)
    ]


def test_kasparov_negative_pivot_exits_1(capsys, monkeypatch, golden_file):
    # with every residue 1, the vacuum block of u has the pivot
    # c(u) - c(a) - c(b) = -1 at rho = (): the class (u, u, 0) has the
    # harmonic defect h = -1, and |h| / c = 1 fails the certificate
    monkeypatch.setattr(
        cuntz_pimsner.ConditionalExpectation, "limit", lambda self, r, s, n: 1.0
    )
    code, out, _ = run(capsys, "kasparov", golden_file, "--depth", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["gram"]["harmonic_defect"] == 1.0
    assert doc["failures"] == ["gram not certified: harmonic defect 1.0"]


def test_kasparov_commutator_off_its_prediction_exits_1(capsys, monkeypatch, golden_file):
    # residues of 9e-11 past the vacuum: no entry of a commutator row
    # passes the rank tolerance 1e-10, so rank 0 is predicted, but at
    # depth 2 each row has two or three entries, whose norm passes it.
    # They are not harmonic either: (u, u, 1) has c = 9e-11 and two edges
    # into u, so h = -9e-11 and |h| / c = 1
    monkeypatch.setattr(
        cuntz_pimsner.ConditionalExpectation,
        "limit",
        lambda self, r, s, n: 1.0 if n == 0 else 9e-11,
    )
    code, out, _ = run(capsys, "kasparov", golden_file, "--depth", "2")
    assert code == 1
    doc = json.loads(out)
    assert [(c["edge"], c["total_rank"], c["predicted_total"]) for c in doc["commutators"]] == [
        ("a", 1, 0), ("b", 1, 0), ("c", 1, 0)
    ]
    assert doc["failures"] == ["gram not certified: harmonic defect 1.0"] + [
        f"commutator {g}: rank 1 != predicted 0" for g in "abc"
    ]


def test_kms_report(capsys, golden_file):
    code, out, _ = run(capsys, "kms", golden_file, "--pairs", "40")
    assert code == 0
    doc = json.loads(out)
    assert doc["canonical"] == {"u": "1/2", "v": "1/2"}
    assert doc["dimension"] == 0
    assert doc["descent_residual"] == "0"
    by_path = {r["path"]: r["value"] for r in doc["phi_d"]}
    assert by_path["c"] == 0.5
    assert by_path["a.b"] == 0.125
    lengths = {r["length"] for r in doc["phi_d"]}
    assert lengths == {0, 1, 2}


def test_kms_infeasible_graph_reports_and_passes(capsys, tmp_path):
    p = tmp_path / "osc.json"
    p.write_text(json.dumps(OSCILLATING))
    code, out, _ = run(capsys, "kms", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert "canonical" not in doc


def test_kms_reports_a_ray_per_distinguished_class(capsys, tmp_path):
    # one weakly connected graph, two extreme rays: the loops at x and y
    # each feed z
    graph = {
        "vertices": ["x", "y", "z"],
        "edges": [
            {"id": "a", "r": "x", "s": "x"},
            {"id": "b", "r": "y", "s": "y"},
            {"id": "c", "r": "z", "s": "x"},
            {"id": "d", "r": "z", "s": "y"},
            {"id": "e", "r": "z", "s": "z"},
        ],
    }
    p = tmp_path / "two_rays.json"
    p.write_text(json.dumps(graph))
    code, out, _ = run(capsys, "kms", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 1
    assert doc["generators"] == [
        {"x": "2/3", "y": "0", "z": "1/3"},
        {"x": "0", "y": "2/3", "z": "1/3"},
    ]
    assert doc["canonical"] == {"x": "1/3", "y": "1/3", "z": "1/3"}
    assert doc["descent_residual"] == "0"
    assert doc["failures"] == []


def test_kms_trace_that_breaks_descent_exits_1(capsys, monkeypatch, golden_file):
    # (1, 0) is a state on the golden mean but not invariant: at u,
    # 1 * index(u) = 2 against w_u + w_v = 1 over the edges into u
    from graphbimod.kms import TraceFamily, TraceState

    def wrong(module):
        w = {"u": Fraction(1), "v": Fraction(0)}
        return TraceFamily(module, 0, (w,), TraceState(module, w), True)

    monkeypatch.setattr(kms, "invariant_traces", wrong)
    code, out, _ = run(capsys, "kms", golden_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["descent_residual"] == "1"
    assert doc["failures"] == [
        "generator 0 breaks descent: residual 1",
        "canonical breaks descent: residual 1",
    ]


def test_kms_timings_report_stages_and_counters(capsys, golden_file, tmp_path):
    _, plain, _ = run(capsys, "kms", golden_file, "--pairs", "40")
    code, out, _ = run(capsys, "kms", golden_file, "--pairs", "40", "--timings")
    assert code == 0
    doc = json.loads(out)
    timings = doc.pop("timings")
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == plain
    assert set(timings) == {"seconds", "stages", "counters"}
    assert set(timings["stages"]) == {"trace_solve", "certificate"}
    assert all(t >= 0 for t in timings["stages"].values())
    assert timings["counters"] == {}
    # with no invariant trace only the solve runs
    p = tmp_path / "osc.json"
    p.write_text(json.dumps(OSCILLATING))
    _, out, _ = run(capsys, "kms", str(p), "--timings")
    timings = json.loads(out)["timings"]
    assert set(timings["stages"]) == {"trace_solve"}
    assert timings["counters"] == {}


def test_index_timings_report_stages_and_counters(capsys, golden_file, shift_file):
    for graph, central in ((golden_file, False), (shift_file, True)):
        _, plain, _ = run(capsys, "index", graph, "--depth", "5")
        code, out, _ = run(capsys, "index", graph, "--depth", "5", "--timings")
        assert code == 0
        doc = json.loads(out)
        timings = doc.pop("timings")
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == plain
        assert set(timings) == {"seconds", "stages", "counters"}
        # the collapse check runs only on a central index
        stages = {"levels", "central_collapse"} if central else {"levels"}
        assert set(timings["stages"]) == stages
        assert all(t >= 0 for t in timings["stages"].values())
        assert timings["counters"] == {"depth": 5}


def test_residue_timings_report_stages_and_counters(capsys, tmp_path):
    p = tmp_path / "osc.json"
    p.write_text(json.dumps(OSCILLATING))
    _, plain, _ = run(capsys, "residue", str(p), "--target", "1")
    code, out, _ = run(capsys, "residue", str(p), "--target", "1", "--timings")
    assert code == 0
    doc = json.loads(out)
    timings = doc.pop("timings")
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == plain
    assert set(timings) == {"seconds", "stages", "counters"}
    assert set(timings["stages"]) == {"growth_table", "classes"}
    assert all(t >= 0 for t in timings["stages"].values())
    # one class per edge, each certified; (z, x, 1) is on a growth gap
    assert [c["method"] for c in doc["classes"]] == ["exact", "exact", "structural_zero", "exact"]
    # level_bits: the bit lengths of the exact levels A^k 1, k <= 200
    assert timings["counters"] == {
        "classes": 4,
        "method": {"exact": 3, "structural_zero": 1},
        "level_bits": 61788,
    }


def test_kasparov_timings_report_stages_and_counters(capsys, monkeypatch, golden_file):
    builds = []
    index_levels = fock.index_levels

    def counted(module):
        builds.append(module)
        return index_levels(module)

    monkeypatch.setattr(fock, "index_levels", counted)
    monkeypatch.setattr(spectral, "index_levels", counted)
    _, plain, _ = run(capsys, "kasparov", golden_file, "--depth", "2")
    code, out, _ = run(capsys, "kasparov", golden_file, "--depth", "2", "--timings")
    assert code == 0
    doc = json.loads(out)
    timings = doc.pop("timings")
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == plain
    assert set(timings) == {"seconds", "stages", "counters"}
    assert set(timings["stages"]) == {"gram"}
    assert all(t >= 0 for t in timings["stages"].values())
    # paths of length at most 2 by source: 6 at u and 4 at v, so 6² + 4²
    # symbols; they fall in 30 blocks, which have 15 residue classes
    assert timings["counters"] == {"basis": 52, "blocks": 30, "classes": 15}
    # the limits come from the condensation, on a reducible graph too: no
    # growth level is built
    code, out, _ = run(capsys, "kasparov", str(GRAPHS / "triangular.json"), "--depth", "2", "--timings")
    assert code == 0
    assert json.loads(out)["timings"]["counters"] == {"basis": 45, "blocks": 28, "classes": 14}
    for graph in (GRAPHS / "triangular.json", DATA / "reducible_weighted.json"):
        code, out, _ = run(capsys, "kasparov", str(graph), "--depth", "40")
        assert code == 0 and json.loads(out)["failures"] == []
    assert builds == []


def test_reports_are_byte_identical(capsys, golden_file):
    _, out1, _ = run(capsys, "kms", golden_file)
    _, out2, _ = run(capsys, "kms", golden_file)
    assert out1 == out2


def test_csv_format(capsys, golden_file):
    code, out, _ = run(capsys, "index", golden_file, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("index.u,") for line in lines)


def clean(obj):
    """The report as the stdlib encoder takes it: string keys, lists, and
    each Fraction or non-finite float as a string."""
    if isinstance(obj, dict):
        return {str(k): clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [clean(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    return obj


report_leaves = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f\n\t", "\u00e9\u2192\U0001f600", ""]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan]),
    st.fractions(),
)
reports = st.recursive(
    report_leaves,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers(), st.booleans(), st.none()), inner),
    ),
    max_leaves=40,
)


@given(reports)
@settings(max_examples=300, deadline=None)
def test_emit_matches_the_stdlib_encoder_on_the_cleaned_report(tree):
    doc = {"report": tree, 7: [tree, (tree,)]}
    emitted = {}
    for fmt in ("json", "csv"):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            cli.emit(doc, fmt)
        emitted[fmt] = buf.getvalue()
    assert emitted["json"] == json.dumps(clean(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"
    rows = []
    cli._flatten(clean(doc), "", rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([("key", "value"), *rows])
    assert emitted["csv"] == buf.getvalue()


def test_parse_error_names_the_line(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"vertices": ["u"],\n  "edges": [\n')
    code, _, err = run(capsys, "index", str(p))
    assert code == 2
    assert "line 3" in err or "line 2" in err


def test_missing_key_reported(capsys, tmp_path):
    p = tmp_path / "nokey.json"
    p.write_text(json.dumps({"vertices": ["u"], "edges": [{"id": "a", "r": "u"}]}))
    code, _, err = run(capsys, "index", str(p))
    assert code == 2
    assert "missing key 's'" in err


def test_unknown_vertex_reported(capsys, tmp_path):
    p = tmp_path / "dangle.json"
    p.write_text(
        json.dumps(
            {"vertices": ["u"], "edges": [{"id": "a", "r": "u", "s": "ghost"}]}
        )
    )
    code, _, err = run(capsys, "index", str(p))
    assert code == 2
    assert "unknown vertex 'ghost'" in err


def test_integer_weight_past_the_double_range_exits_2(capsys, tmp_path):
    # JSON reads 10**400 as an int, which has no float; 1e400 reads as inf
    p = tmp_path / "huge.json"
    for weight, message in ((10**400, "edges[0].weight is past the double range"),
                            (1e400, "edges[0]: edge 'a' has non-finite weight")):
        edges = [{"id": "a", "r": "z", "s": "z", "weight": weight}]
        p.write_text(json.dumps({"vertices": ["z"], "edges": edges}).replace("Infinity", "1e400"))
        code, out, err = run(capsys, "index", str(p))
        assert (code, out) == (2, "")
        assert err == f"error: {p}: {message}\n"


def test_long_and_short_edge_keys_agree(capsys, tmp_path):
    short = tmp_path / "short.json"
    short.write_text(json.dumps(GOLDEN))
    long_ = tmp_path / "long.json"
    long_.write_text(
        json.dumps(
            {
                "vertices": ["u", "v"],
                "edges": [
                    {"id": "a", "range": "u", "source": "u"},
                    {"id": "b", "range": "u", "source": "v"},
                    {"id": "c", "range": "v", "source": "u"},
                ],
            }
        )
    )
    _, out1, _ = run(capsys, "index", str(short))
    _, out2, _ = run(capsys, "index", str(long_))
    assert json.loads(out1)["index"] == json.loads(out2)["index"]


def test_index_levels_are_exact_past_the_float_range(capsys, tmp_path):
    # each vertex is the source of three weight-3 edges, two with range u
    # and one with range v: B = [[6, 6], [3, 3]], so B^k 1 = 9^(k-1) (12, 6),
    # past the largest double from k = 323 on
    doc = {"vertices": ["u", "v"], "edges": [
        {"id": f"{r}{s}{i}", "r": r, "s": s, "weight": 3}
        for s in "uv" for i, r in enumerate("uvu")
    ]}
    p = tmp_path / "w3.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "index", str(p), "--depth", "700")
    assert code == 0 and err == ""
    assert "inf" not in out and "nan" not in out
    levels = json.loads(out)["levels"]
    assert levels["2"] == {"u": 108.0, "v": 54.0}
    # correctly rounded floats while they are finite, exact values after
    assert levels["300"] == {"u": float(12 * 9**299), "v": float(6 * 9**299)}
    assert levels["322"]["u"] == float(12 * 9**321)
    assert levels["323"]["u"] == {"exact": str(12 * 9**322)}
    assert levels["700"] == {"u": {"exact": str(12 * 9**699)}, "v": {"exact": str(6 * 9**699)}}


@given(st.integers(1, 2**2100), st.integers(0, 2100), st.integers(0, 3000))
@settings(max_examples=200, deadline=None)
def test_exact_levels_are_in_lowest_terms(odd, zeros, t):
    # a level entry over D^k = 2^t, reduced by shifts, against Fraction
    num = (odd | 1) << zeros
    value = cli._level_value(num, 1 << t, 0)
    q = Fraction(num, 1 << t)
    if q <= sys.float_info.max:
        assert value == float(q)
    else:
        assert value == {"exact": str(q)}


def test_index_collapse_error_is_exact(capsys, tmp_path):
    o3 = {"vertices": ["z"], "edges": [{"id": e, "r": "z", "s": "z"} for e in "abc"]}
    p = tmp_path / "o3.json"
    p.write_text(json.dumps(o3))
    code, out, err = run(capsys, "index", str(p), "--depth", "700")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["central_collapse_max_error"] == 0.0
    assert doc["levels"]["40"]["z"] == float(3**40)
    assert doc["levels"]["700"]["z"] == {"exact": str(3**700)}


def test_index_level_past_the_digit_limit_exits_2(capsys, tmp_path):
    # O10's level k is 10^k, of k + 1 digits: level 4299 is the last one
    # whose exact value the interpreter writes out
    o10 = {"vertices": ["z"], "edges": [{"id": f"e{i}", "r": "z", "s": "z"} for i in range(10)]}
    p = tmp_path / "o10.json"
    p.write_text(json.dumps(o10))
    code, out, err = run(capsys, "index", str(p), "--depth", "4300")
    assert code == 2 and out == ""
    assert f"level 4300 needs more than {cli.INDEX_MAX_DIGITS} digits" in err
    assert f"limit of {cli.INDEX_MAX_DIGITS} digits of an exact level" in err
    code, out, err = run(capsys, "index", str(p), "--depth", "4299")
    assert code == 0 and err == ""
    assert json.loads(out)["levels"]["4299"] == {"z": {"exact": "1" + "0" * 4299}}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["index", "--depth", "-1"], "--depth"),
        (["kasparov", "--depth", "-1"], "--depth"),
        (["residue", "--target", "1", "--kmax", "-1"], "--kmax"),
        (["kasparov", "--kmax", "-1"], "--kmax"),
        (["kms", "--pairs", "-1"], "--pairs"),
        (["kms", "--length", "-1"], "--length"),
        (["kms", "--length", "two"], "--length"),
        (["index", "--seed", "3"], "--seed"),
        (["residue", "--target", "1", "--seed", "3"], "--seed"),
        (["kasparov", "--seed", "3"], "--seed"),
        (["kms", "--seed", "-1"], "--seed"),
        # a tolerance that no residual can exceed, or that every residual
        # exceeds, would decide each check by itself
        (["residue", "--target", "1", "--tol", "inf"], "--tol"),
        (["kasparov", "--tol", "nan"], "--tol"),
        (["residue", "--target", "1", "--tol", "-1"], "--tol"),
        (["kasparov", "--tol", "inf"], "--tol"),
        (["residue", "--target", "1", "--tol", "nan"], "--tol"),
    ],
)
def test_negative_counts_exit_2_naming_the_flag(capsys, golden_file, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], golden_file, *argv[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if (argv[0], flag) in RETIRED or flag == "--seed" and argv[0] != "kms":
        # only kms draws random pairs, so only kms takes a seed; kasparov
        # reads no growth level, and residue limits need no tolerance
        assert f"unrecognized arguments: {' '.join(argv[argv.index(flag):])}" in err
    elif flag == "--tol":
        assert "argument --tol: expected a finite nonnegative number" in err
    else:
        assert f"argument {flag}: expected a nonnegative integer" in err


# options that went with the growth-table route of the residue limits
RETIRED = {("kasparov", "--kmax"), ("residue", "--tol"), ("residue", "--force-iterative")}


@pytest.mark.parametrize("command, flag", sorted(RETIRED))
def test_retired_residue_options_exit_2(capsys, golden_file, command, flag):
    argv = [command, golden_file, *(["--target", "1"] if command == "residue" else [])]
    value = [] if flag == "--force-iterative" else ["1"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, *value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join([flag, *value])}" in capsys.readouterr().err


def test_kms_takes_no_tolerance(capsys, golden_file):
    # its certificate is exact, so a tolerance would decide nothing
    with pytest.raises(SystemExit) as exc:
        main(["kms", golden_file, "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


STORED_RUNS = [
    (["index", "--depth", "30"], "index_{}_depth30.json"),
    (["index", "--depth", "30", "--format", "csv"], "index_{}_depth30.csv"),
    (["residue", "--target", "2"], "residue_{}_target2.json"),
    (["kms"], "kms_{}.json"),
]


@pytest.mark.parametrize(
    "graph, argv, stored",
    [
        pytest.param(
            f"scripts/graphs/{name}.json", argv, stored.format(name),
            id=f"argv{i}-{stored}-{name}",
        )
        for i, (argv, stored) in enumerate(STORED_RUNS)
        for name in BUNDLED
    ]
    + [
        # the bundled graphs have unit weights; this weighted graph's
        # phi_d values pin the float arithmetic of weight over d(mu)
        pytest.param(
            "tests/data/weighted_two_vertex.json",
            ["kms"],
            "kms_weighted_two_vertex.json",
            id="kms-weighted_two_vertex",
        ),
        # deep k_max: stationary, structural-zero and extrapolated classes
        pytest.param(
            "scripts/graphs/triangular.json",
            ["residue", "--target", "3", "--kmax", "2000"],
            "residue_triangular_target3_kmax2000.json",
            id="residue-triangular-kmax2000",
        ),
        # D = 2^55: the levels reach about 22,800 bits, and every ratio
        # of length 3 shifts its numerator by 165 bits
        pytest.param(
            "tests/data/reducible_weighted.json",
            ["residue", "--target", "3", "--kmax", "400"],
            "residue_reducible_weighted_target3_kmax400.json",
            id="residue-reducible_weighted-kmax400",
        ),
        # levels past the double range: exact integers on a central index,
        # and "p/q" where a weight is not an integer
        *(
            pytest.param(
                graph, ["index", "--depth", depth, "--format", fmt], f"index_{name}_depth{depth}.{fmt}",
                id=f"index-{name}-depth{depth}-{fmt}",
            )
            for graph, name, depth in (
                ("scripts/graphs/full_shift_3.json", "full_shift_3", "700"),
                ("tests/data/heavy_loop.json", "heavy_loop", "110"),
            )
            for fmt in ("json", "csv")
        ),
        # (x, x, 1) is 4 at every k, where normalized float powers underflow
        pytest.param(
            "tests/data/underflow.json",
            ["residue", "--target", "1", "--kmax", "600"],
            "residue_underflow_target1_kmax600.json",
            id="residue-underflow-kmax600",
        ),
    ],
)
def test_reports_match_stored(capsys, monkeypatch, graph, argv, stored):
    monkeypatch.chdir(ROOT)
    # numpy reports a bad float operation as a warning, which the CLI
    # would print to stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([argv[0], graph, *argv[1:]])
    assert code == 0
    out = capsys.readouterr()
    assert out.out == (DATA / stored).read_text()
    assert out.err == ""
    assert [str(w.message) for w in caught] == []
    if argv[0] == "residue":
        # every stored sample is the correctly rounded exact growth ratio
        doc = json.loads(out.out)
        levels = fraction_levels(cli.load_graph(graph), doc["parameters"]["kmax"])
        for cls in doc["classes"]:
            t = cls["target"]
            for k, c in cls["samples"]:
                assert c == exact_ratio(levels, t["source"], t["range"], t["length"], k)


def test_one_build_of_each_derived_object_per_run(capsys, monkeypatch):
    calls = {
        "ResidueLimits": 0,
        "GrowthTable": 0,
        "strong_components": 0,
        "growth_profile": 0,
        "eigh": 0,
    }
    loaded_states = []

    def count(owner, attr, name):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    def state(module):
        # identity and contents of every attribute, so that neither a
        # reassignment nor a cache growing in place goes unseen
        return {k: (id(v), repr(v)) for k, v in vars(module).items()}

    load = cli.load_graph

    def loaded(path):
        module = load(path)
        loaded_states.append((module, state(module)))
        return module

    monkeypatch.setattr(cli, "load_graph", loaded)
    grams = []
    build_gram = cuntz_pimsner.gram

    def kept_gram(*args):
        grams.append(build_gram(*args))
        return grams[-1]

    monkeypatch.setattr(cuntz_pimsner, "gram", kept_gram)
    count(np.linalg, "eigh", "eigh")
    count(spectral.ResidueLimits, "__init__", "ResidueLimits")
    count(spectral.GrowthTable, "__init__", "GrowthTable")
    count(bimodule, "_strong_components", "strong_components")
    count(spectral, "growth_profile", "growth_profile")

    assert main(["kasparov", str(GRAPHS / "golden_mean.json"), "--depth", "2"]) == 0
    assert (calls["ResidueLimits"], calls["GrowthTable"]) == (1, 0)
    # one Gram, at the report's depth, whose ranks and positivity come
    # from pivots: 15 residue classes for 30 blocks, and no eigensolve
    assert calls["eigh"] == 0
    assert [(g.blocks, g.classes) for g in grams] == [(30, 15)]
    argv = ["residue", str(GRAPHS / "triangular.json"), "--target", "2", "--kmax", "2000"]
    assert main(argv) == 0
    assert (calls["ResidueLimits"], calls["GrowthTable"]) == (2, 1)
    assert main(["index", str(GRAPHS / "golden_mean.json"), "--depth", "40"]) == 0
    assert main(["kms", str(GRAPHS / "golden_mean.json")]) == 0
    capsys.readouterr()
    assert len(loaded_states) == 4
    # one condensation per loaded graph, and one growth profile per set of
    # residue limits
    assert calls["strong_components"] == 4
    assert calls["growth_profile"] == 2
    for module, before in loaded_states:
        assert state(module) == before


def test_kasparov_walks_the_path_space_once(capsys, monkeypatch):
    # the Gram's rho cells, its second legs and the commutator rows all
    # come from one recursion over the residue classes
    calls = []
    walk = cuntz_pimsner._class_levels

    def counted(module, depth):
        calls.append(depth)
        return walk(module, depth)

    monkeypatch.setattr(cuntz_pimsner, "_class_levels", counted)
    for name in BUNDLED:
        for depth in range(4):
            calls.clear()
            assert main(["kasparov", str(GRAPHS / f"{name}.json"), "--depth", str(depth)]) == 0
            assert calls == [depth]
    capsys.readouterr()


# runs the given argument lists in one fresh interpreter and prints, after
# the import and after each run, which of the watched modules are loaded
NUMPY_PROBE = """
import contextlib, io, json, sys
from graphbimod import cli

def loaded():
    return sorted(
        m for m in sys.modules
        if m in ("numpy", "dataclasses", "inspect", "csv") or m.startswith("graphbimod.")
    )

seen = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen[" ".join(argv)] = (loaded(), code)
print(json.dumps(seen))
"""

# the graphbimod modules each subcommand loads, cli and its bimodule included
ROUTES = {
    "index": ["algebra", "bimodule", "cli", "fock"],
    "residue": ["algebra", "bimodule", "cli", "fock", "spectral"],
    "kasparov": ["algebra", "bimodule", "cli", "cuntz_pimsner", "fock", "spectral"],
    "kms": ["algebra", "bimodule", "cli", "fock", "kms"],
}


def test_numpy_never_loads():
    # nor dataclasses or inspect; each subcommand, in its own interpreter,
    # loads exactly its route's modules, and csv only under --format csv
    graphs = [str(GRAPHS / f"{name}.json") for name in BUNDLED]
    graphs += [str(DATA / f"{name}.json") for name in ("reducible_weighted", "underflow")]
    options = {
        "index": ["--depth", "30"],
        "residue": ["--target", "2", "--timings"],
        "kasparov": ["--depth", "2", "--timings"],
        "kms": [],
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command, route in ROUTES.items():
        runs = [[command, g, *options[command]] for g in (graphs if command != "kms" else graphs[:1])]
        runs.append([command, graphs[0], *options[command], "--format", "csv"])
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE, json.dumps(runs)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert seen.pop("import") == ["graphbimod.algebra", "graphbimod.bimodule", "graphbimod.cli"]
        modules = [f"graphbimod.{m}" for m in route]
        expect = {" ".join(argv): [modules, 0] for argv in runs}
        expect[" ".join(runs[-1])] = [["csv", *modules], 0]
        assert seen == expect
