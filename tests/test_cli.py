import json

import pytest

from graphbimod.cli import main

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

OSCILLATING = {
    "vertices": ["x", "y", "z"],
    "edges": [
        {"id": "p", "r": "x", "s": "y"},
        {"id": "q", "r": "y", "s": "x", "weight": 4.0},
        {"id": "l", "r": "z", "s": "z", "weight": 2.0},
        {"id": "m", "r": "z", "s": "x"},
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


def test_kasparov_clean_run(capsys, golden_file):
    code, out, _ = run(capsys, "kasparov", golden_file, "--depth", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    assert doc["projection"]["idempotency_defect"] == 0.0
    assert doc["gram"]["isometry_defect"] == 0.0
    assert all(c["matches"] for c in doc["commutators"])


def test_kasparov_propagates_uncertified_residues(capsys, tmp_path):
    p = tmp_path / "osc.json"
    p.write_text(json.dumps(OSCILLATING))
    code, out, _ = run(capsys, "kasparov", str(p), "--depth", "1", "--kmax", "80")
    assert code == 1
    doc = json.loads(out)
    assert len(doc["failures"]) == 1
    assert "did not converge" in doc["failures"][0]


def test_kasparov_strict_tolerance_trips_psd(capsys, golden_file):
    # eigensolver noise sits around 1e-15, so an absurd tolerance fails
    code, out, _ = run(capsys, "kasparov", golden_file, "--depth", "2", "--tol", "1e-18")
    doc = json.loads(out)
    if doc["failures"]:
        assert code == 1
    else:
        assert code == 0


def test_kms_report(capsys, golden_file):
    code, out, _ = run(capsys, "kms", golden_file, "--pairs", "40")
    assert code == 0
    doc = json.loads(out)
    assert doc["canonical"] == {"u": "1/2", "v": "1/2"}
    assert doc["dimension"] == 0
    assert doc["residual_max"] == 0.0
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
