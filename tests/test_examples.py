"""Smoke tests of the scripts: run_examples.py, which drives every
subcommand, and residue_sweep.py, which tabulates one growth-ratio class."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_examples_summarizes_every_run(capsys):
    script = _load("run_examples")
    assert script.run([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(script.RUNS)
    for line, (command, graph, _) in zip(lines, script.RUNS):
        assert line.split()[:2] == [command, graph]
        assert "exit" not in line


def test_residue_sweep_tabulates_the_class(capsys):
    script = _load("residue_sweep")
    graph = str(SCRIPTS / "graphs" / "triangular.json")
    assert script.run([graph, "g,f", "--kmax", "400"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "class: range w, source v, length 2",
        "method structural_zero, converged True",
    ]
    # the ratio of the class (w, v, 2) is 1/(k + 1), and its limit 0
    rows = [line.split() for line in lines[3:-2]]
    assert [int(k) for k, _, _ in rows] == list(range(2, 401, 33))
    for k, ratio, gap in rows:
        assert float(ratio) == pytest.approx(1 / (int(k) + 1), abs=1e-15)
        assert float(gap) == pytest.approx(1 / (int(k) + 1), rel=1e-3)
    assert lines[-2] == "limit 0.000000000000000"
    assert lines[-1].startswith("fitted decay exponent 0.99")
