"""Smoke test of scripts/run_examples.py, which drives every subcommand."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_examples.py"


def _load():
    spec = importlib.util.spec_from_file_location("run_examples", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_examples_summarizes_every_run(capsys):
    script = _load()
    assert script.run([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(script.RUNS)
    for line, (command, graph, _) in zip(lines, script.RUNS):
        assert line.split()[:2] == [command, graph]
        assert "exit" not in line
