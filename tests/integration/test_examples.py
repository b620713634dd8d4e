"""Integration: every example script runs to completion.

The scripts under ``examples/`` import only the public API, so this is
the test that a change to that API keeps its documented users working.
"""

import runpy
from pathlib import Path

import pytest

from repro.scenarios import registry

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs(script, capsys, monkeypatch):
    # A scenario an example registers must not outlive it.
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
