"""The generated scenario catalog: registry -> ``docs/scenarios.md``.

The scenario registry is the single source of truth for what this
library can evaluate; the catalog renders it as a markdown table so the
docs tree never drifts from the code. ``repro scenarios list --json``
emits the same entries as machine-readable JSON, ``repro scenarios
catalog --write docs/scenarios.md`` regenerates the committed page, and
CI runs ``repro scenarios catalog --check docs/scenarios.md`` so a
registry change without a catalog regeneration fails the build.
"""

from __future__ import annotations

from pathlib import Path

from .registry import get_scenario, list_scenarios

__all__ = ["catalog_entries", "render_markdown", "check_catalog", "write_catalog"]

_HEADER = """\
# Scenario catalog

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with: repro scenarios catalog --write docs/scenarios.md -->

Every entry below is a registered evaluation scenario: a declarative
(protocols x powers x geometries x draws) grid with a named objective,
runnable as `repro scenarios run NAME`, `repro.api.evaluate(NAME)`, or —
against a running daemon — `repro client run NAME`. The table is
generated from the scenario registry (`repro scenarios list --json`);
CI fails if it goes stale.
"""


def catalog_entries() -> list:
    """One plain-data mapping per registered scenario, in name order."""
    entries = []
    for name in list_scenarios():
        scenario = get_scenario(name)
        spec = scenario.to_campaign_spec()
        entries.append(
            {
                "name": name,
                "description": scenario.description,
                "protocols": [p.name for p in scenario.protocols],
                "pairs": scenario.n_pairs,
                "axes": list(spec.axis_names),
                "cells": spec.n_units,
                "objective": scenario.objective,
                "grounding": scenario.grounding,
                "spec_hash": spec.spec_hash(),
            }
        )
    return entries


def _row(entry: dict) -> str:
    axes = " x ".join(entry["axes"])
    return (
        f"| `{entry['name']}` "
        f"| {axes} "
        f"| {entry['cells']} "
        f"| `{entry['objective']}` "
        f"| {entry['grounding']} "
        f"| {entry['description']} |"
    )


def render_markdown() -> str:
    """The full ``docs/scenarios.md`` page for the current registry."""
    lines = [
        _HEADER,
        "| scenario | grid axes | cells | objective | grounding | description |",
        "|---|---|---|---|---|---|",
    ]
    lines.extend(_row(entry) for entry in catalog_entries())
    lines.append("")
    lines.append(
        "Axes are the lowered campaign grid's dimensions in storage order; "
        "`cells` is the flat grid size (the unit of progress reporting, "
        "chunk checkpointing and sharding)."
    )
    return "\n".join(lines) + "\n"


def write_catalog(path) -> Path:
    """Regenerate the catalog page at ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_markdown(), encoding="utf-8")
    return target


def check_catalog(path) -> bool:
    """Whether the committed catalog matches the current registry."""
    target = Path(path)
    if not target.exists():
        return False
    return target.read_text(encoding="utf-8") == render_markdown()
