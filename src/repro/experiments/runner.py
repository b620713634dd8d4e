"""Experiment registry: one entry per paper artifact.

Each runner returns an :class:`ExperimentReport` — printable tables plus
the series needed for plotting — so the CLI, the benchmarks and the tests
all consume the same code path. Fig. 3 evaluates its scenarios through
the :mod:`repro.api` facade; Fig. 4 traces its regions with the
weighted-sum LP. The Section IV fading ensemble is the registered
``fading-ensemble`` scenario (``repro scenarios run fading-ensemble``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..exceptions import InvalidParameterError
from .ascii_plot import ascii_plot
from .config import FIG3_DEFAULT, FIG4_P0, FIG4_P10, Fig4Config
from .fig3 import Fig3Result, fig3_result, fig3_shape_checks
from .fig4 import Fig4Result, fig4_shape_checks, run_fig4
from .tables import render_table, write_csv

__all__ = [
    "ExperimentReport",
    "run_experiment",
    "EXPERIMENT_IDS",
    "fig3_report",
    "fig4_report",
]


@dataclass(frozen=True)
class ExperimentReport:
    """A fully rendered experiment outcome.

    Attributes
    ----------
    experiment_id:
        Registry key (``fig3``, ``fig4a``, ``fig4b``).
    description:
        What paper artifact this regenerates.
    tables:
        List of ``(title, headers, rows)`` triples.
    plots:
        List of pre-rendered ASCII plots.
    checks:
        Shape-check name -> bool (the paper's qualitative claims).
    """

    experiment_id: str
    description: str
    tables: tuple
    plots: tuple = ()
    checks: dict = field(default_factory=dict)

    def render(self) -> str:
        """The full printable report."""
        parts = [f"== {self.experiment_id}: {self.description} =="]
        for title, headers, rows in self.tables:
            parts.append(render_table(headers, rows, title=title))
        parts.extend(self.plots)
        if self.checks:
            check_lines = ["shape checks:"]
            check_lines.extend(
                f"  [{'PASS' if passed else 'FAIL'}] {name}"
                for name, passed in self.checks.items()
            )
            parts.append("\n".join(check_lines))
        return "\n\n".join(parts)

    def write_csvs(self, directory) -> list:
        """Write each table to ``<directory>/<experiment_id>_<n>.csv``."""
        written = []
        for index, (title, headers, rows) in enumerate(self.tables):
            slug = title.lower().replace(" ", "_").replace("/", "-")[:40]
            path = Path(directory) / f"{self.experiment_id}_{index}_{slug}.csv"
            written.append(write_csv(path, headers, rows))
        return written

    def all_checks_pass(self) -> bool:
        """Whether every shape check passed."""
        return all(self.checks.values())


def fig3_report(result: Fig3Result | None = None) -> ExperimentReport:
    """Build the Fig. 3 report (computing the sweeps if not supplied)."""
    result = result or fig3_result(FIG3_DEFAULT)
    placement_table = (
        f"Fig. 3 / placement sweep (P={result.config.power_db:g} dB, "
        f"G_ab={result.config.gab_db:g} dB, path-loss exp "
        f"{result.config.path_loss_exponent:g}) — sum rates [bits/use]",
        result.headers("relay position"),
        result.to_rows(result.placement_rows),
    )
    symmetric_table = (
        f"Fig. 3 / symmetric sweep (P={result.config.power_db:g} dB, "
        f"G_ab={result.config.gab_db:g} dB) — sum rates [bits/use]",
        result.headers("G_ar=G_br [dB]"),
        result.to_rows(result.symmetric_rows),
    )
    series = {}
    for protocol in result.protocols:
        series[protocol.name] = [
            (row.sweep_value, row.sum_rates[protocol]) for row in result.placement_rows
        ]
    plot = ascii_plot(
        series,
        title="Fig. 3 (placement sweep)",
        x_label="relay position (fraction of a-b distance)",
        y_label="optimal sum rate",
    )
    return ExperimentReport(
        experiment_id="fig3",
        description="optimal achievable sum rates of DT/MABC/TDBC/HBC",
        tables=(placement_table, symmetric_table),
        plots=(plot,),
        checks=fig3_shape_checks(result),
    )


def _fig4_tables(result: Fig4Result) -> list:
    summary_rows = []
    for key, trace in result.traces.items():
        summary_rows.append(
            [key, trace.max_ra, trace.max_rb, trace.max_sum_rate, trace.area]
        )
    summary_table = (
        f"Fig. 4 summary (P={result.config.power_db:g} dB, "
        f"G_ab={result.config.gab_db:g}, G_ar={result.config.gar_db:g}, "
        f"G_br={result.config.gbr_db:g} dB)",
        ["region", "max Ra", "max Rb", "max sum", "area"],
        summary_rows,
    )
    boundary_rows = []
    for key, trace in result.traces.items():
        for ra, rb in trace.boundary:
            boundary_rows.append([key, float(ra), float(rb)])
    boundary_table = (
        "Fig. 4 boundary points",
        ["region", "Ra", "Rb"],
        boundary_rows,
    )
    tables = [summary_table, boundary_table]
    if result.hbc_points_outside_both:
        headline_table = (
            "HBC achievable points outside both MABC capacity and "
            "TDBC outer bound",
            ["Ra", "Rb"],
            [list(p) for p in result.hbc_points_outside_both],
        )
        tables.append(headline_table)
    return tables


def fig4_report(
    config: Fig4Config,
    experiment_id: str,
    *,
    result: Fig4Result | None = None,
    companion: Fig4Result | None = None,
) -> ExperimentReport:
    """Build one Fig. 4 panel report.

    ``companion`` is the other panel, needed for the cross-panel shape
    checks; it is computed on demand when omitted.
    """
    result = result or run_fig4(config)
    if companion is None:
        other_config = FIG4_P10 if config.power_db < 5 else FIG4_P0
        companion = run_fig4(other_config)
    low, high = (result, companion) if config.power_db < 5 else (companion, result)
    series = {key: result.traces[key].boundary for key in result.traces}
    plot = ascii_plot(
        series,
        title=f"Fig. 4 (P={config.power_db:g} dB)",
        x_label="Ra [bits/use]",
        y_label="Rb [bits/use]",
    )
    return ExperimentReport(
        experiment_id=experiment_id,
        description=(
            f"achievable rate regions and outer bounds at P={config.power_db:g} dB"
        ),
        tables=tuple(_fig4_tables(result)),
        plots=(plot,),
        checks=fig4_shape_checks(low, high),
    )


def run_experiment(experiment_id: str) -> ExperimentReport:
    """Run one registered experiment end to end."""
    registry = {
        "fig3": fig3_report,
        "fig4a": lambda: fig4_report(FIG4_P0, "fig4a"),
        "fig4b": lambda: fig4_report(FIG4_P10, "fig4b"),
    }
    if experiment_id not in registry:
        raise InvalidParameterError(
            f"unknown experiment {experiment_id!r}; choose from {sorted(registry)}"
        )
    return registry[experiment_id]()


#: Registered experiment ids: the paper's evaluation figures.
EXPERIMENT_IDS = ("fig3", "fig4a", "fig4b")
