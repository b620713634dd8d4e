"""Experiment harness: figure regeneration, reports, plots, registry."""

from .ascii_plot import ascii_plot
from .config import FIG3_DEFAULT, FIG4_P0, FIG4_P10, Fig3Config, Fig4Config
from .diagrams import all_protocol_diagrams, phase_timeline
from .dmt import DEFAULT_MULTIPLEXING_GAINS, DmtCurve, finite_snr_dmt
from .fig3 import Fig3Result, Fig3Row, fig3_result, fig3_shape_checks
from .fig4 import Fig4Result, RegionTrace, fig4_shape_checks, run_fig4
from .runner import (
    EXPERIMENT_IDS,
    ExperimentReport,
    fig3_report,
    fig4_report,
    run_experiment,
)
from .tables import render_table, write_csv

__all__ = [
    "ascii_plot",
    "FIG3_DEFAULT",
    "FIG4_P0",
    "FIG4_P10",
    "Fig3Config",
    "Fig4Config",
    "all_protocol_diagrams",
    "phase_timeline",
    "DEFAULT_MULTIPLEXING_GAINS",
    "DmtCurve",
    "finite_snr_dmt",
    "Fig3Result",
    "Fig3Row",
    "fig3_result",
    "fig3_shape_checks",
    "Fig4Result",
    "RegionTrace",
    "fig4_shape_checks",
    "run_fig4",
    "EXPERIMENT_IDS",
    "ExperimentReport",
    "fig3_report",
    "fig4_report",
    "run_experiment",
    "render_table",
    "write_csv",
]
