"""The paper's primary contribution: protocols, bounds, regions, optimization."""

from .bounds import (
    ALL_BOUNDS,
    bound_for,
    dt_capacity,
    naive4_inner,
    naive4_outer,
    hbc_inner,
    hbc_outer,
    mabc_inner,
    mabc_outer,
    tdbc_inner,
    tdbc_outer,
)
from .cutset_lp import cutset_boundary, cutset_max_sum_rate, cutset_support_point
from .hbc_correlated import (
    evaluate_hbc_outer_correlated,
    hbc_outer_correlated_boundary,
    hbc_outer_correlated_sum_rate,
)
from .capacity import (
    ProtocolComparison,
    achievable_region,
    compare_protocols,
    optimal_sum_rate,
    outer_bound_region,
)
from .gaussian import EvaluatedBound, EvaluatedConstraint, GaussianChannel
from .optimize import (
    RatePoint,
    equal_rate_point,
    feasible_rate_pair,
    max_sum_rate,
    sum_rate_fixed_durations,
    support_point,
)
from .protocols import PhaseDurations, Protocol, protocol_phases, protocol_schedule
from .regions import RateRegion, fixed_duration_polygon, polygon_area, region_dominates
from .terms import BoundConstraint, BoundKind, BoundSpec, LinearForm, MiKey

__all__ = [
    "ALL_BOUNDS",
    "bound_for",
    "dt_capacity",
    "naive4_inner",
    "naive4_outer",
    "hbc_inner",
    "hbc_outer",
    "mabc_inner",
    "mabc_outer",
    "tdbc_inner",
    "tdbc_outer",
    "cutset_boundary",
    "cutset_max_sum_rate",
    "cutset_support_point",
    "evaluate_hbc_outer_correlated",
    "hbc_outer_correlated_boundary",
    "hbc_outer_correlated_sum_rate",
    "ProtocolComparison",
    "achievable_region",
    "compare_protocols",
    "optimal_sum_rate",
    "outer_bound_region",
    "EvaluatedBound",
    "EvaluatedConstraint",
    "GaussianChannel",
    "RatePoint",
    "equal_rate_point",
    "feasible_rate_pair",
    "max_sum_rate",
    "sum_rate_fixed_durations",
    "support_point",
    "PhaseDurations",
    "Protocol",
    "protocol_phases",
    "protocol_schedule",
    "RateRegion",
    "fixed_duration_polygon",
    "polygon_area",
    "region_dominates",
    "BoundConstraint",
    "BoundKind",
    "BoundSpec",
    "LinearForm",
    "MiKey",
]
