"""Unique-representation bases: construction, verification, density bounds.

The package builds sets A of integers in which every integer n has exactly
one representation n = a + a' with a <= a', both from A.  A staged
construction grows such a set two elements at a time; growth policies
control how fast it spreads out, from logarithmic density (greedy) down to
any prescribed slow-growth budget.  An independent brute-force oracle
re-checks everything, and closed-form density bounds are available as
exact predicates.
"""

from .bounds import (
    BoundCheck,
    growth_report,
    log_envelope,
    reach_envelope,
    sqrt_cap,
)
from .construction import (
    BasisTrace,
    ConstructionStep,
    ExplicitReaches,
    Greedy,
    GrowthConfigError,
    GrowthPolicy,
    LogGrowth,
    LogLogGrowth,
    ThresholdReach,
    ThresholdTable,
    extend,
    initial_state,
    parse_budget,
    run_greedy,
    run_with_growth,
)
from .digits import DigitLimitError
from .intset import IntSet, min_abs_missing
from .oracle import (
    RepReport,
    Verdict,
    brute_rep_report,
    default_window,
    pairs_for,
    verify_decomposition,
    verify_gap_growth,
    verify_trace,
    verify_unique_window,
)
from .tracefile import TraceFormatError, parse, read_file, serialize, write_file

__version__ = "0.1.0"

__all__ = [
    "BasisTrace",
    "BoundCheck",
    "ConstructionStep",
    "DigitLimitError",
    "ExplicitReaches",
    "Greedy",
    "GrowthConfigError",
    "GrowthPolicy",
    "IntSet",
    "LogGrowth",
    "LogLogGrowth",
    "RepReport",
    "ThresholdReach",
    "ThresholdTable",
    "TraceFormatError",
    "Verdict",
    "brute_rep_report",
    "default_window",
    "extend",
    "growth_report",
    "initial_state",
    "log_envelope",
    "min_abs_missing",
    "pairs_for",
    "parse",
    "parse_budget",
    "reach_envelope",
    "read_file",
    "run_greedy",
    "run_with_growth",
    "serialize",
    "sqrt_cap",
    "verify_decomposition",
    "verify_gap_growth",
    "verify_trace",
    "verify_unique_window",
    "write_file",
]
