"""Unique-representation bases: construction, verification, density bounds.

The package builds sets A of integers in which every integer n has exactly
one representation n = a + a' with a <= a', both from A.  A staged
construction grows such a set two elements at a time; growth policies
control how fast it spreads out, from logarithmic density (greedy) down to
any prescribed slow-growth budget.  An independent brute-force oracle
re-checks everything, and closed-form density bounds are available as
exact predicates.

Importing the package loads none of its modules: each one is imported when
one of its names is first read from the package (PEP 562), so a program
loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {name: home for home, names in {
    "bounds": "BoundCheck growth_report log_envelope reach_envelope sqrt_cap",
    "construction": "extend initial_state run_greedy run_with_growth",
    "digits": "DigitLimitError",
    "intset": "IntSet min_abs_missing",
    "oracle": "RepReport Verdict brute_rep_report default_window pairs_for verify_decomposition"
              " verify_gap_growth verify_trace verify_unique_window",
    "policy": "ExplicitReaches Greedy GrowthConfigError GrowthPolicy LogGrowth LogLogGrowth ThresholdReach"
              " ThresholdTable parse_budget",
    "record": "BasisTrace ConstructionStep",
    "tracefile": "TraceFormatError parse read_file serialize write_file",
}.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
