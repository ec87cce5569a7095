"""Labeled chip-firing on the integer line.

Simulation engine for all edge-multiplicity variants, closed-form oracles
for firing counts and terminal configurations, the firing-order poset with
its grid-structure checks, exhaustive confluence search over labeled
states, and per-step lemma checkers.
"""

from .variants import (Variant, base, exponential, loops_and_edges,
                       loops_everywhere, multi_edge, origin_loops)
from .engine import (CapExceededError, Chip, ChipFiringError, IllegalMoveError,
                     LabeledConfiguration, MoveRecord, NonTerminationError,
                     Trace, run_to_completion, standard_initial, make_strategy)
from .closedform import (NoSortingTheoremError, UnsupportedVariantError,
                         canonical_labels, expected_sorted_terminal,
                         fire_count_table, flow_balance_residual,
                         terminal_unlabeled, total_fires)

__version__ = "0.1.0"

__all__ = [
    "Variant", "base", "multi_edge", "origin_loops", "loops_everywhere",
    "loops_and_edges", "exponential",
    "Chip", "LabeledConfiguration", "MoveRecord", "Trace",
    "run_to_completion", "standard_initial", "make_strategy",
    "ChipFiringError", "IllegalMoveError", "NonTerminationError",
    "CapExceededError", "UnsupportedVariantError", "NoSortingTheoremError",
    "canonical_labels", "total_fires", "fire_count_table",
    "terminal_unlabeled", "expected_sorted_terminal", "flow_balance_residual",
    "__version__",
]
