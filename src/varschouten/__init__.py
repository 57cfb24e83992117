"""Exact variational calculus on Z2-graded jet spaces.

The package computes with densities in canonical form over a context of
field/antifield pairs, applies directed (left/right) variational derivatives
and Euler operators, forms variational Schouten brackets of local
functionals, and expands the shifted-graded Jacobi identity term by term
with the labeled matching/cancellation bookkeeping needed to verify it
exactly.  All arithmetic is rational; nothing is ever evaluated in floating
point.
"""

from .calculus import (
    Functional,
    euler,
    euler_blocks,
    is_exact,
    iterated_derivative,
    partial,
    total_derivative,
)
from .core import (
    Expression,
    FieldContext,
    JetVar,
    cos,
    eval_zero_section,
    exp,
    jet,
    jet_orders,
    sin,
)
from .functional import (
    functional_eq,
    functional_parity,
    scale_add,
    zero_functional,
)
from .fuzz import FuzzParams, random_functional, run_fuzz, trial_seed
from .schouten import (
    eq1_sign,
    graded_symmetry_defect,
    jacobi_defect,
    reorder_sign_ledger,
    schouten_bracket,
)
from .textio import (
    ParseError,
    density_to_json,
    format_density,
    format_trace_report,
    parse_context,
    parse_density,
    trace_report_to_json,
)
from .trace import (
    TraceGroup,
    TraceReport,
    TraceTerm,
    expand_trace,
    second_variation_cells,
)

__version__ = "0.1.0"

__all__ = [
    "Expression",
    "FieldContext",
    "Functional",
    "FuzzParams",
    "JetVar",
    "ParseError",
    "TraceGroup",
    "TraceReport",
    "TraceTerm",
    "cos",
    "density_to_json",
    "eq1_sign",
    "euler",
    "euler_blocks",
    "eval_zero_section",
    "exp",
    "expand_trace",
    "format_density",
    "format_trace_report",
    "functional_eq",
    "functional_parity",
    "graded_symmetry_defect",
    "is_exact",
    "iterated_derivative",
    "jacobi_defect",
    "jet",
    "jet_orders",
    "parse_context",
    "parse_density",
    "partial",
    "random_functional",
    "reorder_sign_ledger",
    "run_fuzz",
    "scale_add",
    "schouten_bracket",
    "second_variation_cells",
    "sin",
    "total_derivative",
    "trace_report_to_json",
    "trial_seed",
    "zero_functional",
    "__version__",
]
