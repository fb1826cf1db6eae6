"""inhcalc: an executable semantics for a record-inheritance calculus.

The package provides a parser and demand-driven evaluator for record
programs with mixin inheritance and de Bruijn scope references, a bridge
from the lambda-calculus (ANF transform, translation, convergence check),
an independent head-reduction oracle, and a direct set-theoretic
semantics of ANF used for cross-checking.
"""

from .syntax import (
    CoreProgram,
    ParseError,
    Reference,
    ResolutionError,
    parse,
    parse_path,
    parse_program,
    path_text,
    render,
    resolve_references,
)
from .semantics import (
    ABOVE_ROOT,
    DEFAULT_FUEL,
    DivergenceError,
    EvalContext,
    ObservationTree,
    ScopeUnderflowError,
)
from .lam import (
    ConvergenceReport,
    anf_transform,
    bohm_prefix,
    converges,
    head_reduce,
    parse_lambda,
    translate,
)

__all__ = [
    "ABOVE_ROOT",
    "DEFAULT_FUEL",
    "ConvergenceReport",
    "CoreProgram",
    "DivergenceError",
    "EvalContext",
    "ObservationTree",
    "ParseError",
    "Reference",
    "ResolutionError",
    "ScopeUnderflowError",
    "anf_transform",
    "bohm_prefix",
    "converges",
    "head_reduce",
    "parse",
    "parse_lambda",
    "parse_path",
    "parse_program",
    "path_text",
    "render",
    "resolve_references",
    "translate",
]

__version__ = "0.1.0"
