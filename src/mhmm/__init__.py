"""Multiple hidden Markov models over multivariate categorical series.

Independence hypotheses between latent chains and observed variables are
declared as mixed-chain graphs and compiled into zero restrictions on
marginal interaction coordinates of the transition and emission tables.
The package covers model declaration, exact likelihood computation, simulation,
constrained EM fitting, and likelihood-ratio/AIC model comparison.
"""

from .constraints import (
    ConstraintSet,
    additivity_constraints,
    count_free_parameters,
    graph_constraints,
    invariant_association_constraints,
    total_parameter_count,
    user_zero_constraints,
)
from .errors import CapacityError, DomainError, MhmmError, NumericalError, ParseError
from .fit import FitOptions, FitResult, constrained_m_step, em_fit
from .graphs import IndependenceStatement, MixedChainGraph, graphs_equivalent
from .interactions import (
    InteractionIndex,
    InteractionSpace,
    InteractionTable,
    interactions_from_table,
    parse_interaction_lines,
    serialize_interactions,
    table_from_interactions,
)
from .model import (
    MhmmModel,
    ObservedSeries,
    forward_backward,
    joint_law,
    log_likelihood,
    marginal_model,
    read_model,
    read_series_csv,
    simulate,
    stationary_distribution,
    viterbi,
    write_model,
    write_series_csv,
)
from .modelspec import ModelSpec, fit_spec, fit_specs, parse_model_spec, read_model_spec
from .schemes import BASELINE, VariableScheme
from .selection import (
    LrtOutcome,
    ModelComparison,
    aic,
    chi_square_quantile,
    chi_square_tail,
    lrt,
    model_table,
    regularized_gamma_q,
)

__version__ = "0.1.0"

__all__ = [
    "BASELINE",
    "CapacityError",
    "ConstraintSet",
    "DomainError",
    "FitOptions",
    "FitResult",
    "IndependenceStatement",
    "InteractionIndex",
    "InteractionSpace",
    "InteractionTable",
    "LrtOutcome",
    "MhmmError",
    "MhmmModel",
    "MixedChainGraph",
    "ModelComparison",
    "ModelSpec",
    "NumericalError",
    "ObservedSeries",
    "ParseError",
    "VariableScheme",
    "additivity_constraints",
    "aic",
    "chi_square_quantile",
    "chi_square_tail",
    "constrained_m_step",
    "count_free_parameters",
    "em_fit",
    "fit_spec",
    "fit_specs",
    "forward_backward",
    "graph_constraints",
    "graphs_equivalent",
    "interactions_from_table",
    "invariant_association_constraints",
    "joint_law",
    "log_likelihood",
    "lrt",
    "marginal_model",
    "model_table",
    "parse_interaction_lines",
    "parse_model_spec",
    "read_model",
    "read_model_spec",
    "read_series_csv",
    "regularized_gamma_q",
    "serialize_interactions",
    "simulate",
    "stationary_distribution",
    "table_from_interactions",
    "total_parameter_count",
    "user_zero_constraints",
    "viterbi",
    "write_model",
    "write_series_csv",
]
