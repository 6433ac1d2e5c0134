"""Multi-channel Bayesian persuasion toolkit.

A sender commits to a state-dependent distribution over signals sent on
n channels; receiver i observes the channels marked in row i of a binary
communication structure.  The package analyzes structures (dominance,
superiority, minimal dominance-free designs), solves forest-structured
instances on a posterior grid with exact rational arithmetic, emulates
private disclosure over shared channels with one-time pads, and
generates hardness instances from minimum b-union problems.
"""

from .beliefs import (
    BeliefDistribution,
    Coupling,
    is_bayes_plausible,
)
from .dominance import (
    DominationGraph,
    NetworkGraph,
    check_private_equivalence_condition,
    dominance_set,
    domination_graph,
    is_superior,
    network_structure,
    sperner_channel_count,
    sperner_structure,
)
from .errors import (
    BudgetExceeded,
    FileError,
    PersuasionError,
    PreconditionError,
    UsageError,
    ValidationError,
)
from .forest import (
    GridSolution,
    PosteriorGrid,
    SignalingTable,
    evaluate_table,
    extract_table,
    solve_fptas,
    solve_grid,
)
from .hardness import (
    BUnionInstance,
    ReductionOutput,
    build_reduction,
    min_b_union,
    optimal_value,
    verify_reduction,
)
from .model import (
    CommunicationStructure,
    PersuasionInstance,
    Prior,
    StateSpace,
    format_rational,
    merge_duplicate_receivers,
    parse_rational,
    validate_instance,
)
from .sharing import (
    ChannelScheme,
    SchemeReport,
    emulate_private_subset,
    enumerate_executions,
    transport_scheme,
    verify_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "BeliefDistribution",
    "BUnionInstance",
    "BudgetExceeded",
    "ChannelScheme",
    "CommunicationStructure",
    "Coupling",
    "DominationGraph",
    "FileError",
    "GridSolution",
    "NetworkGraph",
    "PersuasionError",
    "PersuasionInstance",
    "PosteriorGrid",
    "PreconditionError",
    "Prior",
    "ReductionOutput",
    "SchemeReport",
    "SignalingTable",
    "StateSpace",
    "UsageError",
    "ValidationError",
    "build_reduction",
    "check_private_equivalence_condition",
    "dominance_set",
    "domination_graph",
    "emulate_private_subset",
    "enumerate_executions",
    "evaluate_table",
    "extract_table",
    "format_rational",
    "is_bayes_plausible",
    "is_superior",
    "merge_duplicate_receivers",
    "min_b_union",
    "network_structure",
    "optimal_value",
    "parse_rational",
    "solve_fptas",
    "solve_grid",
    "sperner_channel_count",
    "sperner_structure",
    "transport_scheme",
    "validate_instance",
    "verify_reduction",
    "verify_scheme",
    "__version__",
]
