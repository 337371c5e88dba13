"""sepscope: minimal separators of small graphs, and what they obstruct.

Enumerate and certify minimal separators, build the named graph families
whose separator counts are extremal, hunt k-creatures and other witnesses,
and classify finite forbidden-subgraph families as tame or feral.
"""

from .graphs import (
    BudgetExhausted,
    Graph,
    GraphError,
    are_isomorphic,
    format_edge_list,
    parse_edge_list,
)
from .separators import (
    BranchResult,
    close_separator,
    domination_number,
    enumerate_branching,
    enumerate_closure,
    enumerate_oracle,
    is_minimal_separator,
    minimal_uv_separators,
    separator_leq,
    shattered_set_max,
    trace_family,
)
from .families import (
    FAMILY_NAMES,
    FamilySpec,
    StructureWitness,
    generate,
    sampled_ladder_instance,
    twisted_choice_separators,
    verify_witness,
)
from .detectors import (
    ABSENT,
    FOUND,
    UNKNOWN,
    CreatureWitness,
    MinorWitness,
    SearchVerdict,
    extract_skinny_ladder,
    find_creature,
    find_induced_minor,
    find_induced_subgraph,
    longest_induced_cycle_at_least,
    max_creature_order,
    monotone_subsequence,
    validate_creature,
    validate_minor_witness,
)
from .classifier import (
    QUASI_TAME_TYPES,
    ClassificationVerdict,
    ForbiddenFamily,
    classify,
    forbids_family_type,
    reduce_degree_two_paths,
)

__version__ = "0.1.0"
