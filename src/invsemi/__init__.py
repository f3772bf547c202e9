"""Exact workbench for inverse semigroups of partial bijections of the
naturals: eventually periodic set descriptors, symbolic elements, block
families with chain capacities and factorization, a windowed closure
engine, constrained subsemigroups, and the pointwise-partial topology
with its convergence and isolation certificates.
"""

from .descriptors import EMPTY, NATURALS, SetDescriptor
from .errors import (
    BudgetExceededError,
    InvalidBoundError,
    InvalidFamilyError,
    InvalidOpenError,
    InvsemiError,
    NotGeneratedError,
    NotInjectiveError,
    OutOfDomainError,
    ParseError,
    UnsupportedFamilyError,
    WindowMismatchError,
)
from .pbij import PartialBijection, all_partial_bijections
from .symbolic import (
    BlockPerm,
    IdFin,
    StratumTag,
    SymElement,
    block_perm,
    classify,
    compose_chain,
    dom_set,
    empty_map,
    fin_map,
    format_sym,
    im_set,
    is_empty_sym,
    parse_sym,
    partial_identity,
    sym_apply,
    sym_compose,
    sym_defined_at,
    sym_element,
    sym_graph,
    sym_inverse,
)
from .families import (
    BlockFamily,
    ChainCertificate,
    chain_capacity_by_enumeration,
    chain_capacity_matrix,
    chain_certificates,
    factorize,
    find_chain,
    is_generated,
    stratum_options,
    verify_chain,
    verify_factorization,
)
from .closure import (
    ClosureBoundReport,
    ClosureResult,
    StructuralDiff,
    check_closure_bound,
    closure_of,
    compare_with_structural,
    family_generators,
    minimal_window,
    structural_rows,
)
from .catalog import (
    COMMON_POINT_RULE,
    DISJOINT_RULE,
    BlockRule,
    bound_example,
    common_point_block,
    common_point_family,
    dyadic_block,
    dyadic_disjoint_family,
    dyadic_owner,
    five_block_example,
    named_family,
    random_uniform_family,
    unequal_example,
    violating_family,
)
from .constrained import (
    EMPTY_IDEAL,
    FIN_IDEAL,
    CollectionModel,
    EscapeWitness,
    IdealModel,
    LawVerdict,
    check_collection_laws,
    ideal_escape_witness,
    in_co_constrained,
    in_constrained,
    principal_plus_fin,
)
from .topology import (
    BasicOpen,
    BlockIdentitySeq,
    ConvergenceReport,
    GroupNeighborSeq,
    GrowingExtensionSeq,
    IsolationVerdict,
    OpenReport,
    SingletonIdentitySeq,
    check_convergence,
    family_isolation,
    isolated_inverse_check,
    open_contains,
    open_members,
    random_basic_open,
    rank_one_certificate,
    rule_isolation,
    rule_open_members,
    shared_identity_interior_probe,
    verify_family_certificate,
    verify_rank_one_certificate,
)

__version__ = "0.1.0"
