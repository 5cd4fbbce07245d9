"""Exact Betti diagrams of stable monomial ideals and greedy
decompositions into pure diagrams, with checkable structure results
about lex-segment ideals in three variables."""

from .monomial import (
    Monomial,
    divides,
    format_monomial,
    glex_key,
    max_index,
    monomials_of_degree,
)
from .ideal import (
    MonomialIdeal,
    UnitIdeal,
    ZeroIdeal,
    add_variable,
    colon_variable,
    contains,
    format_ideal,
    hilbert_value,
    is_artinian,
    is_lex_segment,
    is_stable,
    lexify,
    minimalize,
    split_x,
)
from .betti import (
    BettiDiagram,
    ek_betti,
    mapping_cone_betti,
    quotient_diagram,
    regularity,
)
from .pure import NotDecomposable, pure_diagram, seq_leq, top_degree_sequence
from .decompose import (
    Decomposition,
    bs_decompose,
    reconstruct,
    split_by_length,
    unit_normalized,
)
from .verify import (
    CheckReport,
    ProvenanceReport,
    chain_of,
    check_colon_prefix,
    check_cone_assembly,
    check_excluded_family_tails,
    check_lex_dominance,
    check_split_identities,
    check_tail_agreement,
    explain_chain,
    family_closed_form,
    family_ideal,
)
from .enumeration import (
    CampaignConfig,
    CampaignSummary,
    CheckStats,
    enumerate_artinian_lex,
    run_campaign,
)
from .cli import IdealSyntaxError, parse_ideal

__version__ = "0.1.0"
