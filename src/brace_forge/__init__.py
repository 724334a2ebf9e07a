"""Finite skew braces: validation, ideals and quotients, semidirect and
wreath products, Yang-Baxter solutions, corpora, and verification sweeps."""

from .core import (
    BraceForgeError,
    DocumentSyntaxError,
    FiniteSkewBrace,
    PreconditionError,
    SizeCapExceeded,
    TableFormatError,
    ValidationFailure,
    ValidationReport,
    Violation,
    brace_from_tables,
    generated_subbrace,
    max_order,
    star_product,
    star_set,
    table_eval,
    validate,
)
from .ideals import (
    ExtensionReport,
    Ideal,
    SemiprimeVerdict,
    as_ideal,
    check_semiprime_extension,
    enumerate_ideals,
    ideal_closure,
    is_ideal,
    is_semiprime,
    is_trivial,
    quotient,
    restrict,
    semiprime_verdicts,
)
from .groups import GroupSpec, group_table, parse_group_spec, perm_composition
from .products import (
    SigmaAction,
    WreathContext,
    delta_function,
    pointwise_lift,
    rho_projection,
    semidirect,
    trivial_sigma,
    validate_sigma,
    wreath,
    wreath_base,
)
from .ybe import SolutionMap, check_braid, check_nondegenerate, solution_map
from .autos import group_homomorphisms, sigma_actions, skew_automorphisms
from .corpus import (
    CORPUS_GROUPS,
    group_brace,
    group_automorphisms,
    holomorph_enumerate,
    radical_ring_brace,
    standard_corpus,
)
from .docio import (
    BraceDocument,
    document_of,
    parse_document,
    parse_documents,
    serialize_document,
)
from .verify import (
    CaseResult,
    Counterexample,
    SweepReport,
    render_report,
    search_q34,
    verify_cor28_thm33,
    verify_lemma31,
    verify_lemma32,
)

__version__ = "0.1.0"
