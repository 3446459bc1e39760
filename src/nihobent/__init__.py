"""Niho bent functions over GF(2^(2m)) and their hyperoval o-polynomials."""

from .gf2 import (
    FieldMismatchError,
    FieldSpec,
    FieldElement,
    Embedding,
    GF,
    default_modulus,
    embed_subfield,
    linear_table,
    unit_circle,
    unit_circle_element,
)
from .boolfn import (
    TruthTable,
    TraceTerm,
    TraceForm,
    WalshSpectrum,
    walsh_spectrum,
    is_bent,
    anf,
    anf_degree,
    line_forms,
    has_affine_coset_restrictions,
)
from .niho import (
    FAMILIES,
    NotNihoExponentError,
    FamilyConditionError,
    NihoExponent,
    niho_normalize,
    family_exponent,
    is_fifth_power,
    FamilySpec,
    build_bent,
    FamilyReport,
    family_report,
)
from .bivariate import (
    NotClassHError,
    InternalCheckError,
    BasisPair,
    MappingTable,
    BivariateTable,
    to_bivariate,
    extract_h_mu,
    g_from_h,
    is_permutation,
    is_two_to_one,
    is_opolynomial,
    check_opoly_degree,
    opoly_normalize,
    closed_form_g,
    closed_form_g_circle,
    verify_trace_identities,
)
from .ovals import (
    VerificationError,
    SubiacoParams,
    subiaco_pair,
    subiaco_fs,
    subiaco_fs_explicit,
    AdelaideParams,
    adelaide_pair,
    adelaide_fs,
    adelaide_f1,
    frobenius_map,
    Correspondence,
    correspond_subiaco,
    correspond_adelaide,
)

__version__ = "0.1.0"
