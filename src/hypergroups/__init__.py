"""Hypergroups over a group: finite-algebra constructions and checks.

The central object is a pair (M, H) of a finite set M and a finite
group H with four structural tables (phi, psi, xi, lam) and a left
neutral element o, generalizing the quotient of a group by a not
necessarily normal subgroup. The library builds these from triples
(group, subgroup, right transversal), verifies the defining axioms,
solves quasigroup equations, applies the group / vector-space / field
functors, inverts the field functor, and classifies small instances
up to isomorphism.
"""

from ._util import CheckResult, Report
from .classify import (
    Catalog,
    CatalogEntry,
    UniversalityReport,
    catalog_csv,
    enumerate_abstract,
    export_catalog,
    sweep_standard,
    universality_probe,
)
from .core import (
    AXIOM_NAMES,
    IDENTITY_NAMES,
    Ambient,
    HypergroupOverGroup,
    check_derived_identities,
    check_normal_case,
    hypergroup_from_json,
    hypergroup_from_tables,
    hypergroup_to_json,
    is_group_quasigroup,
    lemma_solve,
    quasigroup_divide,
    standard_construction,
    standard_constructions,
    verify_axioms,
    verify_axioms_batch,
)
from .errors import (
    AlgebraError,
    IndexOutOfRangeError,
    InternalInconsistencyError,
    MalformedTablesError,
    MultipleSolutionsError,
    NoAmbientError,
    NoIdentityError,
    NoInverseError,
    NoSolutionError,
    NotATransversalError,
    NotAssociativeError,
    NotClosedError,
    NotComposableError,
    NotIrreducibleError,
    NotMonicError,
    NotNormalError,
    NotPrimeError,
    NotSubgroupError,
    ShapeMismatchError,
    SizeLimitExceededError,
    UnknownSpecError,
)
from .fields import (
    FiniteField,
    check_field_tables,
    default_modulus,
    field_isomorphism,
    format_poly,
    make_extension_field,
    make_field,
    make_prime_field,
    multiplicative_group,
    parse_field_spec,
    parse_poly,
    verify_field_axioms,
)
from .functors import (
    FieldReconstruction,
    frobenius,
    functor_field,
    functor_field_on_hom,
    functor_group,
    functor_group_on_hom,
    functor_vector_space,
    functor_vector_space_on_map,
    reconstruct_field,
)
from .groups import (
    CosetDecomposition,
    FiniteGroup,
    Subgroup,
    builtin_groups,
    cyclic_group,
    dihedral_group,
    direct_product,
    element_orders,
    enumerate_subgroups,
    group_from_cayley_table,
    group_from_json,
    group_from_spec,
    group_isomorphism,
    group_isomorphisms,
    group_to_json,
    is_normal,
    parse_cayley_text,
    format_cayley_text,
    quaternion_group,
    quotient_group,
    right_cosets,
    subgroup_closure,
    subgroup_from_elements,
    symmetric_group,
    trivial_group,
)
from .morphisms import (
    HgMorphism,
    MorphismReport,
    compose,
    find_isomorphism,
    identity_morphism,
    invert_isomorphism,
    verify_morphism,
)
from .transversals import (
    Decomposition,
    Transversal,
    decompose,
    enumerate_transversals,
    inverse_decomposition,
    is_right_transversal,
    make_transversal,
    neutral_decomposition,
    sample_transversals,
    transversal_at,
    transversal_count,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
