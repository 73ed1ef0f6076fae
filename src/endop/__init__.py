"""Exact computation of natural-endomorphism operads of forgetful functors.

The package computes, at finite scale and with exact arithmetic, the operads
of natural operations attached to several concrete functors: projections on
sets, scalars on modules and graded modules, free-group words on groups, and
q-power polynomials on commutative F_q-algebras.  A brute-force naturality
engine recomputes each of these from compatibility conditions alone, and a
generic checker verifies the operad axioms.
"""

from .errors import (
    BoundExceeded,
    CapTooSmall,
    DomainMismatch,
    EndopError,
    FieldMismatch,
    IncompleteEvaluation,
    IndexOutOfRange,
    MalformedTree,
    NotAGroup,
    NotAMonoid,
    NotInvertible,
    OperadMismatch,
    PositionOutOfRange,
    TruncationMismatch,
    UnsupportedDomain,
)
from .linalg import (
    ExactMatrix,
    HomBasis,
    equivariant_homs,
    kron_power,
    nullspace,
    permutation_operator,
    schur_weyl_dimension,
)
from .naturality import (
    FiniteFunction,
    FiniteMonoidTable,
    NaturalityReport,
    central_module,
    central_set_bruteforce,
    central_set_determined,
    finite_group_natural_maps,
    graded_central,
    monoid_reconstruction,
)
from .operad_core import (
    AxiomReport,
    OperadDescriptor,
    PermElement,
    check_algebra_action,
    check_operad_axioms,
    compose_at,
    perm_compose,
    perm_operad,
    trivial_operad,
)
from .qpoly_operad import (
    FieldPolynomial,
    QPolynomial,
    characterize_multilinear,
    eval_poly,
    generated_submonomials,
    multilinearity_check,
    qpoly_compose,
    qpoly_from_tree,
    qpoly_operad,
)
from .scalars import (
    QQ,
    FiniteField,
    IntegersMod,
    Scalar,
    finite_field,
)
from .word_operad import (
    ReducedWord,
    free_reduce,
    group_eval,
    parse_word,
    word_compose,
    word_enumerate,
    word_operad,
    word_perm_act,
)

__version__ = "0.1.0"
