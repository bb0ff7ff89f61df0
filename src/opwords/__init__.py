"""opwords: set-operads of words over a monoid.

Words over a monoid form an operad: substitution splices one word into
another while multiplying by the replaced letter, and permutations act by
rearranging letters.  Finitely generated subfamilies of these operads are
familiar combinatorial objects (planar trees, Dyck and Motzkin paths,
compositions, Schroeder trees, directed animals), and the package generates
them, checks their characterizations and presentations, and converts words
to and from the objects.
"""
from .generation import (
    ComparisonVerdict,
    GeneratorSet,
    GradedFamily,
    NonEnumerableError,
    equals_predicate,
    generate_closure,
    quotient_image,
)
from .monoids import (
    BOOLEAN,
    CarrierError,
    Monoid,
    Morphism,
    NATURALS,
    compose_morphisms,
    cyclic,
    identity_morphism,
    parse_monoid,
    reduce_mod,
)
from .words import (
    AxiomReport,
    MonoidMismatchError,
    PositionError,
    Word,
    act,
    all_perms,
    block_substitute,
    check_axioms,
    compose_perms,
    format_letters,
    identity_perm,
    inverse_perm,
    is_permutation,
    lift_morphism,
    parse_letters,
    substitute,
    unit_word,
    word,
)

__version__ = "0.1.0"
