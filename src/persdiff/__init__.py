"""Generalized persistence pair-group ranks via blanket-shift differences.

Exact linear algebra over GF(p) or the rationals, multifiltered chain
complexes over finite posets, cycle/boundary presheaves on up-sets, and a
finite-difference calculus on integer commuting squares whose derivative
at (0, 1) recovers the pair-group multiplicities of a generalized
persistence diagram.
"""

from .fields import FieldSpec
from .linalg import (
    Matrix,
    NotASubspace,
    Subspace,
    column_space,
    complement_basis,
    contains,
    join,
    kernel,
    matmul,
    meet,
    quotient_dim,
)
from .posets import (
    EMPTY_OPEN,
    BlanketMode,
    FinitePoset,
    GradedPair,
    InvalidPair,
    InvalidPoset,
    PairOpen,
    UnknownElement,
    UpSet,
    blankets_of_open,
    degree_blankets,
    describe_open,
    enumerate_diagram_pairs,
    make_pair,
    min_elements,
    pair_blankets,
    principal_up_set,
)
from .complexes import FilteredComplex
from .memory import (
    blanket_union,
    boundaries_on_open,
    cycles_on_open,
    homological_memory,
    lifespan_rank,
)
from .calculus import (
    ChangeAction,
    GroupSquare,
    arr_add,
    arr_sub,
    check_cad1,
    check_cad2,
    check_monotone,
    degree_shift_action,
    derivative_mor,
    derivative_obj,
    integer_addition_action,
    integer_subtraction_action,
    pair_group_rank,
    rank_square,
    square_subtraction_action,
    union_rank,
    union_rank_derivative,
    union_rank_functor,
)
from .oracle import NotAChain, oracle_barcode
from .io import load_complex
from .diagrams import chain_diagram_counter, compute_diagram
from .verify import run_verification

__version__ = "0.1.0"
