"""Generalized persistence pair-group ranks via blanket-shift differences.

Exact linear algebra over GF(p) or the rationals, multifiltered chain
complexes over finite posets, cycle/boundary presheaves on up-sets, and
generalized persistence diagrams whose multiplicities are the derivative
at (0, 1) of a blanket-union rank.  The finite-difference calculus behind
that derivative is imported from :mod:`persdiff.calculus`; every other
name from the module that defines it.
"""

from .fields import FieldSpec
from .posets import (
    EMPTY_OPEN,
    BlanketMode,
    FinitePoset,
    GradedPair,
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
from .memory import cycles_on_open, homological_memory, lifespan_rank
from .oracle import oracle_barcode
from .io import load_complex
from .diagrams import compute_diagram
from .verify import run_verification

__version__ = "0.1.0"
