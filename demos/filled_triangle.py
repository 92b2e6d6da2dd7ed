"""A first walk-through on the filled triangle.

Three vertices enter at grade 0, the three edges at grade 1, and the
2-cell at grade 2.  Two components die when the edges arrive, one
component lives forever, and the boundary loop lives on [1, 2).  The demo
computes that barcode three ways: the lifespan quotient, the derivative of
the blanket-union rank, and the classic column-reduction oracle.
"""
from persdiff import (
    EMPTY_OPEN,
    FieldSpec,
    FilteredComplex,
    FinitePoset,
    enumerate_diagram_pairs,
    lifespan_rank,
    make_pair,
    min_elements,
    oracle_barcode,
    principal_up_set,
)
from persdiff.calculus import union_rank_derivative

poset = FinitePoset.chain(3)
complex_ = FilteredComplex.build(
    FieldSpec.gf(2),
    poset,
    [
        {"id": "a", "vertices": ["a"], "births": [0]},
        {"id": "b", "vertices": ["b"], "births": [0]},
        {"id": "c", "vertices": ["c"], "births": [0]},
        {"id": "ab", "vertices": ["a", "b"], "births": [1]},
        {"id": "ac", "vertices": ["a", "c"], "births": [1]},
        {"id": "bc", "vertices": ["b", "c"], "births": [1]},
        {"id": "abc", "vertices": ["a", "b", "c"], "births": [2]},
    ],
)
assert complex_.validate() == []

print("bars via the lifespan quotient and via the degree-shift derivative:")
for n in range(2):
    for pair in enumerate_diagram_pairs(poset):
        quotient = lifespan_rank(complex_, n, pair)
        derivative = union_rank_derivative(complex_, n, pair, 0, 1)
        assert quotient == derivative
        if quotient:
            birth = min(pair.birth.members)
            death = "inf" if pair.death.is_empty else min(pair.death.members)
            print(f"  H{n} [{birth}, {death}) x{quotient}")

print("\nthe column-reduction oracle agrees:")
bars = oracle_barcode(complex_)
for (n, birth, death), mult in sorted(bars.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2] is None, kv[0][2] or 0)):
    print(f"  H{n} [{birth}, {'inf' if death is None else death}) x{mult}")

# A single query: the loop is born at 1 and already filled at 2.
pair = make_pair(poset, principal_up_set(poset, 1), principal_up_set(poset, 2))
print("\nloop pair generators:", sorted(min_elements(poset, pair.birth)), "->",
      sorted(min_elements(poset, pair.death)))
print("multiplicity:", lifespan_rank(complex_, 1, pair))

# Essential classes use the empty death open.
essential = make_pair(poset, principal_up_set(poset, 0), EMPTY_OPEN)
print("essential components born at 0:", lifespan_rank(complex_, 0, essential))
