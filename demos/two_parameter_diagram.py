"""A bifiltration on a 3x3 grid and its generalized diagram.

The loop closes once all three edges are present, at (1, 1), and is
filled at (2, 2).  Diagram multiplicities come from the derivative of the
blanket-union rank; we also query memory subspaces directly, including on
a non-principal open (the union of two incomparable principal ones).
"""
from persdiff import (
    BlanketMode,
    FieldSpec,
    FilteredComplex,
    FinitePoset,
    compute_diagram,
    cycles_on_open,
    homological_memory,
    make_pair,
    principal_up_set,
)

poset = FinitePoset.grid((3, 3))
complex_ = FilteredComplex.build(
    FieldSpec.gf(2),
    poset,
    [
        {"id": "a", "vertices": ["a"], "births": [[0, 0]]},
        {"id": "b", "vertices": ["b"], "births": [[0, 0]]},
        {"id": "c", "vertices": ["c"], "births": [[0, 0]]},
        {"id": "ab", "vertices": ["a", "b"], "births": [[1, 0]]},
        {"id": "bc", "vertices": ["b", "c"], "births": [[0, 1]]},
        {"id": "ac", "vertices": ["a", "c"], "births": [[1, 1]]},
        {"id": "abc", "vertices": ["a", "b", "c"], "births": [[2, 2]]},
    ],
)
assert complex_.validate() == []

print("diagram entries (principal pairs, nonzero multiplicity):")
for entry in compute_diagram(complex_):
    print(f"  H{entry.degree} birth {list(entry.birth)} death "
          f"{entry.death if entry.death == 'inf' else list(entry.death)} "
          f"x{entry.multiplicity}")

# Where does the loop live?  Cycles over an open are the meet over its
# minimal elements, so non-principal opens work too.
union_open = poset.closure([(1, 0), (0, 1)])
print("\ncycle dims in degree 1:")
print("  at up(1,1):            ", cycles_on_open(complex_, 1, principal_up_set(poset, (1, 1))).dim)
print("  at up(1,0) | up(0,1):  ", cycles_on_open(complex_, 1, union_open).dim)

pair = make_pair(poset, principal_up_set(poset, (1, 1)), principal_up_set(poset, (2, 2)))
memory = homological_memory(complex_, 1, pair)
print("\nmemory of the loop pair has dimension", memory.dim)
print("its canonical basis row (edge coordinates ab, ac, bc):", memory.basis.tolist())

# Both blanket modes give the same diagram here.
full = compute_diagram(complex_, mode=BlanketMode.FULL)
principal = compute_diagram(complex_, mode=BlanketMode.PRINCIPAL)
print("\nmodes agree on this fixture:", full == principal)
