"""The finite-difference calculus behind the diagram multiplicities.

Integer commuting squares form a category on which subtraction acts; any
integer-valued functor F out of a carrier with a monoid action has the
canonical derivative F(x) - F(x (+) d).  Two scalar warm-ups show the
axioms in action (and how monotonicity of a derivative can fail), then the
blanket-shift instance recovers the triangle's loop multiplicity as a
derivative evaluated at (0, 1).
"""
from persdiff import FieldSpec, FilteredComplex, FinitePoset, GradedPair, make_pair, principal_up_set
from persdiff.calculus import (
    GroupSquare,
    arr_add,
    arr_sub,
    check_cad1,
    check_cad2,
    check_monotone,
    degree_shift_action,
    derivative_obj,
    integer_addition_action,
    rank_square,
    union_rank,
    union_rank_functor,
)

print("== squares add and subtract componentwise ==")
s = GroupSquare(src=1, dst=2, top=0, bottom=1)
t = GroupSquare(src=3, dst=3, top=1, bottom=1)
print("s + t =", arr_add(s, t))
print("s - s =", arr_sub(s, s))

print("\n== translation on the naturals is differentiable ==")
add = integer_addition_action()
shift_by_3 = lambda x: x + 3
second_projection = lambda x, d: d
samples = [(a, b) for a in range(6) for b in range(4)]
triples = [(a, b, c) for a in range(5) for b in range(3) for c in range(3)]
print("cad1:", check_cad1(shift_by_3, second_projection, add, add, samples).message())
print("cad2:", check_cad2(shift_by_3, second_projection, add, add, triples).message())

print("\n== a monotone map whose derivative is not monotone ==")
k, plateau_end = 5, 8


def plateau(x):
    if x <= k - 1:
        return x + 1
    if x <= plateau_end:
        return k
    return k + x - plateau_end + 1


d_plateau = lambda x, y: plateau(x + y) - plateau(x)
print("cad1:", check_cad1(plateau, d_plateau, add, add, samples).message())
report = check_monotone(d_plateau, [((k - 2, 1), (k - 1, 1))])
print("monotonicity:", report.message())
print(f"  (the derivative drops from {d_plateau(k-2, 1)} to {d_plateau(k-1, 1)} "
      "between comparable inputs, so no order-preserving derivative exists)")

print("\n== the blanket-shift derivative computes diagram multiplicities ==")
poset = FinitePoset.chain(3)
triangle = FilteredComplex.build(
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
pair = make_pair(poset, principal_up_set(poset, 1), principal_up_set(poset, 2))
for n in (0, 1, 2):
    print(f"union rank at blanket degree {n}:", union_rank(triangle, 1, pair, n))
F = union_rank_functor(triangle, 1)
shift = degree_shift_action()
print("derivative at ((pair, 0), 1):", derivative_obj(F, shift, GradedPair(pair, 0), 1))

print("\n== the rank functor sends inclusions to zero-top squares ==")
a = triangle.boundaries_at(1, 2)
b = triangle.cycles_at(1, 2)
print("boundaries inside cycles:", rank_square(a, b))
