"""Blankets: the covers of opens, on two instructive plane posets.

A blanket of an open is the next open one step earlier (a cover in the
inclusion order).  For pairs of nested opens, exactly one coordinate is
blanketed at a time, and death-side covers must stay inside the birth
open.  The second poset shows where the two cover notions diverge: the
full-lattice covers can be non-principal opens, while principal-only mode
sticks to principal up-sets.
"""
from persdiff import (
    BlanketMode,
    FinitePoset,
    blankets_of_open,
    degree_blankets,
    describe_open,
    make_pair,
    pair_blankets,
    principal_up_set,
)


def plane_poset(coords):
    labels = list(coords)
    leq = [
        [all(a <= b for a, b in zip(coords[x], coords[y])) for y in labels]
        for x in labels
    ]
    return FinitePoset(labels, leq, grades=list(coords.values()))


def show_pair_blankets(p, pair, mode):
    listed = pair_blankets(p, pair, mode)
    names = [f"({describe_open(p, x.birth)}, {describe_open(p, x.death)})" for x in listed]
    print(f"  {mode.value:9s}: " + (", ".join(names) if names else "none"))


print("== five corner points ==")
corner = plane_poset({"r0": (1, 1), "r1": (4, 4), "k0": (0, 1), "k1": (3, 3), "k2": (1, 0)})
pair = make_pair(corner, principal_up_set(corner, "r0"), principal_up_set(corner, "r1"))
print(f"pair ({describe_open(corner, pair.birth)}, {describe_open(corner, pair.death)}):")
show_pair_blankets(corner, pair, BlanketMode.FULL)
show_pair_blankets(corner, pair, BlanketMode.PRINCIPAL)

print("\n== five offset points (the modes diverge here) ==")
offset = plane_poset({"x0": (2, 2), "x1": (2, 4), "y0": (0, 2), "y1": (1, 3), "y2": (2, 0)})
x1 = principal_up_set(offset, "x1")
print("covers of the top principal open:")
for mode in (BlanketMode.FULL, BlanketMode.PRINCIPAL):
    names = [describe_open(offset, u) for u in blankets_of_open(offset, x1, mode)]
    print(f"  {mode.value:9s}: " + ", ".join(names))

pair2 = make_pair(offset, principal_up_set(offset, "x0"), x1)
print(f"pair ({describe_open(offset, pair2.birth)}, {describe_open(offset, pair2.death)}):")
show_pair_blankets(offset, pair2, BlanketMode.FULL)
show_pair_blankets(offset, pair2, BlanketMode.PRINCIPAL)
print("full mode keeps the equal-coordinate cover and a non-principal open;")
print("principal mode reproduces the strict principal pairs only.")

print("\n== iterated blankets walk away from the pair ==")
for steps in range(4):
    level = degree_blankets(corner, pair, steps)
    names = sorted(
        f"({describe_open(corner, x.birth)}, {describe_open(corner, x.death)})" for x in level
    )
    print(f"  {steps} step(s): " + (", ".join(names) if names else "exhausted"))
