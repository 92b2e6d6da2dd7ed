"""Brute-force reference computations backing the frozen expected values.

Everything here enumerates: spans over small prime fields, all up-sets of
small posets, random complexes on every poset with at most four elements,
meets over every point of an open.  Slow but unarguable.
"""
import random
from itertools import product

import numpy as np


def span_set(p: int, rows, ambient: int) -> frozenset:
    """Every vector (as a tuple) in the GF(p)-span of the given rows."""
    rows = [tuple(int(x) % p for x in r) for r in rows]
    vectors = {tuple([0] * ambient)}
    for coeffs in product(range(p), repeat=len(rows)):
        v = [0] * ambient
        for c, row in zip(coeffs, rows):
            for i, x in enumerate(row):
                v[i] = (v[i] + c * x) % p
        vectors.add(tuple(v))
    return frozenset(vectors)


def span_rank(p: int, rows, ambient: int) -> int:
    size = len(span_set(p, rows, ambient))
    rank = 0
    while p**rank < size:
        rank += 1
    assert p**rank == size
    return rank


def kernel_set(p: int, matrix_rows, cols: int) -> frozenset:
    """All GF(p) vectors annihilated by the matrix, by enumeration."""
    out = set()
    for v in product(range(p), repeat=cols):
        image = [sum(row[j] * v[j] for j in range(cols)) % p for row in matrix_rows]
        if all(x == 0 for x in image):
            out.add(v)
    return frozenset(out)


def all_posets(max_elements=4):
    """Every partial order on 1..max_elements labelled elements, as leq matrices."""
    for n in range(1, max_elements + 1):
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        for chosen in product((False, True), repeat=len(off)):
            leq = np.eye(n, dtype=bool)
            for (i, j), on in zip(off, chosen):
                leq[i, j] = on
            if np.any(leq & leq.T & ~np.eye(n, dtype=bool)):
                continue
            if np.array_equal((leq.astype(int) @ leq.astype(int)) > 0, leq):
                yield leq


def all_up_sets(leq: np.ndarray) -> list[frozenset]:
    """Every upward closed subset of a poset given by its order matrix."""
    n = leq.shape[0]
    out = []
    for bits in product((False, True), repeat=n):
        s = {i for i in range(n) if bits[i]}
        if all(int(j) in s for i in s for j in np.nonzero(leq[i])[0]):
            out.append(frozenset(s))
    return out


# Candidate simplices, faces first: two triangles sharing the edge bc.
SIMPLICES = ("a", "b", "c", "d", "ab", "ac", "bc", "bd", "cd", "abc", "bcd")


def random_cells(rng, p, ups):
    """A valid complex: each simplex is present on a random non-empty up-set
    inside those of its faces, or left out."""
    from persdiff.posets import UpSet, min_elements

    presence = {}
    cells = []
    for s in SIMPLICES:
        faces = [s[:i] + s[i + 1:] for i in range(len(s))] if len(s) > 1 else []
        if any(f not in presence for f in faces) or rng.random() < 0.25:
            continue
        room = frozenset(range(p.n)).intersection(*(presence[f] for f in faces))
        options = [u for u in ups if u and u <= room]
        if not options:
            continue
        presence[s] = u = rng.choice(options)
        births = sorted(min_elements(p, UpSet(u)))
        cells.append({"id": s, "vertices": list(s), "births": births})
    return cells


def small_complexes(field=None):
    """Three random complexes (over GF(2) unless ``field`` is given) on every
    poset with at most four elements, each with its order matrix and cell
    records."""
    from persdiff.complexes import FilteredComplex
    from persdiff.fields import FieldSpec
    from persdiff.posets import FinitePoset

    rng = random.Random(4)
    posets = list(all_posets())
    assert len(posets) == 1 + 3 + 19 + 219
    for leq in posets:
        p = FinitePoset([str(i) for i in range(len(leq))], leq)
        ups = all_up_sets(leq)
        for _ in range(3):
            cells = random_cells(rng, p, ups)
            yield leq, cells, FilteredComplex.build(field or FieldSpec.gf(2), p, cells)


def meet_over_all_points(k, n, members) -> object:
    """Meet of per-point cycle subspaces over every point of an open."""
    from persdiff.linalg import meet

    points = sorted(members)
    if not points:
        return k.colimit_cycles(n)
    sub = k.cycles_at(n, points[0])
    for x in points[1:]:
        sub = meet(sub, k.cycles_at(n, x))
    return sub
