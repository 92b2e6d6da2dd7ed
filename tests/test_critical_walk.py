"""The critical-pair walk behind ``diagram`` against full enumeration.

Every poset with at most four elements, each with small random complexes
over GF(2) whose cells have arbitrary up-sets of presence (so several
births per cell): in both blanket modes, with and without zero entries,
``compute_diagram`` must list exactly what ``pair_group_rank`` gives over
``enumerate_diagram_pairs``, entry for entry and in the same order.
"""
import random
from itertools import product

import numpy as np

from persdiff.calculus import pair_group_rank
from persdiff.complexes import FilteredComplex
from persdiff.diagrams import DiagramEntry, compute_diagram, open_repr
from persdiff.posets import BlanketMode, FinitePoset, UpSet, enumerate_diagram_pairs, min_elements

from conftest import GF2, build_long_chain
from exhaustive import all_up_sets

# Candidate simplices, faces first: two triangles sharing the edge bc.
SIMPLICES = ("a", "b", "c", "d", "ab", "ac", "bc", "bd", "cd", "abc", "bcd")


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


def random_cells(rng, p, ups):
    """A valid complex: each simplex is present on a random non-empty up-set
    inside those of its faces, or left out."""
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


def reference_diagram(k, mode, include_zero):
    p = k.poset
    return [
        DiagramEntry(n, open_repr(p, pair.birth), open_repr(p, pair.death), mult)
        for n in range(max(k.max_dim, 0) + 1)
        for pair in enumerate_diagram_pairs(p)
        for mult in (pair_group_rank(k, n, pair, mode),)
        if mult or include_zero
    ]


def reference_twins(k, n, leq):
    """Lower covers with the same n-cells present, straight from the definition."""
    size = len(leq)
    out = []
    for x in range(size):
        below = [w for w in range(size) if w != x and leq[w, x]]
        covers = [w for w in below if not any(v != w and leq[w, v] for v in below)]
        same = [w for w in covers if k.cells_present(n, w) == k.cells_present(n, x)]
        out.append(sum(1 << w for w in same))
    return out


def test_walk_equals_full_enumeration_on_every_small_poset():
    rng = random.Random(4)
    posets = list(all_posets())
    assert len(posets) == 1 + 3 + 19 + 219
    for leq in posets:
        p = FinitePoset([str(i) for i in range(len(leq))], leq)
        ups = all_up_sets(leq)
        for _ in range(3):
            cells = random_cells(rng, p, ups)
            k = FilteredComplex.build(GF2, p, cells)
            fresh = FilteredComplex.build(GF2, p, cells)
            for n in range(max(k.max_dim, 0) + 2):
                assert k.presence_twins(n) == reference_twins(k, n, leq)
            for mode in BlanketMode:
                for include_zero in (False, True):
                    got = compute_diagram(k, mode=mode, include_zero=include_zero)
                    assert got == reference_diagram(fresh, mode, include_zero), (leq, cells)


def test_long_chain_visits_only_critical_pairs():
    """Three cells on a 2,048-chain: in both blanket modes the walk
    evaluates a handful of pairs, not the two million principal ones."""
    expected = [
        DiagramEntry(0, (0,), "inf", 1),
        DiagramEntry(0, (1024,), (2047,), 1),
    ]
    for mode in BlanketMode:
        k = build_long_chain()
        assert compute_diagram(k, mode=mode) == expected
        assert len(k.memo["memory"]) <= 16, mode
