"""Blanket unions at degree 2 and 3 against the definitions.

No diagram reads a union past degree 1, so these are the tests that see
one.  The reference builds everything by enumeration on every poset with
at most four elements: opens from ``all_up_sets``, a pair's degree-1
blankets as the covers of either open in the up-set lattice (FULL) or
among principal up-sets (PRINCIPAL), degree-d blankets as the pairs
exactly d such steps away, and memories as sets of vectors over GF(2)
and GF(3): the cycles supported on the cells present at every point of
the birth open, met with the boundaries present at every point of the
death open.
"""
import pytest

import persdiff.memory
from persdiff.fields import FieldSpec
from persdiff.memory import blanket_union
from persdiff.posets import BlanketMode, PairOpen, UpSet

from exhaustive import all_up_sets, kernel_set, small_complexes, span_set

GF3 = FieldSpec.gf(3)


def span_of(p, vectors, ambient):
    """The GF(p)-span of a set of vectors, closed one vector at a time."""
    out = {tuple([0] * ambient)}
    for v in vectors:
        if v not in out:
            out = {tuple((a + c * b) % p for a, b in zip(s, v)) for s in out for c in range(p)}
    return frozenset(out)


class Reference:
    """Covers, blankets and memories of one small complex, by enumeration."""

    def __init__(self, leq, k):
        self.k = k
        self.p = k.field.characteristic
        size = len(leq)
        self.ups = all_up_sets(leq)
        self.principal = [frozenset(j for j in range(size) if leq[i][j]) for i in range(size)]
        self.leq = leq
        self.memories = {}

    def present(self, n, x):
        return [j for j, c in enumerate(self.k.cells_of_dim(n)) if any(self.leq[b][x] for b in c.births)]

    def cycles(self, n, u):
        """Chains that are cycles at every point of the open; every cycle on
        the empty open."""
        cols = self.k.ambient_dim(n)
        z = kernel_set(self.p, self.k.boundary_matrix(n).tolist(), cols)
        for x in u:
            here = set(self.present(n, x))
            z = frozenset(v for v in z if all(c in here or not e for c, e in enumerate(v)))
        return z

    def boundaries(self, n, v):
        """Boundaries present at every point of the open; every cycle on the
        empty open."""
        if not v:
            return self.cycles(n, v)
        columns = list(zip(*self.k.boundary_matrix(n + 1).tolist()))
        out = None
        for y in v:
            here = span_set(self.p, [columns[j] for j in self.present(n + 1, y)], self.k.ambient_dim(n))
            out = here if out is None else out & here
        return out

    def memory(self, n, pair):
        key = (n, pair)
        if key not in self.memories:
            birth, death = pair
            self.memories[key] = self.cycles(n, birth) & self.boundaries(n, death)
        return self.memories[key]

    def covers(self, u, mode):
        if mode is BlanketMode.FULL:
            return [w for w in self.ups if u < w and len(w) == len(u) + 1]
        above = [w for w in set(self.principal) if u < w]
        return [w for w in above if not any(v < w for v in above)]

    def blankets(self, pair, mode):
        birth, death = pair
        out = {(w, death) for w in self.covers(birth, mode)}
        for v in self.covers(death, mode):
            if v <= birth and not (mode is BlanketMode.PRINCIPAL and v == birth):
                out.add((birth, v))
        return out

    def union(self, n, pair, d, mode):
        frontier = {pair}
        for _ in range(d):
            frontier = {w for x in frontier for w in self.blankets(x, mode)}
        vectors = set().union(*(self.memory(n, w) for w in frontier))
        return span_of(self.p, sorted(vectors), self.k.ambient_dim(n))


def as_set(k, sub):
    p = k.field.characteristic
    return span_set(p, sub.basis.tolist(), sub.ambient_dim)


@pytest.mark.parametrize("field", [FieldSpec.gf(2), GF3], ids=lambda f: f.token())
def test_degree_two_and_three_unions_match_the_definitions(field):
    """Every pair of a principal birth open and any death open inside it, on
    the first complex of every poset with at most four elements, in both
    modes and every degree."""
    last = None
    nonzero = 0
    for leq, cells, k in small_complexes(field):
        if leq is last or k.max_dim < 0:
            continue
        last = leq
        ref = Reference(leq, k)
        births = sorted(set(ref.principal), key=sorted)
        pairs = [(u, v) for u in births for v in ref.ups if v <= u]
        for n in range(k.max_dim + 1):
            for birth, death in pairs:
                pair = PairOpen(UpSet(birth), UpSet(death))
                for mode in BlanketMode:
                    for d in (2, 3):
                        want = ref.union(n, (birth, death), d, mode)
                        assert as_set(k, blanket_union(k, n, pair, d, mode)) == want, (leq, cells, n, pair, d, mode)
                        nonzero += len(want) > 1
    assert nonzero


def refuse(*args, **kwargs):
    raise AssertionError("a pair whose memory is zero needs no blankets")


@pytest.mark.parametrize("field", [FieldSpec.gf(2), GF3], ids=lambda f: f.token())
def test_a_pair_with_zero_memory_has_a_zero_union_in_every_degree(field, monkeypatch):
    """Every blanket enlarges an open, so its memory lies inside the
    pair's: on every principal pair whose memory is zero, ``blanket_union``
    gives the degree's zero in degrees 1 to 4, in both modes, without
    listing a blanket or joining a cover memory; the reference agrees."""
    monkeypatch.setattr(persdiff.memory, "degree_blankets", refuse)
    monkeypatch.setattr(persdiff.memory, "cover_union", refuse)
    last = None
    zero_pairs = 0
    for leq, cells, k in small_complexes(field):
        if leq is last or k.max_dim < 0:
            continue
        last = leq
        ref = Reference(leq, k)
        births = sorted(set(ref.principal), key=sorted)
        pairs = [(u, v) for u in births for v in [frozenset(), *births] if v < u]
        for n in range(k.max_dim + 1):
            for birth, death in pairs:
                if len(ref.memory(n, (birth, death))) > 1:
                    continue
                zero_pairs += 1
                pair = PairOpen(UpSet(birth), UpSet(death))
                for mode in BlanketMode:
                    for d in (1, 2, 3, 4):
                        assert blanket_union(k, n, pair, d, mode) is k.zero(n)
                        assert len(ref.union(n, (birth, death), d, mode)) == 1, (leq, cells, n, pair, d, mode)
    assert zero_pairs
