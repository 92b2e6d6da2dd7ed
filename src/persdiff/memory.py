"""Cycle and boundary presheaves on opens, and blanket-union subspaces.

Cycles over an open are the meet of the per-point cycle subspaces; by
monotonicity it suffices to meet over the minimal elements.  The empty
open produces the top subobject (the colimit cycles), which makes a pair
with empty death open the "never dies" pair.  The memory of a pair is the
meet of birth-side cycles with death-side boundaries; unions over iterated
blankets of a pair feed the finite-difference calculus.

Results are memoized on the complex in two layers.  The ``open``,
``memory`` and ``union`` layers are keyed by degree and the opens' mask
bytes (``UpSet.key``), plus the kind on an open and the blanket degree
and whether the mode is FULL on a union, and answer a repeated query in
one lookup.  Below them, each meet and each union join runs once per
distinct set of operand subspaces (``_fold``).  Per-point subspaces come
from the complex's per-degree presence tables through ``cycles_at`` and
``boundaries_at``, by element index: one object per presence class.
So opens whose minimal elements have the same
presence, and pairs and blankets with the same memories, reach one meet
or one join; so do FULL and PRINCIPAL mode.  The meet and join layers are keyed by
the set of the operands' ``id``s, and each entry holds its operands, so
an id in a standing key belongs to a live object and is never reused.
A union with no non-zero blanket memory is the degree's one zero
(``FilteredComplex.zero``), the object the empty presence classes hold,
so an empty union builds no subspace.  A union reads
its blankets' memories straight from the ``memory`` layer.
"""
from __future__ import annotations

from functools import reduce

from .complexes import FilteredComplex
from .linalg import Matrix, Subspace, complement_basis, join, meet, quotient_dim
from .posets import (
    BlanketMode,
    PairOpen,
    UpSet,
    degree_blankets,
    make_pair,
    min_elements,
    pair_blankets,
)


def _fold(k: FilteredComplex, layer: str, op, subs: list[Subspace]) -> Subspace:
    """``op`` (meet or join) over the distinct subspaces of ``subs``, once
    per distinct set; the entry holds the operands its key names."""
    if len(subs) == 1:
        return subs[0]
    distinct = {id(s): s for s in subs}
    if len(distinct) == 1:
        return subs[0]
    cache = k.memo[layer]
    key = frozenset(distinct)
    hit = cache.get(key)
    if hit is None:
        operands = tuple(distinct.values())
        hit = cache[key] = (operands, reduce(op, operands))
    return hit[1]


def cycles_on_open(k: FilteredComplex, n: int, u: UpSet) -> Subspace:
    """Cycles that have appeared by every point of the open."""
    return _on_open(k, n, u, False)


def boundaries_on_open(k: FilteredComplex, n: int, v: UpSet) -> Subspace:
    """Boundaries that have appeared by every point of the open."""
    return _on_open(k, n, v, True)


def _on_open(k: FilteredComplex, n: int, u: UpSet, boundaries: bool) -> Subspace:
    """Meet of the per-point cycles (or boundaries) over the open's minimal
    elements; the colimit cycles on the empty open."""
    cache = k.memo["open"]
    key = (n, u.key, boundaries)
    sub = cache.get(key)
    if sub is None:
        if u.is_empty:
            sub = k.colimit_cycles(n)
        else:
            at = k.boundaries_at if boundaries else k.cycles_at
            sub = _fold(k, "meet", meet, [at(n, i) for i in sorted(min_elements(k.poset, u))])
        cache[key] = sub
    return sub


def homological_memory(k: FilteredComplex, n: int, pair: PairOpen) -> Subspace:
    """Cycles appearing by the birth open that bound by the death open."""
    birth, death = pair
    cache = k.memo["memory"]
    key = (n, birth.key, death.key)
    sub = cache.get(key)
    if sub is None:
        if death.bits & ~birth.bits:
            make_pair(k.poset, birth, death)  # raises InvalidPair
        sub = cycles_on_open(k, n, birth)
        if not death.is_empty:
            sub = _fold(k, "meet", meet, [sub, boundaries_on_open(k, n, death)])
        cache[key] = sub
    return sub


def blanket_union(
    k: FilteredComplex,
    n: int,
    pair: PairOpen,
    d: int,
    mode: BlanketMode = BlanketMode.FULL,
) -> Subspace:
    """Join of the memories of all degree-d blankets of the pair.

    d = 0 gives the pair's own memory; an empty blanket set gives zero.
    Subspaces are canonical, so the join order does not matter.
    """
    if d == 0:
        return homological_memory(k, n, pair)
    p = k.poset
    cache = k.memo["union"]
    key = (n, pair.birth.key, pair.death.key, d, mode is BlanketMode.FULL)
    sub = cache.get(key)
    if sub is None:
        blankets = pair_blankets(p, pair, mode) if d == 1 else degree_blankets(p, pair, d, mode)
        known = k.memo["memory"]
        memories = []
        for w in blankets:
            m = known.get((n, w.birth.key, w.death.key))
            if m is None:
                m = homological_memory(k, n, w)
            if m.dim:
                memories.append(m)
        sub = cache[key] = _fold(k, "join", join, memories) if memories else k.zero(n)
    return sub


def lifespan_rank(
    k: FilteredComplex,
    n: int,
    pair: PairOpen,
    mode: BlanketMode = BlanketMode.FULL,
) -> int:
    """Rank of the memory quotient by the union of the degree-1 blankets.

    Counts the classes born exactly at the birth boundary and filled in
    exactly at the death boundary.
    """
    return quotient_dim(
        homological_memory(k, n, pair),
        blanket_union(k, n, pair, 1, mode),
    )


def lifespan_representatives(
    k: FilteredComplex,
    n: int,
    pair: PairOpen,
    mode: BlanketMode = BlanketMode.FULL,
) -> Matrix:
    """A (non-canonical) basis of a complement of the blanket union."""
    return complement_basis(
        homological_memory(k, n, pair),
        blanket_union(k, n, pair, 1, mode),
    )
