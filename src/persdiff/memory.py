"""Cycle and boundary presheaves on opens, and blanket-union subspaces.

Cycles and pair memories are cut from the colimit cycles by cell
supports.  The support S_n(U) of an open is the set of n-cells present at
every point of U: the AND of the presence-table class rows of U's
minimal elements (presence only grows along the order), and every n-cell
on the empty open.  A chain is a cycle at every point of U exactly when
it is a cycle supported on S_n(U), so Z(U) = Z ∩ span S_n(U) for the
colimit cycles Z; the empty open gets Z itself, the top subobject, which
makes a pair with empty death open the "never dies" pair.  Boundaries
over an open are the meet of the per-point boundaries over its minimal
elements.  The memory of a pair (U, V) is Z(U) ∩ B(V), and every
boundary is a cycle (∂∂ = 0), so it is B(V) ∩ span S_n(U): one
restriction, no meet.  ``FilteredComplex.colimit_cycles`` refuses a
complex that fails validation, so the identity is never applied where it
does not hold.  Unions over iterated blankets of a pair feed the
finite-difference calculus.

A birth's pair memories in one degree come from one generator,
``birth_memories``, which reads each through ``homological_memory`` and
which the diagram walk and ``verify``'s rank identity both walk.  A
pair's degree-1 blanket memories have one definition, ``cover_memories``,
which ``blanket_union(d=1)`` and the diagram walk read, and a pair's
degree-1 union has one, ``cover_union``, their join, which
``blanket_union(d=1)`` and ``verify``'s rank identity read.
``cover_memories`` takes the birth open's cover state (``birth_covers``:
the open's support and cycles, and each cover's support and cycles,
from the memoized ``cover_points``), the death open's boundaries, and
the covers of the death open that give blankets of the pair
(``death_covers``); it builds no list of blanket pairs.  Each cover comes
with one point m: the element a FULL cover adds, or the element whose
principal up-set a PRINCIPAL cover is.  Supports shrink and boundaries
meet pointwise, and presence only grows along the order, so in both
modes a blanket's memory needs only the pair's own support and
boundaries and that point:

* a cover W of U has S(W) = S(U) ∧ S_m (for W = up(m) that is S_m,
  which lies inside S(U));
* a cover of V has boundaries B(V) ∩ B_m, which is B_m alone when the
  cover is up(m): every PRINCIPAL cover, and a FULL one whose point lies
  below all of V, as on the empty open or down a chain.

No cover open has its minimal elements worked out.  Blanket memories
are yielded one at a time, birth side first, so a caller that only
needs to know whether they reach the pair's memory stops early.  Every
blanket, of any degree, enlarges an open, so its memory lies inside the
pair's: ``blanket_union``, on a miss in its layer, reads the pair's
memory before anything else and gives a pair whose memory is zero the
degree's zero in every degree d >= 1, without listing its blankets.

Results are memoized on the complex.  The ``support``, ``open`` and
``union`` layers are keyed by degree and the opens' mask bytes
(``UpSet.key``), plus the blanket degree and whether the mode is FULL on
a union: an open's support with the cycles on it, the boundaries on an
open and a union, each found again in one lookup.  Cycles on an open are
those on its support, built once per distinct support
(``FilteredComplex.cycles_on_support``, keyed by the support's bytes).
No memory, a pair's or a blanket's, has an entry keyed by its pair: each
is cut once per pair of cycle and boundary subspaces (``cut``), and a
boundary meet or a union join is built once per distinct set of operand
subspaces (``_fold``).  Per-point boundaries come from the complex's
presence tables through ``boundaries_at``, by element index: one object
per presence class.  So opens with the same support, and pairs and
blankets with the same memories, share one subspace and reach one meet
or one join; so do FULL and PRINCIPAL mode.  Every subspace a layer
holds is the complex's one object for its value
(``FilteredComplex.canonical``): the colimit cycles, the degree's zero,
cycles on a support and per-class boundaries, and every cut, meet and
join result, which is one of its own operands or passes through the
complex's canonical table.  So the ``cut``, meet and join layers, keyed
by the operands' ``id``s, hit by value, and so does every ``is``
shortcut; the canonical table holds each operand for the complex's
lifetime, so an id in a standing key is never reused, and no entry holds
its operands.  A union with no non-zero blanket memory is the degree's
one zero (``FilteredComplex.zero``), so an empty union builds no
subspace.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import reduce

from .complexes import FilteredComplex
from .linalg import Matrix, Subspace, complement_basis, join, meet, quotient_dim, restrict
from .posets import (
    EMPTY_OPEN,
    BlanketMode,
    PairOpen,
    UpSet,
    cover_points,
    death_covers,
    degree_blankets,
    make_pair,
    min_elements,
)


def _fold(k: FilteredComplex, layer: str, op, subs: list[Subspace]) -> Subspace:
    """``op`` (meet or join) over the distinct subspaces of ``subs``, once
    per distinct set; the result is one of them or the complex's canonical
    object."""
    if len(subs) == 1:
        return subs[0]
    distinct = {id(s): s for s in subs}
    if len(distinct) == 1:
        return subs[0]
    cache = k.memo[layer]
    key = frozenset(distinct)
    sub = cache.get(key)
    if sub is None:
        sub = reduce(op, distinct.values())
        if id(sub) not in distinct:
            sub = k.canonical(sub)
        cache[key] = sub
    return sub


def _support(k: FilteredComplex, n: int, u: UpSet) -> tuple[int, Subspace]:
    """S_n(u), the n-cells present at every point of the open, as a row of
    the presence table: the AND of its minimal elements' class rows, and
    every n-cell on the empty open; with the cycles on it."""
    cache = k.memo["support"]
    key = (n, u.key)
    hit = cache.get(key)
    if hit is None:
        table = k.presence_table(n)
        rows, classes = table.rows, table.classes
        keep = (1 << k.ambient_dim(n)) - 1
        for i in min_elements(k.poset, u):
            keep &= rows[classes[i]]
        hit = cache[key] = (keep, k.cycles_on_support(n, keep))
    return hit


def cycles_on_open(k: FilteredComplex, n: int, u: UpSet) -> Subspace:
    """Cycles that have appeared by every point of the open: Z ∩ span S_n(u),
    one subspace per support."""
    return _support(k, n, u)[1]


def boundaries_on_open(k: FilteredComplex, n: int, v: UpSet) -> Subspace:
    """Boundaries that have appeared by every point of the open: the meet
    of the per-point boundaries over its minimal elements, and the colimit
    cycles on the empty open."""
    cache = k.memo["open"]
    key = (n, v.key)
    sub = cache.get(key)
    if sub is None:
        if v.is_empty:
            sub = k.colimit_cycles(n)
        else:
            sub = _fold(k, "meet", meet, [k.boundaries_at(n, i) for i in sorted(min_elements(k.poset, v))])
        cache[key] = sub
    return sub


def homological_memory(k: FilteredComplex, n: int, pair: PairOpen) -> Subspace:
    """Cycles appearing by the birth open that bound by the death open:
    Z(birth) ∩ B(death), which is B(death) ∩ span S_n(birth), cut from
    the birth's support and the death's boundaries; the pair has no entry."""
    birth, death = pair
    if death.bits & ~birth.bits:
        make_pair(k.poset, birth, death)  # raises InvalidPair
    keep, sub = _support(k, n, birth)
    if sub.dim and death.bits:
        sub = _cut(k, sub, boundaries_on_open(k, n, death), keep)
    return sub


def birth_memories(k: FilteredComplex, n: int, x: int, deaths) -> Iterator[tuple]:
    """``(y, death open, its boundaries or None, memory)`` for each death
    ``y`` of ``deaths`` (an element index, or None for the empty open), in
    the given order, whose pair with the birth up(x) has a non-zero memory
    in degree n; nothing when up(x) carries no cycles."""
    principal = k.poset.principal
    birth = principal[x]
    if not _support(k, n, birth)[1].dim:
        return
    for y in deaths:
        death = EMPTY_OPEN if y is None else principal[y]
        memory = homological_memory(k, n, PairOpen(birth, death))
        if memory.dim:
            yield y, death, None if y is None else boundaries_on_open(k, n, death), memory


def _cut(k: FilteredComplex, z: Subspace, b: Subspace, keep: int) -> Subspace:
    """``z`` ∩ ``b`` for the cycles ``z`` on the support ``keep``: ``b``
    restricted to ``keep``, once per pair of operands; ``z`` itself when it
    lies inside ``b``, ``b`` when it lies inside ``keep``, and otherwise the
    complex's canonical object."""
    cache = k.memo["cut"]
    key = (id(z), id(b))
    sub = cache.get(key)
    if sub is None:
        sub = restrict(b, keep)
        if sub.dim == z.dim:
            sub = z
        elif sub is not b:
            sub = k.canonical(sub)
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
    Every blanket enlarges an open, so its memory lies inside the pair's:
    for d >= 1 a pair whose memory is zero has the degree's zero, with no
    blanket listed and no union entry.  Subspaces are canonical, so the
    join order does not matter.
    """
    if d == 0:
        return homological_memory(k, n, pair)
    cache = k.memo["union"]
    birth, death = pair
    key = (n, birth.key, death.key, d, mode is BlanketMode.FULL)
    sub = cache.get(key)
    if sub is None:
        if d > 0 and not homological_memory(k, n, pair).dim:
            return k.zero(n)
        if d == 1:
            b = None if death.is_empty else boundaries_on_open(k, n, death)
            sub = cover_union(k, n, birth_covers(k, n, birth, mode), death, b)
        else:
            memories = [m for w in degree_blankets(k.poset, pair, d, mode) if (m := homological_memory(k, n, w)).dim]
            sub = _fold(k, "join", join, memories) if memories else k.zero(n)
        cache[key] = sub
    return sub


def birth_covers(k: FilteredComplex, n: int, birth: UpSet, mode: BlanketMode) -> tuple:
    """The birth side of every degree-1 blanket of a pair with this birth
    open, in degree n: the open and the mode, the open's support S and
    cycles, and per cover of the open, in cover order, the cover's support
    S ∧ S_m and its cycles."""
    support, z = _support(k, n, birth)
    table = k.presence_table(n)
    rows, classes = table.rows, table.classes
    grown = []
    for m in cover_points(k.poset, birth, mode):
        keep = support & rows[classes[m]]
        grown.append((keep, k.cycles_on_support(n, keep)))
    return birth, mode, support, z, grown


def cover_memories(k: FilteredComplex, n: int, covers: tuple, death: UpSet, b: Subspace | None) -> Iterator[Subspace]:
    """The non-zero memories of the degree-1 blankets of a pair, birth
    side first, each built as it is asked for.

    ``covers`` is the birth open's :func:`birth_covers`, and ``b`` the
    death open's boundaries (None on the empty open).  A birth-side
    blanket (W, V) has the memory B(V) ∩ span S(W), or Z(W) when V is
    empty.  The death-side ones come from the death open's
    :func:`death_covers`: (U, V') has Z(U) ∩ B(V'), with
    B(V') = B(V) ∩ B_m for the cover's point m, which is B_m alone when
    V' = up(m).
    """
    birth, mode, support, z, grown = covers
    for keep, sub in grown:
        if sub.dim and b is not None:
            sub = _cut(k, sub, b, keep)
        if sub.dim:
            yield sub
    if z.dim:
        principal = k.poset.principal
        for v, m in death_covers(k.poset, birth, death, mode):
            bm = k.boundaries_at(n, m)
            if v.bits != principal[m].bits:
                bm = _fold(k, "meet", meet, [b, bm])
            sub = _cut(k, z, bm, support)
            if sub.dim:
                yield sub


def cover_union(k: FilteredComplex, n: int, covers: tuple, death: UpSet, b: Subspace | None) -> Subspace:
    """The degree-1 blanket union of a pair: the join of its
    :func:`cover_memories`, and the degree's zero when there is none.
    ``blanket_union(d=1)`` and ``verify``'s rank identity both read it."""
    memories = list(cover_memories(k, n, covers, death, b))
    return _fold(k, "join", join, memories) if memories else k.zero(n)


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
