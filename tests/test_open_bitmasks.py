"""Bitmask opens against a frozenset reference, on every up-set of small posets.

The reference below states each definition over frozensets, orders
included: ``verify`` draws samples from ``pair_blankets`` lists, so their
order is part of the output.
"""
import random

import pytest

from persdiff import (
    BlanketMode,
    FinitePoset,
    InvalidPair,
    PairOpen,
    UpSet,
    blankets_of_open,
    is_up_closed,
    make_pair,
    min_elements,
    pair_blankets,
    principal_up_set,
)

from conftest import corner_grid_poset, offset_grid_poset
from dense_reference import dense_leq
from exhaustive import all_up_sets

MODES = (BlanketMode.FULL, BlanketMode.PRINCIPAL)


def up_of(p, i):
    return frozenset(j for j in range(p.n) if p.leq(i, j))


def ref_min_elements(p, u):
    return frozenset(i for i in u if not any(j != i and p.leq(j, i) for j in u))


def ref_closure(p, members):
    return frozenset().union(*(up_of(p, i) for i in members))


def ref_is_up_closed(p, members):
    return all(up_of(p, i) <= set(members) for i in members)


def ref_blankets(p, u, mode):
    if mode is BlanketMode.FULL:
        out = [u | {m} for m in range(p.n) if m not in u and up_of(p, m) - {m} <= u]
    else:
        cands = [up_of(p, i) for i in range(p.n) if u < up_of(p, i)]
        out = [c for c in cands if not any(o < c for o in cands)]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def ref_pair_blankets(p, birth, death, mode):
    out = {(w, death) for w in ref_blankets(p, birth, mode)}
    for z in ref_blankets(p, death, mode):
        if z <= birth and not (mode is BlanketMode.PRINCIPAL and z == birth):
            out.add((birth, z))
    return sorted(out, key=lambda x: (sorted(x[0]), len(x[1]), sorted(x[1])))


def random_small_poset(rng):
    n = rng.randint(1, 6)
    order = rng.sample(range(n), n)  # a linear extension unrelated to the indices
    covers = [
        (order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
    ]
    return FinitePoset.from_covers(range(n), covers)


def small_posets():
    rng = random.Random(83)
    fixed = [
        FinitePoset.chain(5),
        FinitePoset.grid((2, 3)),
        FinitePoset.grid((2, 1, 2)),
        corner_grid_poset(),
        offset_grid_poset(),
    ]
    return fixed + [random_small_poset(rng) for _ in range(25)]


@pytest.fixture(scope="module", params=range(30))
def poset_and_up_sets(request):
    p = small_posets()[request.param]
    return p, all_up_sets(dense_leq(p))


def as_sets(opens):
    return [u.members for u in opens]


def test_open_queries_match_reference(poset_and_up_sets):
    p, ups = poset_and_up_sets
    for s in ups:
        u = UpSet(s)
        assert min_elements(p, u) == ref_min_elements(p, s)
        assert p.closure(sorted(s)) == u
        for mode in MODES:
            assert as_sets(blankets_of_open(p, u, mode)) == ref_blankets(p, s, mode)
    for bits in range(2 ** p.n):
        members = [i for i in range(p.n) if bits >> i & 1]
        assert is_up_closed(p, members) == ref_is_up_closed(p, members)
        assert p.closure(members).members == ref_closure(p, members)


def test_pairs_match_reference(poset_and_up_sets):
    p, ups = poset_and_up_sets
    for b in ups:
        for d in ups:
            birth, death = UpSet(b), UpSet(d)
            if not d <= b:
                with pytest.raises(InvalidPair):
                    make_pair(p, birth, death)
                continue
            pair = make_pair(p, birth, death)
            assert pair == PairOpen(birth, death)
            for mode in MODES:
                got = [(x.birth.members, x.death.members) for x in pair_blankets(p, pair, mode)]
                assert got == ref_pair_blankets(p, b, d, mode)


def test_constructions_compare_and_hash_equal(poset_and_up_sets):
    p, ups = poset_and_up_sets
    for i in range(p.n):
        made = [
            principal_up_set(p, i),
            p.closure([i]),
            UpSet(up_of(p, i)),
            UpSet(bits=principal_up_set(p, i).bits),
        ]
        assert all(u == made[0] and hash(u) == hash(made[0]) for u in made)
        assert len({p.open_id(u) for u in made}) == 1
    seen = {(0, PairOpen(p.top(), UpSet(s))) for s in ups}
    seen |= {(0, PairOpen(p.closure(range(p.n)), p.closure(sorted(s)))) for s in ups}
    assert len(seen) == len(ups)


def test_chain_principal_up_sets_get_distinct_hashes_and_ids():
    # As ints, the up-sets 2^n - 2^i of a chain hash onto about 61 values.
    p = FinitePoset.chain(1024)
    opens = [principal_up_set(p, i) for i in range(p.n)]
    assert len({hash(u) for u in opens}) == p.n
    assert len({p.open_id(u) for u in opens}) == p.n
    assert len({p.open_id(UpSet(u.members)) for u in opens}) == p.n


def test_an_open_from_another_poset_is_looked_up_by_value():
    up = FinitePoset.chain(3)
    down = FinitePoset.from_covers(["a", "b", "c"], [("c", "b"), ("b", "a")])
    everything = up.top()  # interned by ``up`` first, as its principal up-set of 0
    assert down.open_id(everything) == down.open_id(principal_up_set(down, "c"))
    assert down.open_id(everything) != up.open_id(everything)
