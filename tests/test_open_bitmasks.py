"""Bitmask opens against a frozenset reference, on every up-set of small posets.

The reference below states each definition over frozensets, orders
included: ``verify`` draws samples from ``pair_blankets`` lists, so their
order is part of the output.
"""
import random

import pytest

from persdiff.complexes import FilteredComplex
from persdiff.diagrams import compute_diagram
from persdiff.memory import blanket_union, homological_memory
from persdiff.posets import (
    BlanketMode,
    FinitePoset,
    InvalidPair,
    PairOpen,
    UpSet,
    blankets_of_open,
    make_pair,
    min_elements,
    pair_blankets,
    principal_up_set,
)
from persdiff.verify import run_verification

from conftest import GF2, build_two_param, corner_grid_poset, offset_grid_poset
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
        assert (p.closure(members) == UpSet(members)) == ref_is_up_closed(p, members)
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
        assert all(u == made[0] and hash(u) == hash(made[0]) and u.key == made[0].key for u in made)
    seen = {(0, PairOpen(p.top(), UpSet(s))) for s in ups}
    seen |= {(0, PairOpen(p.closure(range(p.n)), p.closure(sorted(s)))) for s in ups}
    assert len(seen) == len(ups)


def test_chain_principal_up_sets_get_distinct_hashes_and_keys():
    # As ints, the up-sets 2^n - 2^i of a chain hash onto about 61 values.
    p = FinitePoset.chain(1024)
    opens = [principal_up_set(p, i) for i in range(p.n)]
    assert len({hash(u) for u in opens}) == p.n
    assert len({u.key for u in opens}) == p.n
    assert all(UpSet(u.members).key == u.key for u in opens)


def test_an_open_from_another_poset_is_looked_up_by_value():
    up = FinitePoset.chain(3)
    down = FinitePoset.from_covers(["a", "b", "c"], [("c", "b"), ("b", "a")])
    everything = up.top()  # equal to the principal up-set of "c" in ``down``
    for mode in MODES:
        first = blankets_of_open(down, principal_up_set(down, "c"), mode)
        size = len(down.memo["blankets"])
        again = blankets_of_open(down, everything, mode)
        assert len(again) == len(first) and all(a is b for a, b in zip(again, first))
        assert len(down.memo["blankets"]) == size


# An open rebuilt from its members, by closure, from its mask, and by
# another poset over the same elements.
REBUILDS = {
    "members": lambda p, u: UpSet(u.members),
    "closure": lambda p, u: p.closure(u.members),
    "bits": lambda p, u: UpSet(bits=u.bits),
    "other_poset": lambda p, u: FinitePoset.grid((3, 3)).closure(u.members),
}


@pytest.mark.parametrize("rebuild", sorted(REBUILDS))
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_an_equal_open_finds_the_existing_memo_entries(mode, rebuild):
    k = build_two_param()
    p = k.poset
    pair = PairOpen(principal_up_set(p, (1, 1)), principal_up_set(p, (2, 2)))
    memory = homological_memory(k, 1, pair)
    union = blanket_union(k, 1, pair, 1, mode)
    blankets = pair_blankets(p, pair, mode)
    layers = (k.memo["union"], p.memo["pair_blankets"])
    sizes = [len(layer) for layer in layers]
    again = PairOpen(*(REBUILDS[rebuild](p, u) for u in pair))
    assert again == pair and again.birth is not pair.birth and again.death is not pair.death
    assert homological_memory(k, 1, again) is memory
    assert blanket_union(k, 1, again, 1, mode) is union
    found = pair_blankets(p, again, mode)
    assert len(found) == len(blankets) and all(a is b for a, b in zip(found, blankets))
    assert [len(layer) for layer in layers] == sizes


def _ints(key):
    if isinstance(key, int):
        yield key
    elif isinstance(key, (tuple, frozenset)):
        for part in key:
            yield from _ints(part)


def test_no_memo_key_holds_a_mask():
    # Up-set masks of a 128-chain reach 2^128; as keys they would collide
    # under the int hash, which reduces mod 2^61 - 1.
    cells = [
        {"id": "a", "vertices": ["a"], "births": [0]},
        {"id": "b", "vertices": ["b"], "births": [64]},
        {"id": "ab", "vertices": ["a", "b"], "births": [127]},
    ]
    k = FilteredComplex.build(GF2, FinitePoset.chain(128), cells)
    compute_diagram(k)
    run_verification(k, samples=10)
    # A pair whose memory is zero leaves no union entry, and on this chain
    # the sampled ones mostly have none; this pair's memory is not zero.
    principal = k.poset.principal
    for d in (1, 2):
        blanket_union(k, 0, PairOpen(principal[100], principal[127]), d)
    memos = (k.memo, k.poset.memo)
    assert all(memo[layer] for memo, layer in zip(memos, ("union", "pair_blankets")))
    keys = [key for memo in memos for layer in memo.values() for key in layer]
    assert all(i < 2**61 for key in keys for i in _ints(key))
