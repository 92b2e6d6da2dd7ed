import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from persdiff.posets import (
    EMPTY_OPEN,
    MAX_ELEMENTS,
    BlanketMode,
    FinitePoset,
    GradedPair,
    InvalidPair,
    InvalidPoset,
    PairOpen,
    UnknownElement,
    UpSet,
    _lex_key,
    blankets_of_open,
    degree_blankets,
    diagram_pair_count,
    enumerate_diagram_pairs,
    make_pair,
    min_elements,
    pair_blankets,
    principal_up_set,
)

from conftest import corner_grid_poset, offset_grid_poset
from corpus import random_nested_pairs
from dense_reference import dense_leq
from exhaustive import all_up_sets


def members(u):
    return set(u.members)


def as_sets(opens):
    return {frozenset(u.members) for u in opens}


def pair_sets(pairs):
    return {(frozenset(x.birth.members), frozenset(x.death.members)) for x in pairs}


def random_poset(rng, n):
    rel = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rel[i, j] = True
    closed = rel.copy()
    while True:
        nxt = (closed.astype(np.int8) @ closed.astype(np.int8)) > 0
        nxt |= closed
        if np.array_equal(nxt, closed):
            break
        closed = nxt
    return FinitePoset([str(i) for i in range(n)], closed)


class TestConstruction:
    def test_rejects_non_transitive(self):
        leq = np.eye(3, dtype=bool)
        leq[0, 1] = leq[1, 2] = True
        with pytest.raises(InvalidPoset):
            FinitePoset(["a", "b", "c"], leq)

    def test_rejects_non_antisymmetric(self):
        leq = np.ones((2, 2), dtype=bool)
        with pytest.raises(InvalidPoset):
            FinitePoset(["a", "b"], leq)

    def test_grades_must_match_product_order(self):
        leq = np.eye(2, dtype=bool)
        leq[0, 1] = True
        with pytest.raises(InvalidPoset):
            FinitePoset(["a", "b"], leq, grades=[(1, 1), (0, 0)])

    def test_from_covers_closes_transitively(self):
        p = FinitePoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq(p.resolve("a"), p.resolve("c"))

    def test_from_covers_closure_through_wide_middle(self):
        # 200 paths from b to t: an int8 path count would wrap to negative.
        middle = [f"m{i}" for i in range(200)]
        covers = [("b", m) for m in middle] + [(m, "t") for m in middle]
        p = FinitePoset.from_covers(["b", *middle, "t"], covers)
        assert p.leq(p.resolve("b"), p.resolve("t"))

    def test_from_covers_long_chain(self):
        labels = [str(i) for i in range(1000)]
        p = FinitePoset.from_covers(labels, [(labels[i], labels[i + 1]) for i in range(999)])
        assert np.array_equal(dense_leq(p), dense_leq(FinitePoset.chain(1000)))

    def test_from_covers_refuses_a_cycle(self):
        with pytest.raises(InvalidPoset, match="cycle"):
            FinitePoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        p = FinitePoset.from_covers(["a", "b"], [("a", "a"), ("a", "b"), ("a", "b")])
        assert dense_leq(p).tolist() == [[True, True], [False, True]]

    def test_rejects_non_transitive_wide_relation(self):
        n = 202
        leq = np.eye(n, dtype=bool)
        leq[0, 1 : n - 1] = True
        leq[1 : n - 1, n - 1] = True
        with pytest.raises(InvalidPoset, match="transitive"):
            FinitePoset([str(i) for i in range(n)], leq)

    def test_grid_leq_is_the_product_order(self):
        for shape in [(1,), (5,), (2, 3), (5, 4), (3, 1, 2), (2, 3, 4)]:
            p = FinitePoset.grid(shape)
            vectors = list(product(*(range(s) for s in shape)))
            assert list(p.grades) == vectors
            want = [[all(a <= b for a, b in zip(u, v)) for v in vectors] for u in vectors]
            assert np.array_equal(dense_leq(p), np.array(want, dtype=bool))

    def test_grades_beyond_int64(self):
        p = FinitePoset.from_covers(["lo", "hi"], [("lo", "hi")], grades=[(0,), (10**30,)])
        assert p.grades[1] == (10**30,)
        with pytest.raises(InvalidPoset):
            FinitePoset.from_covers(["lo", "hi"], [("lo", "hi")], grades=[(10**30,), (0,)])

    def test_grades_mismatch_names_first_offending_pair(self):
        leq = np.eye(3, dtype=bool)
        leq[0, 2] = True
        with pytest.raises(InvalidPoset, match=r"\(a, b\)"):
            FinitePoset(["a", "b", "c"], leq, grades=[(0, 0), (0, 1), (1, 1)])

    def test_resolve(self):
        p = FinitePoset.grid((2, 2))
        assert p.resolve("1,0") == p.resolve((1, 0))
        with pytest.raises(UnknownElement):
            p.resolve("nope")
        with pytest.raises(UnknownElement):
            p.resolve((5, 5))
        # Integer types other than int pass through operator.index; bools do not.
        assert p.resolve(np.int64(3)) == 3 and p.resolve((np.int64(1), 1)) == 3
        for bad, error in ((True, UnknownElement), (1.0, UnknownElement), ((1, 1.0), TypeError), ((True, 1), TypeError)):
            with pytest.raises(error):
                p.resolve(bad)


class TestSizeLimit:
    def _assert_refused_without_allocating(self, build):
        # An n x n order matrix just over the limit would take > 16 MB.
        tracemalloc.start()
        try:
            with pytest.raises(InvalidPoset, match=f"at most {MAX_ELEMENTS}"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_grid_just_over_limit(self):
        self._assert_refused_without_allocating(lambda: FinitePoset.grid((MAX_ELEMENTS + 1,)))
        self._assert_refused_without_allocating(lambda: FinitePoset.grid((64, 65)))

    def test_explicit_just_over_limit(self):
        labels = [str(i) for i in range(MAX_ELEMENTS + 1)]
        self._assert_refused_without_allocating(lambda: FinitePoset.from_covers(labels, []))

    def test_huge_grid_shape(self):
        self._assert_refused_without_allocating(lambda: FinitePoset.grid((10**9, 10**9)))

    def test_bad_shapes(self):
        for shape in ["ab", 5, None, [[1]], [], [0], [2, -1]]:
            with pytest.raises(InvalidPoset):
                FinitePoset.grid(shape)


class TestPrincipalUpSet:
    def test_chain_midpoint(self):
        p = FinitePoset.chain(3)
        assert members(principal_up_set(p, 1)) == {1, 2}

    def test_maximal_element(self):
        p = FinitePoset.chain(3)
        assert members(principal_up_set(p, 2)) == {2}

    def test_corner_grid(self):
        p = corner_grid_poset()
        got = {p.labels[i] for i in principal_up_set(p, "r0").members}
        assert got == {"r0", "k1", "r1"}

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            principal_up_set(FinitePoset.chain(2), 9)


class TestIsUpClosed:
    def test_empty_and_full(self):
        p = FinitePoset.chain(3)
        assert p.closure(set()) == UpSet()
        assert p.closure({0, 1, 2}) == UpSet({0, 1, 2})

    def test_gap_is_not_up_closed(self):
        p = FinitePoset.chain(3)
        assert p.closure({0, 2}) != UpSet({0, 2})


class TestMinElements:
    def test_principal(self):
        p = FinitePoset.chain(3)
        assert min_elements(p, principal_up_set(p, 1)) == frozenset({1})

    def test_empty(self):
        p = FinitePoset.chain(3)
        assert min_elements(p, EMPTY_OPEN) == frozenset()

    def test_union_of_incomparable(self):
        p = FinitePoset.grid((2, 2))
        x, y = p.resolve((0, 1)), p.resolve((1, 0))
        u = p.closure([x, y])
        assert min_elements(p, u) == frozenset({x, y})

    def test_matches_brute_force_on_random_up_sets(self):
        rng = random.Random(17)
        posets = [FinitePoset.grid(s) for s in [(5,), (3, 4), (5, 5), (2, 3, 2)]]
        posets += [corner_grid_poset()] + [random_poset(rng, rng.randint(1, 9)) for _ in range(8)]
        for p in posets:
            for _ in range(25):
                u = p.closure(rng.sample(range(p.n), rng.randint(0, min(p.n, 4))))
                want = {
                    i for i in u.members
                    if not any(j != i and p.leq(j, i) for j in u.members)
                }
                assert min_elements(p, u) == frozenset(want)


class TestBlanketsOfOpen:
    def test_chain_blanket(self):
        p = FinitePoset.chain(3)
        got = blankets_of_open(p, principal_up_set(p, 1))
        assert as_sets(got) == {frozenset({0, 1, 2})}

    def test_top_open_has_none(self):
        p = FinitePoset.chain(3)
        assert blankets_of_open(p, p.top()) == ()
        assert blankets_of_open(p, p.top(), BlanketMode.PRINCIPAL) == ()

    def test_offset_grid_both_modes(self):
        p = offset_grid_poset()
        x1 = principal_up_set(p, "x1")
        want = {
            frozenset(principal_up_set(p, "x0").members),
            frozenset(principal_up_set(p, "y1").members),
        }
        assert as_sets(blankets_of_open(p, x1)) == want
        assert as_sets(blankets_of_open(p, x1, BlanketMode.PRINCIPAL)) == want

    def test_empty_open_blankets_are_maximal_singletons(self):
        p = FinitePoset.grid((2, 2))
        got = blankets_of_open(p, EMPTY_OPEN)
        assert as_sets(got) == {frozenset({p.resolve((1, 1))})}

    def test_full_mode_adds_exactly_one_element(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_poset(rng, rng.randint(1, 7))
            u = p.closure(rng.sample(range(p.n), rng.randint(0, p.n)))
            for w in blankets_of_open(p, u):
                assert u.members < w.members
                assert len(w.members) == len(u.members) + 1

    def test_cover_correctness_brute_force(self):
        rng = random.Random(9)
        posets = [FinitePoset.chain(4), FinitePoset.grid((2, 3)), corner_grid_poset()]
        posets += [random_poset(rng, 6) for _ in range(5)]
        for p in posets:
            ups = all_up_sets(dense_leq(p))
            assert len(ups) <= 2 ** p.n
            for u_members in ups:
                u = UpSet(u_members)
                covers = as_sets(blankets_of_open(p, u))
                for t in ups:
                    if not u_members < t:
                        assert t not in covers
                        continue
                    is_cover = not any(u_members < mid < t for mid in ups)
                    assert (t in covers) == is_cover


class TestPairBlankets:
    def test_corner_grid_full_mode(self):
        p = corner_grid_poset()
        pair = make_pair(p, principal_up_set(p, "r0"), principal_up_set(p, "r1"))
        got = pair_sets(pair_blankets(p, pair))
        want = pair_sets(
            [
                PairOpen(principal_up_set(p, "k0"), principal_up_set(p, "r1")),
                PairOpen(principal_up_set(p, "r0"), principal_up_set(p, "k1")),
                PairOpen(principal_up_set(p, "k2"), principal_up_set(p, "r1")),
            ]
        )
        assert got == want

    def test_offset_grid_principal_mode(self):
        p = offset_grid_poset()
        pair = make_pair(p, principal_up_set(p, "x0"), principal_up_set(p, "x1"))
        got = pair_sets(pair_blankets(p, pair, BlanketMode.PRINCIPAL))
        want = pair_sets(
            [
                PairOpen(principal_up_set(p, "y0"), principal_up_set(p, "x1")),
                PairOpen(principal_up_set(p, "y2"), principal_up_set(p, "x1")),
            ]
        )
        assert got == want

    def test_offset_grid_full_mode_differs(self):
        # The lattice-faithful covers include a non-principal open and the
        # degenerate equal-coordinate pair; principal mode hides both.
        p = offset_grid_poset()
        pair = make_pair(p, principal_up_set(p, "x0"), principal_up_set(p, "x1"))
        full = pair_sets(pair_blankets(p, pair))
        principal = pair_sets(pair_blankets(p, pair, BlanketMode.PRINCIPAL))
        assert full != principal
        x0 = frozenset(principal_up_set(p, "x0").members)
        assert (x0, x0) in full

    def test_top_pair_has_no_blankets(self):
        p = FinitePoset.chain(3)
        pair = make_pair(p, p.top(), p.top())
        assert pair_blankets(p, pair) == []


def _pair_sort_key(x: PairOpen):
    """The order pair_blankets lists its pairs in: birth members, then death
    size and death members.  Each string compares like a sorted member list."""
    return (_lex_key(x.birth.bits), x.death.bits.bit_count(), _lex_key(x.death.bits))


def shuffled_poset(rng, n):
    """A random explicit poset whose indices are not a linear extension."""
    leq = dense_leq(random_poset(rng, n))
    while True:
        perm = rng.sample(range(n), n)
        p = FinitePoset([str(i) for i in range(n)], leq[np.ix_(perm, perm)])
        if any(p.leq(j, i) for i in range(n) for j in range(i + 1, n)):
            return p


def nested_pairs(rng, p, count):
    """Every principal pair, and ``count`` random nested pairs of opens."""
    pairs = enumerate_diagram_pairs(p)
    for _ in range(count):
        birth = p.closure(rng.sample(range(p.n), rng.randint(0, p.n)))
        inside = sorted(birth.members)
        pairs.append(PairOpen(birth, p.closure(rng.sample(inside, rng.randint(0, len(inside))))))
    return pairs


class TestPairBlanketOrder:
    """pair_blankets merges its list instead of sorting it; the merge must
    give the sorted order on posets past the exhaustive small ones."""

    def check(self, p, pairs):
        placements = set()
        for pair in pairs:
            for mode in BlanketMode:
                got = pair_blankets(p, pair, mode)
                assert got == sorted(got, key=_pair_sort_key)
                before = _pair_sort_key(pair)
                placements.update(x.birth != pair.birth and _pair_sort_key(x) < before for x in got)
        return placements

    def test_30_chain(self):
        p = FinitePoset.chain(30)
        assert self.check(p, nested_pairs(random.Random(3), p, 200))

    def test_8x8_grid(self):
        p = FinitePoset.grid((8, 8))
        # Birth-side covers land on both sides of the death-side block.
        assert self.check(p, nested_pairs(random.Random(5), p, 300)) == {False, True}

    def test_shuffled_explicit_posets(self):
        rng = random.Random(7)
        placements = set()
        for _ in range(12):
            p = shuffled_poset(rng, rng.randint(8, 10))
            placements |= self.check(p, nested_pairs(rng, p, 150))
        assert placements == {False, True}


class TestDegreeBlankets:
    def test_degree_zero(self):
        p = FinitePoset.chain(3)
        pair = make_pair(p, principal_up_set(p, 1), principal_up_set(p, 2))
        assert degree_blankets(p, pair, 0) == frozenset({pair})

    def test_chain_degree_one(self):
        p = FinitePoset.chain(3)
        pair = make_pair(p, principal_up_set(p, 1), principal_up_set(p, 2))
        got = pair_sets(degree_blankets(p, pair, 1))
        assert got == {
            (frozenset({0, 1, 2}), frozenset({2})),
            (frozenset({1, 2}), frozenset({1, 2})),
        }

    def test_exhausts_to_empty(self):
        p = FinitePoset.chain(3)
        pair = make_pair(p, principal_up_set(p, 1), principal_up_set(p, 2))
        assert degree_blankets(p, pair, 4) == frozenset()

    def test_recursion_identity(self):
        rng = random.Random(13)
        p = FinitePoset.grid((2, 3))
        pairs = enumerate_diagram_pairs(p)
        for pair in rng.sample(pairs, 6):
            for n in (0, 1, 2):
                level = degree_blankets(p, pair, n)
                expected = set()
                for w in level:
                    expected.update(pair_blankets(p, w))
                assert degree_blankets(p, pair, n + 1) == frozenset(expected)

    def test_monotonicity_lemma(self):
        # Walking blankets from a pair stays below some blanket of any pair
        # it restricts to, degree for degree.
        rng = random.Random(17)
        for p in (FinitePoset.grid((2, 3)), FinitePoset.grid((3, 3)), corner_grid_poset()):
            pairs = enumerate_diagram_pairs(p)
            for _ in range(12):
                base = rng.choice(pairs)
                walked = base
                for _ in range(rng.randint(0, 2)):
                    options = pair_blankets(p, walked)
                    if not options:
                        break
                    walked = rng.choice(options)
                m = rng.randint(0, 1)
                n = m + rng.randint(0, 2)
                lower = degree_blankets(p, walked, n)
                upper = degree_blankets(p, base, m)
                for w in lower:
                    assert any(
                        w.birth.members >= x.birth.members
                        and w.death.members >= x.death.members
                        for x in upper
                    )

    def test_monotonicity_lemma_arbitrary_comparable_pairs(self):
        # Same lemma over arbitrary comparable pairs of (possibly
        # non-principal) opens, not just blanket iterates.
        rng = random.Random(19)
        for p in (FinitePoset.grid((2, 3)), offset_grid_poset()):
            for _ in range(20):
                inner, outer = random_nested_pairs(rng, p)
                m = rng.randint(0, 1)
                n = m + rng.randint(0, 2)
                lower = degree_blankets(p, outer, n)
                upper = degree_blankets(p, inner, m)
                for w in lower:
                    assert any(
                        w.birth.members >= x.birth.members
                        and w.death.members >= x.death.members
                        for x in upper
                    )


class TestEnumerateDiagramPairs:
    def test_chain_counts(self):
        p = FinitePoset.chain(3)
        pairs = enumerate_diagram_pairs(p)
        strict = [x for x in pairs if not x.death.is_empty]
        essential = [x for x in pairs if x.death.is_empty]
        assert len(strict) == 3 and len(essential) == 3

    def test_antichain(self):
        p = FinitePoset(["a", "b"], np.eye(2, dtype=bool))
        pairs = enumerate_diagram_pairs(p)
        assert all(x.death.is_empty for x in pairs)
        assert len(pairs) == 2

    def test_singleton(self):
        p = FinitePoset(["a"], np.eye(1, dtype=bool))
        pairs = enumerate_diagram_pairs(p)
        assert len(pairs) == 1 and pairs[0].death.is_empty

    def test_every_pair_is_valid(self):
        p = FinitePoset.grid((3, 2))
        for pair in enumerate_diagram_pairs(p):
            assert pair.birth.members >= pair.death.members

    def test_count_without_listing(self):
        rng = random.Random(11)
        posets = [FinitePoset.chain(1), FinitePoset.chain(30), FinitePoset.grid((8, 8)), corner_grid_poset()]
        posets += [shuffled_poset(rng, rng.randint(8, 10)) for _ in range(5)]
        for p in posets:
            assert diagram_pair_count(p) == len(enumerate_diagram_pairs(p))
        assert diagram_pair_count(FinitePoset.chain(512)) == 512 * 513 // 2


class TestClosureProperties:
    def test_unions_and_intersections_up_closed(self):
        rng = random.Random(23)
        for _ in range(15):
            p = random_poset(rng, rng.randint(1, 8))
            u = p.closure(rng.sample(range(p.n), rng.randint(0, p.n)))
            v = p.closure(rng.sample(range(p.n), rng.randint(0, p.n)))
            for members in (u.members | v.members, u.members & v.members):
                assert p.closure(members) == UpSet(members)


class TestPairValidity:
    def test_make_pair_rejects_non_nested(self):
        p = FinitePoset.grid((2, 2))
        u = principal_up_set(p, (0, 1))
        v = principal_up_set(p, (1, 0))
        with pytest.raises(InvalidPair):
            make_pair(p, u, v)

    def test_graded_pair_degree_nonnegative(self):
        p = FinitePoset.chain(2)
        pair = make_pair(p, p.top(), EMPTY_OPEN)
        with pytest.raises(ValueError):
            GradedPair(pair, -1)
        assert GradedPair(pair, 1).shift(2).degree == 3
