import random
from itertools import product

import pytest

from persdiff.calculus import (
    ChangeAction,
    GroupSquare,
    IntegerFunctor,
    LawReport,
    arr_add,
    arr_sub,
    arr_zero,
    check_cad1,
    check_cad2,
    check_monotone,
    degree_shift_action,
    derivative_mor,
    derivative_obj,
    integer_addition_action,
    integer_subtraction_action,
    pair_group_rank,
    rank_square,
    square_subtraction_action,
    union_rank,
    union_rank_derivative,
    union_rank_functor,
)
from persdiff.complexes import FilteredComplex
from persdiff.fields import FieldSpec
from persdiff.linalg import NotASubspace, Subspace
from persdiff.memory import homological_memory, lifespan_rank
from persdiff.posets import (
    BlanketMode,
    FinitePoset,
    GradedPair,
    enumerate_diagram_pairs,
    make_pair,
    principal_up_set,
)

from conftest import GF2
from corpus import random_filtration


# Square and derivative forms that only these tests read.


def arr_inv(s: GroupSquare) -> GroupSquare:
    return GroupSquare(-s.src, -s.dst, -s.top, -s.bottom)


def identity_square(a: int) -> GroupSquare:
    return GroupSquare(a, a, 0, 0)


def compose_squares(s: GroupSquare, t: GroupSquare) -> GroupSquare:
    """Pasting along a shared middle object: tops add, bottoms add."""
    if s.dst != t.src:
        raise ValueError("squares are not composable")
    return GroupSquare(s.src, t.dst, s.top + t.top, s.bottom + t.bottom)


def neg_derivative_obj(F: IntegerFunctor, ca: ChangeAction, x, d) -> int:
    """Derivative under the addition action: the negated difference."""
    return -derivative_obj(F, ca, x, d)


def neg_derivative_mor(F: IntegerFunctor, ca: ChangeAction, m: tuple, dm: tuple) -> GroupSquare:
    return arr_inv(derivative_mor(F, ca, m, dm))


def check_action_laws(ca: ChangeAction, objects, delta_pairs) -> LawReport:
    """Unit and compatibility laws of a monoid action, by sampling."""
    report = LawReport("action-laws")
    objects = list(objects)
    for x in objects:
        report.checked += 1
        if ca.act(x, ca.zero) != x:
            report.counterexamples.append(("unit", x))
    for x in objects:
        for a, b in delta_pairs:
            report.checked += 1
            if ca.act(ca.act(x, a), b) != ca.act(x, ca.add(a, b)):
                report.counterexamples.append(("compatibility", x, a, b))
    return report


def random_square(rng):
    a, b, f = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)
    return GroupSquare(a, b, f, f + b - a)


def principal_pair(k, b, d):
    p = k.poset
    return make_pair(p, principal_up_set(p, b), principal_up_set(p, d))


class TestSquares:
    def test_commutation_enforced(self):
        with pytest.raises(ValueError):
            GroupSquare(1, 2, 3, 5)

    def test_add_examples(self):
        s = GroupSquare(1, 2, 0, 1)
        t = GroupSquare(3, 3, 1, 1)
        got = arr_add(s, t)
        assert got == GroupSquare(4, 5, 1, 2)
        assert got.src + got.bottom == got.top + got.dst
        assert arr_add(s, arr_zero()) == s

    def test_monoid_laws_sampled(self):
        rng = random.Random(71)
        squares = [random_square(rng) for _ in range(8)]
        for s, t in product(squares, repeat=2):
            assert arr_add(s, t) == arr_add(t, s)
        for s, t, u in product(squares[:4], repeat=3):
            assert arr_add(arr_add(s, t), u) == arr_add(s, arr_add(t, u))

    def test_subtraction_action_laws(self):
        rng = random.Random(73)
        squares = [random_square(rng) for _ in range(6)]
        for s in squares:
            assert arr_sub(s, s) == arr_zero()
            assert arr_sub(s, arr_zero()) == s
        for s, t, u in product(squares[:4], repeat=3):
            assert arr_sub(arr_sub(s, u), t) == arr_sub(s, arr_add(t, u))

    def test_inverse(self):
        rng = random.Random(79)
        for _ in range(6):
            s = random_square(rng)
            assert arr_add(s, arr_inv(s)) == arr_zero()

    def test_compose(self):
        s = GroupSquare(1, 2, 0, 1)
        t = GroupSquare(2, 5, 0, 3)
        assert compose_squares(s, t) == GroupSquare(1, 5, 0, 4)
        with pytest.raises(ValueError):
            compose_squares(t, s)

    def test_identity_square(self):
        assert identity_square(4) == GroupSquare(4, 4, 0, 0)


class TestRankSquare:
    def test_equal_subspaces(self):
        x = Subspace.from_array(GF2, [[1, 0, 1]], ambient_dim=3)
        sq = rank_square(x, x)
        assert sq.bottom == 0 and sq.src == sq.dst == 1

    def test_zero_into_full(self):
        assert rank_square(Subspace.zero(GF2, 3), Subspace.full(GF2, 3)) == GroupSquare(0, 3, 0, 3)

    def test_bottoms_add_along_chains(self):
        rng = random.Random(83)
        for _ in range(10):
            ambient = rng.randint(2, 5)
            rows = [[rng.randrange(2) for _ in range(ambient)] for _ in range(3)]
            a = Subspace.from_array(GF2, rows[:1], ambient_dim=ambient)
            b = Subspace.from_array(GF2, rows[:2], ambient_dim=ambient)
            c = Subspace.from_array(GF2, rows, ambient_dim=ambient)
            assert rank_square(a, c).bottom == rank_square(a, b).bottom + rank_square(b, c).bottom
            assert compose_squares(rank_square(a, b), rank_square(b, c)) == rank_square(a, c)

    def test_requires_containment(self):
        with pytest.raises(NotASubspace):
            rank_square(
                Subspace.from_array(GF2, [[1, 0]], ambient_dim=2),
                Subspace.from_array(GF2, [[0, 1]], ambient_dim=2),
            )


# -- translation and plateau fixtures on the naturals -------------------------


def translation_by(k):
    return lambda x: x + k


def translation_derivative(x, d):
    return d


def plateau_map(k, level_end):
    """Monotone map with a flat stretch between k and level_end."""

    def g(x):
        if x <= k - 1:
            return x + 1
        if x <= level_end:
            return k
        return k + x - level_end + 1

    return g


class TestScalarDerivatives:
    def test_translation_satisfies_both_axioms(self):
        act = integer_addition_action()
        f = translation_by(3)
        samples = [(a, b) for a in range(8) for b in range(4)]
        r1 = check_cad1(f, translation_derivative, act, act, samples)
        assert r1.ok and r1.checked == 32
        triples = [(a, b, c) for a in range(6) for b in range(3) for c in range(3)]
        r2 = check_cad2(f, translation_derivative, act, act, triples)
        assert r2.ok

    def test_translation_derivative_is_monotone(self):
        ordered = [
            ((a, b), (a2, b2))
            for a in range(5)
            for b in range(3)
            for a2 in range(a, 5)
            for b2 in range(b, 3)
        ]
        assert check_monotone(translation_derivative, ordered).ok

    def test_plateau_passes_axioms_as_plain_function(self):
        g = plateau_map(5, 8)
        dg = lambda x, y: g(x + y) - g(x)
        act = integer_addition_action()
        samples = [(a, b) for a in range(12) for b in range(4)]
        assert check_cad1(g, dg, act, act, samples).ok
        triples = [(a, b, c) for a in range(10) for b in range(3) for c in range(3)]
        assert check_cad2(g, dg, act, act, triples).ok

    def test_plateau_derivative_not_monotone_witness(self):
        k, level_end = 5, 8
        g = plateau_map(k, level_end)
        dg = lambda x, y: g(x + y) - g(x)
        assert dg(k - 2, 1) == 1
        assert dg(k - 1, 1) == 0
        report = check_monotone(dg, [((k - 2, 1), (k - 1, 1))])
        assert not report.ok
        assert report.counterexamples == [((k - 2, 1), (k - 1, 1), 1, 0)]


class TestDerivativeOperations:
    def test_zero_delta_gives_zero(self, triangle):
        shift = degree_shift_action()
        F = union_rank_functor(triangle, 1)
        gp = GradedPair(principal_pair(triangle, 1, 2), 0)
        assert derivative_obj(F, shift, gp, 0) == 0

    def test_constant_functor(self):
        F = IntegerFunctor(lambda x: 7)
        act = integer_addition_action()
        for d in range(4):
            assert derivative_obj(F, act, 3, d) == 0

    def test_triangle_object_value(self, triangle):
        shift = degree_shift_action()
        F = union_rank_functor(triangle, 1)
        gp = GradedPair(principal_pair(triangle, 1, 2), 0)
        assert derivative_obj(F, shift, gp, 1) == 1
        assert neg_derivative_obj(F, shift, gp, 1) == -1

    def test_identity_delta_on_morphisms(self, triangle):
        shift = degree_shift_action()
        F = union_rank_functor(triangle, 1)
        gp = GradedPair(principal_pair(triangle, 1, 2), 0)
        m = (gp, gp)
        got = derivative_mor(F, shift, m, (0, 0))
        assert got == arr_zero()
        assert neg_derivative_mor(F, shift, m, (1, 1)) == arr_inv(
            derivative_mor(F, shift, m, (1, 1))
        )

    def test_sampled_morphism_squares_commute(self):
        rng = random.Random(89)
        k = random_filtration(rng, shape=(3, 2), field=GF2)
        p = k.poset
        shift = degree_shift_action()
        pairs = enumerate_diagram_pairs(p)
        for d in range(k.max_dim + 1):
            F = union_rank_functor(k, d)
            for _ in range(6):
                base = rng.choice(pairs)
                from persdiff.posets import pair_blankets

                options = pair_blankets(p, base)
                upper = rng.choice(options) if options else base
                lo = GradedPair(upper, rng.randint(0, 2))
                hi = GradedPair(base, rng.randint(0, lo.degree))
                sq = derivative_mor(F, shift, (lo, hi), (2, 1))
                # GroupSquare construction validates commutation exactly
                assert sq.src + sq.bottom == sq.top + sq.dst


class TestChangeActionLaws:
    def test_degree_shift_action_laws(self, triangle):
        shift = degree_shift_action()
        pairs = enumerate_diagram_pairs(triangle.poset)
        objects = [GradedPair(x, n) for x in pairs[:4] for n in (0, 1)]
        report = check_action_laws(shift, objects, [(a, b) for a in (0, 1) for b in (0, 2)])
        assert report.ok

    def test_natural_addition_action_presentation(self):
        act = ChangeAction(act=lambda x, d: x + d, add=lambda a, b: a + b, zero=0)
        report = check_action_laws(act, list(range(5)), [(a, b) for a in range(3) for b in range(3)])
        assert report.ok


class TestUnionRankFunctor:
    def test_degree_zero_is_memory_dim(self, triangle):
        pair = principal_pair(triangle, 1, 2)
        assert union_rank(triangle, 1, pair, 0) == homological_memory(triangle, 1, pair).dim

    def test_no_blankets_means_zero(self, triangle):
        p = triangle.poset
        top_pair = make_pair(p, p.top(), p.top())
        assert union_rank(triangle, 1, top_pair, 1) == 0
        assert union_rank(triangle, 1, top_pair, 3) == 0

    def test_triangle_values(self, triangle):
        pair = principal_pair(triangle, 1, 2)
        assert union_rank(triangle, 1, pair, 0) == 1
        assert union_rank(triangle, 1, pair, 1) == 0

    def test_derivative_unit_and_telescoping(self, triangle):
        pair = principal_pair(triangle, 1, 2)
        assert union_rank_derivative(triangle, 1, pair, 0, 0) == 0
        rng = random.Random(97)
        for _ in range(10):
            n, a, b = rng.randint(0, 1), rng.randint(0, 2), rng.randint(0, 2)
            whole = union_rank_derivative(triangle, 1, pair, n, a + b)
            split = union_rank_derivative(triangle, 1, pair, n, a) + union_rank_derivative(
                triangle, 1, pair, n + a, b
            )
            assert whole == split

    def test_triangle_derivative_value(self, triangle):
        assert union_rank_derivative(triangle, 1, principal_pair(triangle, 1, 2), 0, 1) == 1


class TestCadForUnionRank:
    def _samples(self, rng, pairs, count):
        return [
            (GradedPair(rng.choice(pairs), rng.choice((0, 0, 1, 2))), rng.choice((0, 1, 2)))
            for _ in range(count)
        ]

    def test_exact_on_random_fixtures(self):
        rng = random.Random(101)
        shift = degree_shift_action()
        cod = integer_subtraction_action()
        for _ in range(4):
            k = random_filtration(rng, shape=(2, 3), field=GF2)
            pairs = enumerate_diagram_pairs(k.poset)
            for d in range(k.max_dim + 1):
                F = union_rank_functor(k, d)
                samples = self._samples(rng, pairs, 12)
                assert check_cad1(
                    F.on_object, lambda x, m: derivative_obj(F, shift, x, m), shift, cod, samples
                ).ok
                triples = [
                    (GradedPair(rng.choice(pairs), rng.choice((0, 1))), rng.choice((0, 1, 2)), rng.choice((0, 1)))
                    for _ in range(12)
                ]
                assert check_cad2(
                    F.on_object, lambda x, m: derivative_obj(F, shift, x, m), shift, cod, triples
                ).ok

    def test_morphism_level_cad1(self, triangle):
        shift = degree_shift_action()
        sq_cod = square_subtraction_action()
        F = union_rank_functor(triangle, 1)
        dom = ChangeAction(
            act=lambda m, dm: (m[0].shift(dm[0]), m[1].shift(dm[1])),
            add=lambda a, b: (a[0] + b[0], a[1] + b[1]),
            zero=(0, 0),
        )
        pair = principal_pair(triangle, 1, 2)
        bigger = make_pair(triangle.poset, triangle.poset.top(), principal_up_set(triangle.poset, 2))
        morphisms = [
            ((GradedPair(bigger, 1), GradedPair(pair, 0)), (2, 1)),
            ((GradedPair(pair, 2), GradedPair(pair, 0)), (1, 0)),
            ((GradedPair(pair, 0), GradedPair(pair, 0)), (0, 0)),
        ]
        report = check_cad1(
            lambda m: F.on_morphism(*m),
            lambda m, dm: derivative_mor(F, shift, m, dm),
            dom,
            sq_cod,
            morphisms,
        )
        assert report.ok

    def test_negative_control_detects_corruption(self, triangle):
        # A corrupted functor with the honest derivative must fail CAD1.
        shift = degree_shift_action()
        cod = integer_subtraction_action()
        honest = union_rank_functor(triangle, 1)
        corrupted = IntegerFunctor(
            lambda gp: honest.on_object(gp) + (1 if gp.degree == 1 else 0)
        )
        pair = principal_pair(triangle, 1, 2)
        samples = [(GradedPair(pair, 0), 1), (GradedPair(pair, 0), 2)]
        report = check_cad1(
            corrupted.on_object,
            lambda x, m: derivative_obj(honest, shift, x, m),
            shift,
            cod,
            samples,
        )
        assert not report.ok
        assert len(report.counterexamples) >= 1


class TestPairGroupRank:
    def test_triangle_examples(self, triangle):
        assert pair_group_rank(triangle, 1, principal_pair(triangle, 1, 2)) == 1
        assert pair_group_rank(triangle, 0, principal_pair(triangle, 0, 1)) == 2

    def test_empty_complex_all_zero(self):
        k = FilteredComplex.build(GF2, FinitePoset.chain(3), [])
        for pair in enumerate_diagram_pairs(k.poset):
            for n in range(3):
                assert pair_group_rank(k, n, pair) == 0

    def test_equals_lifespan_rank_everywhere(self):
        rng = random.Random(103)
        for _ in range(4):
            k = random_filtration(rng, shape=(3, 2), field=FieldSpec.gf(5))
            for pair in enumerate_diagram_pairs(k.poset):
                for mode in (BlanketMode.FULL, BlanketMode.PRINCIPAL):
                    for n in range(k.max_dim + 1):
                        assert pair_group_rank(k, n, pair, mode) == lifespan_rank(
                            k, n, pair, mode
                        )
