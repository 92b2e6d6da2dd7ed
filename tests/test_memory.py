import random
from functools import reduce

import pytest

from persdiff.complexes import FilteredComplex, InvalidComplex
from persdiff.diagrams import compute_diagram
from persdiff.fields import FieldSpec
from persdiff.linalg import Subspace, contains, join, kernel, meet
from persdiff.memory import (
    blanket_union,
    boundaries_on_open,
    cycles_on_open,
    homological_memory,
    lifespan_rank,
    lifespan_representatives,
)
from persdiff.posets import (
    EMPTY_OPEN,
    BlanketMode,
    FinitePoset,
    InvalidPair,
    PairOpen,
    enumerate_diagram_pairs,
    make_pair,
    pair_blankets,
    principal_up_set,
)

from conftest import GF2, GF5, QQ, build_long_chain, build_two_param, cells_present, select_columns
from corpus import random_filtration
from exhaustive import all_up_sets, meet_over_all_points, small_complexes


def principal_pair(k, b, d):
    p = k.poset
    return make_pair(p, principal_up_set(p, b), principal_up_set(p, d))


class TestCyclesOnOpen:
    def test_principal_equals_point(self, triangle):
        p = triangle.poset
        u = principal_up_set(p, 1)
        assert cycles_on_open(triangle, 1, u) == triangle.cycles_at(1, 1)

    def test_empty_open_is_top(self, triangle):
        assert cycles_on_open(triangle, 1, EMPTY_OPEN) == triangle.colimit_cycles(1)
        assert boundaries_on_open(triangle, 1, EMPTY_OPEN) == triangle.colimit_cycles(1)

    def test_union_of_incomparable_is_meet(self, two_param):
        p = two_param.poset
        u = p.closure([(0, 1), (1, 0)])
        got = cycles_on_open(two_param, 1, u)
        want = meet(two_param.cycles_at(1, p.resolve((0, 1))), two_param.cycles_at(1, p.resolve((1, 0))))
        assert got == want

    def test_min_element_shortcut_matches_full_meet(self):
        rng = random.Random(47)
        for _ in range(6):
            k = random_filtration(rng, shape=(3, 3), field=GF2)
            p = k.poset
            for _ in range(8):
                u = p.closure(rng.sample(range(p.n), rng.randint(1, 4)))
                n = rng.randint(0, max(k.max_dim, 0))
                assert cycles_on_open(k, n, u) == meet_over_all_points(k, n, u.members)


class TestBoundariesOnOpen:
    def test_principal_equals_point(self, triangle):
        p = triangle.poset
        v = principal_up_set(p, 2)
        assert boundaries_on_open(triangle, 1, v) == triangle.boundaries_at(1, 2)

    def test_triangle_loop_boundary(self, triangle):
        p = triangle.poset
        got = boundaries_on_open(triangle, 1, principal_up_set(p, 2))
        assert got.dim == 1
        assert got.basis.tolist() == [[1, 1, 1]]


    def test_diagram_reads_points_through_cycles_on_support_and_boundaries_at(
        self, two_param, monkeypatch
    ):
        """Every per-point subspace the diagram builds is asked for through
        one named entry: the cycles on each support through
        ``cycles_on_support``, cut from the one colimit kernel per degree,
        and each class's boundaries through ``boundaries_at``, which the
        benchmark's point-subspace counter wraps."""
        import persdiff.complexes as complexes

        supports, classes, kernels = set(), set(), []
        original_cycles = FilteredComplex.cycles_on_support
        original_boundaries = FilteredComplex.boundaries_at
        original_kernel = complexes.kernel

        def cycles(self, n, keep):
            supports.add((n, keep.to_bytes((keep.bit_length() + 7) // 8, "little")))
            return original_cycles(self, n, keep)

        def boundaries(self, n, x):
            classes.add((n + 1, self.presence_table(n + 1).classes[x]))
            return original_boundaries(self, n, x)

        monkeypatch.setattr(FilteredComplex, "cycles_on_support", cycles)
        monkeypatch.setattr(FilteredComplex, "boundaries_at", boundaries)
        monkeypatch.setattr(complexes, "kernel", lambda m: kernels.append(m) or original_kernel(m))
        compute_diagram(two_param)
        filled = {
            (degree, c)
            for degree, table in two_param.memo["presence_table"].items()
            for c, sub in enumerate(table.boundaries)
            if sub is not None
        }
        assert supports and supports == set(two_param.memo["cycles"])
        assert classes and classes == filled
        assert len(kernels) == len(two_param.memo["colimit"]) == two_param.max_dim + 1


def point_cycles(k, n, x):
    """Cycles at element index ``x`` built from the definition: the kernel
    of the boundary on the n-cells born at or below ``x``, each kernel row
    written back into colimit coordinates."""
    present = [j for j, c in enumerate(k.cells_of_dim(n)) if any(k.poset.leq(b, x) for b in c.births)]
    width = k.ambient_dim(n)
    rows = []
    for row in kernel(select_columns(k.boundary_matrix(n), present)).basis.tolist():
        dense = [0] * width
        for j, v in zip(present, row):
            dense[j] = v
        rows.append(dense)
    return Subspace.from_array(k.field, rows, width)


def check_support_identity(k, opens):
    """Cycles at points, cycles on opens and pair memories cut by supports,
    each against the meets they replace, over every open in ``opens`` and
    every pair of them."""
    p = k.poset
    fresh = FilteredComplex(k.field, p, list(k.all_cells()))
    for n in range(max(k.max_dim, 0) + 1):
        for x in range(p.n):
            assert k.cycles_at(n, x) == point_cycles(fresh, n, x)
        for u in opens:
            assert cycles_on_open(k, n, u) == meet_over_all_points(fresh, n, u.members)
        for u in opens:
            for v in opens:
                if v.bits & ~u.bits:
                    continue
                pair = PairOpen(u, v)
                want = meet(cycles_on_open(fresh, n, u), boundaries_on_open(fresh, n, v))
                assert homological_memory(k, n, pair) == want, (n, u, v)


class TestSupportIdentity:
    """Z(U) = Z ∩ span S(U), and Z(U) ∩ B(V) = B(V) ∩ span S(U)."""

    @pytest.mark.parametrize("field", [GF2, QQ], ids=lambda f: f.token())
    def test_every_open_of_every_small_poset(self, field):
        for leq, _, k in small_complexes(field):
            opens = [k.poset.closure(sorted(u)) if u else EMPTY_OPEN for u in all_up_sets(leq)]
            check_support_identity(k, opens)

    @pytest.mark.parametrize("field", [GF2, GF5, QQ], ids=lambda f: f.token())
    def test_random_filtrations(self, field):
        rng = random.Random(89)
        for _ in range(3):
            k = random_filtration(rng, shape=(3, 2), field=field, max_cells=16)
            pairs = enumerate_diagram_pairs(k.poset)
            opens = {u.key: u for pair in pairs for u in pair}
            opens.update((u.key, u) for u in (k.poset.closure(rng.sample(range(k.poset.n), 2)) for _ in range(6)))
            check_support_identity(k, list(opens.values()))

    def test_boundary_that_does_not_square_to_zero_is_refused(self):
        """With ∂∂ ≠ 0 a boundary need not be a cycle, and a support would
        cut a different memory than the meet: the memory entry points raise
        instead."""
        p = FinitePoset.chain(2)
        cells = [
            {"id": "v", "vertices": ["v"], "births": [0]},
            {"id": "e", "dim": 1, "faces": [["v", 1]], "births": [0]},
            {"id": "t", "dim": 2, "faces": [["e", 1]], "births": [0]},
        ]
        k = FilteredComplex.build(QQ, p, cells)
        pair = make_pair(p, principal_up_set(p, 0), principal_up_set(p, 1))
        for call in (
            lambda: homological_memory(k, 1, pair),
            lambda: cycles_on_open(k, 1, pair.birth),
            lambda: blanket_union(k, 1, pair, 1),
            lambda: k.cycles_at(1, 0),
            lambda: compute_diagram(k),
        ):
            with pytest.raises(InvalidComplex, match="boundary-squared"):
                call()


class TestHomologicalMemory:
    def test_empty_death_is_birth_cycles(self, triangle):
        p = triangle.poset
        pair = make_pair(p, principal_up_set(p, 1), EMPTY_OPEN)
        assert homological_memory(triangle, 1, pair) == cycles_on_open(
            triangle, 1, principal_up_set(p, 1)
        )

    def test_triangle_values(self, triangle):
        assert homological_memory(triangle, 1, principal_pair(triangle, 1, 2)).dim == 1
        p = triangle.poset
        u1 = principal_up_set(p, 1)
        pair_same = make_pair(p, u1, u1)
        assert homological_memory(triangle, 1, pair_same).dim == 0

    def test_rejects_invalid_pair(self, two_param):
        p = two_param.poset
        bad = PairOpen(principal_up_set(p, (0, 1)), principal_up_set(p, (1, 0)))
        with pytest.raises(InvalidPair):
            homological_memory(two_param, 0, bad)


class TestBlanketUnion:
    def test_degree_zero_is_memory(self, triangle):
        pair = principal_pair(triangle, 1, 2)
        assert blanket_union(triangle, 1, pair, 0) == homological_memory(triangle, 1, pair)

    def test_no_blankets_gives_zero(self, triangle):
        p = triangle.poset
        pair = make_pair(p, p.top(), p.top())
        got = blanket_union(triangle, 1, pair, 1)
        assert got == Subspace.zero(GF2, triangle.ambient_dim(1))

    def test_triangle_degree_one_union_vanishes(self, triangle):
        pair = principal_pair(triangle, 1, 2)
        assert blanket_union(triangle, 1, pair, 1).dim == 0


class TestLifespanRank:
    def test_triangle_loop(self, triangle):
        assert lifespan_rank(triangle, 1, principal_pair(triangle, 1, 2)) == 1

    def test_triangle_components(self, triangle):
        assert lifespan_rank(triangle, 0, principal_pair(triangle, 0, 1)) == 2

    def test_triangle_essential_component(self, triangle):
        p = triangle.poset
        pair = make_pair(p, principal_up_set(p, 0), EMPTY_OPEN)
        assert lifespan_rank(triangle, 0, pair) == 1

    def test_two_param_loop(self, two_param):
        p = two_param.poset
        pair = make_pair(p, principal_up_set(p, (1, 1)), principal_up_set(p, (2, 2)))
        assert lifespan_rank(two_param, 1, pair) == 1
        other = make_pair(p, principal_up_set(p, (1, 1)), principal_up_set(p, (1, 2)))
        assert lifespan_rank(two_param, 1, other) == 0

    def test_representatives_span_complement(self, triangle):
        pair = principal_pair(triangle, 1, 2)
        reps = lifespan_representatives(triangle, 1, pair)
        assert len(reps.rows) == 1
        mem = homological_memory(triangle, 1, pair)
        rebuilt = join(
            blanket_union(triangle, 1, pair, 1),
            Subspace.from_array(GF2, reps.tolist(), reps.cols),
        )
        assert rebuilt == mem


class TestFunctoriality:
    def test_presheaf_monotonicity(self):
        rng = random.Random(53)
        for _ in range(5):
            k = random_filtration(rng, shape=(3, 2), field=FieldSpec.gf(5))
            p = k.poset
            for _ in range(10):
                inner = p.closure(rng.sample(range(p.n), rng.randint(0, p.n // 2)))
                outer = p.closure(
                    sorted(inner.members) + rng.sample(range(p.n), rng.randint(0, 2))
                )
                n = rng.randint(0, max(k.max_dim, 0))
                assert contains(cycles_on_open(k, n, inner), cycles_on_open(k, n, outer))
                assert contains(
                    boundaries_on_open(k, n, inner), boundaries_on_open(k, n, outer)
                )

    def test_memory_contained_in_blanketed(self):
        rng = random.Random(59)
        k = random_filtration(rng, shape=(3, 3), field=GF2)
        p = k.poset
        pairs = enumerate_diagram_pairs(p)
        for pair in rng.sample(pairs, 10):
            mem = homological_memory(k, 1, pair)
            for w in pair_blankets(p, pair):
                assert contains(mem, homological_memory(k, 1, w))

    def test_extended_functor_monotonicity(self):
        rng = random.Random(61)
        for _ in range(4):
            k = random_filtration(rng, shape=(3, 2), field=GF2)
            p = k.poset
            pairs = enumerate_diagram_pairs(p)
            for _ in range(10):
                base = rng.choice(pairs)
                walked = base
                for _ in range(rng.randint(0, 2)):
                    options = pair_blankets(p, walked)
                    if not options:
                        break
                    walked = rng.choice(options)
                m = rng.randint(0, 1)
                n = m + rng.randint(0, 2)
                d = rng.randint(0, max(k.max_dim, 0))
                assert contains(
                    blanket_union(k, d, base, m), blanket_union(k, d, walked, n)
                )

    def test_extended_functor_monotonicity_arbitrary_pairs(self):
        # The same containment over arbitrary comparable pairs of opens,
        # principal or not.
        from corpus import random_nested_pairs

        rng = random.Random(71)
        for _ in range(3):
            k = random_filtration(rng, shape=(2, 3), field=GF2)
            p = k.poset
            for _ in range(12):
                inner, outer = random_nested_pairs(rng, p)
                m = rng.randint(0, 1)
                n = m + rng.randint(0, 2)
                d = rng.randint(0, max(k.max_dim, 0))
                assert contains(
                    blanket_union(k, d, inner, m), blanket_union(k, d, outer, n)
                )

    def test_representatives_count_matches_rank(self):
        rng = random.Random(73)
        k = random_filtration(rng, shape=(3, 2), field=GF2)
        for pair in enumerate_diagram_pairs(k.poset)[:12]:
            for n in range(k.max_dim + 1):
                reps = lifespan_representatives(k, n, pair)
                assert len(reps.rows) == lifespan_rank(k, n, pair)

    def test_returned_matrices_leave_the_memo_unchanged(self):
        """Editing a matrix from ``basis`` or ``lifespan_representatives``
        leaves the memoized subspaces as a fresh complex computes them."""
        for field in (GF5, QQ):
            edited = random_filtration(random.Random(71), shape=(2, 3), field=field)
            fresh = random_filtration(random.Random(71), shape=(2, 3), field=field)
            pairs = enumerate_diagram_pairs(edited.poset)
            for n in range(edited.max_dim + 1):
                for pair in pairs:
                    for m in (
                        lifespan_representatives(edited, n, pair),
                        homological_memory(edited, n, pair).basis,
                        edited.cycles_at(n, pair.birth.sorted_members()[0]).basis,
                    ):
                        for row in m.rows:
                            row.clear()
                for pair in pairs:
                    assert homological_memory(edited, n, pair) == homological_memory(fresh, n, pair)
                    assert lifespan_representatives(edited, n, pair) == lifespan_representatives(fresh, n, pair)
                for x in range(edited.poset.n):
                    assert edited.cycles_at(n, x) == fresh.cycles_at(n, x)

    def test_union_contained_in_memory_both_modes(self):
        rng = random.Random(67)
        k = random_filtration(rng, shape=(2, 3), field=GF2)
        for pair in enumerate_diagram_pairs(k.poset):
            for mode in (BlanketMode.FULL, BlanketMode.PRINCIPAL):
                for n in range(k.max_dim + 1):
                    assert contains(
                        homological_memory(k, n, pair),
                        blanket_union(k, n, pair, 1, mode),
                    )


class TestModeBehaviour:
    def test_modes_agree_on_triangle(self, triangle):
        for pair in enumerate_diagram_pairs(triangle.poset):
            for n in range(3):
                assert lifespan_rank(triangle, n, pair, BlanketMode.FULL) == lifespan_rank(
                    triangle, n, pair, BlanketMode.PRINCIPAL
                )

    def test_principal_mode_overcounts_born_dead_classes(self):
        # Principal mode drops the equal-coordinate blanket pair, so a
        # component merged at its own birth grade leaks into the [0, 1)
        # count.  Full mode (the default) quotients it away and matches the
        # reduction oracle; this pins the known divergence down.
        from persdiff.complexes import FilteredComplex
        from persdiff.posets import FinitePoset

        p = FinitePoset.chain(2)
        k = FilteredComplex.build(
            GF2,
            p,
            [
                {"id": "u", "vertices": ["u"], "births": [0]},
                {"id": "v", "vertices": ["v"], "births": [0]},
                {"id": "uv", "vertices": ["u", "v"], "births": [0]},
            ],
        )
        pair = make_pair(p, principal_up_set(p, 0), principal_up_set(p, 1))
        assert lifespan_rank(k, 0, pair, BlanketMode.FULL) == 0
        assert lifespan_rank(k, 0, pair, BlanketMode.PRINCIPAL) == 1


class TestSharedSubspaces:
    """Point subspaces are shared by presence class, and meets and joins are
    done once per distinct operand set, without changing any value."""

    @pytest.mark.parametrize("build", [build_long_chain, build_two_param])
    def test_one_subspace_per_presence_tuple(self, build, monkeypatch):
        """Elements with the same cells present share one cycle and one
        boundary subspace.  The cycles of a degree are all cut from its one
        colimit kernel; the boundaries take one column space per non-empty
        class."""
        import persdiff.complexes as complexes

        k = build()
        made = []
        for name in ("kernel", "column_space"):
            original = getattr(complexes, name)

            def counted(m, name=name, original=original):
                made.append(name)
                return original(m)

            monkeypatch.setattr(complexes, name, counted)
        for n in range(k.max_dim + 2):
            for boundaries, at in ((False, k.cycles_at), (True, k.boundaries_at)):
                made.clear()
                by_presence = {}
                for x in range(k.poset.n):
                    sub = at(n, x)
                    first = by_presence.setdefault(cells_present(k, n + boundaries, x), sub)
                    assert first is sub
                if boundaries:
                    # The empty tuple gives the zero subspace and needs no column space.
                    assert made == ["column_space"] * len([cols for cols in by_presence if cols])
                else:
                    assert made == ["kernel"]

    @pytest.mark.parametrize("field", [GF2, GF5, QQ], ids=lambda f: f.token())
    def test_memories_and_unions_equal_plain_lattice_ops(self, field):
        """Every principal pair's memory and degree-1 unions, in both modes,
        against the same values built one meet and join at a time."""
        rng = random.Random(67)
        for _ in range(3):
            k = random_filtration(rng, shape=(3, 3), field=field, max_cells=14)
            p = k.poset
            fresh = FilteredComplex(field, p, list(k.all_cells()))

            def memory(n, pair):
                sub = meet_over_all_points(fresh, n, pair.birth.members)
                for y in sorted(pair.death.members):
                    sub = meet(sub, fresh.boundaries_at(n, y))
                return sub

            for n in range(k.max_dim + 1):
                for pair in enumerate_diagram_pairs(p):
                    assert homological_memory(k, n, pair) == memory(n, pair)
                    for mode in BlanketMode:
                        memories = [memory(n, w) for w in pair_blankets(p, pair, mode)]
                        want = reduce(join, memories, Subspace.zero(field, k.ambient_dim(n)))
                        assert blanket_union(k, n, pair, 1, mode) == want
