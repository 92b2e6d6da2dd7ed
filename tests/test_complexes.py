import random
from fractions import Fraction

import numpy as np
import pytest

from persdiff.complexes import FilteredComplex, InvalidComplex
from persdiff.fields import FieldSpec
from persdiff.linalg import contains, matmul
from persdiff.posets import FinitePoset

from conftest import GF2, QQ, build_triangle, cells_present
from corpus import random_filtration


class TestValidate:
    def test_empty_complex_ok(self):
        k = FilteredComplex.build(GF2, FinitePoset.chain(2), [])
        assert k.validate() == []

    def test_edge_before_vertex(self):
        k = FilteredComplex.build(
            GF2,
            FinitePoset.chain(2),
            [
                {"id": "a", "vertices": ["a"], "births": [1]},
                {"id": "b", "vertices": ["b"], "births": [0]},
                {"id": "ab", "vertices": ["a", "b"], "births": [0]},
            ],
        )
        bad = k.validate()
        assert len(bad) == 1
        assert bad[0].kind == "birth-order"
        assert set(bad[0].cells) == {"ab", "a"}

    @pytest.mark.parametrize(
        "edge_births, violations",
        [
            # Only the face's second birth lies below the edge's birth.
            ([[1, 0]], []),
            # The edge's second birth lies below both births of the face.
            ([[1, 1], [0, 0]], ["birth-order: cell 'ab' is born at 0,0 before its face 'a' [ab, a]"]),
        ],
    )
    def test_face_with_two_births(self, edge_births, violations):
        k = FilteredComplex.build(
            GF2,
            FinitePoset.grid((2, 2)),
            [
                {"id": "a", "vertices": ["a"], "births": [[0, 1], [1, 0]]},
                {"id": "b", "vertices": ["b"], "births": [[0, 0]]},
                {"id": "ab", "vertices": ["a", "b"], "births": edge_births},
            ],
        )
        assert [str(v) for v in k.validate()] == violations

    def test_triangle_ok(self, triangle):
        assert triangle.validate() == []

    def test_duplicate_id(self):
        k = FilteredComplex.build(
            GF2,
            FinitePoset.chain(2),
            [
                {"id": "a", "vertices": ["a"], "births": [0]},
                {"id": "a", "vertices": ["b"], "births": [0]},
            ],
        )
        assert any(v.kind == "duplicate-id" for v in k.validate())

    def test_unknown_face(self):
        k = FilteredComplex.build(
            GF2,
            FinitePoset.chain(2),
            [
                {"id": "a", "vertices": ["a"], "births": [0]},
                {"id": "e", "dim": 1, "faces": [["missing", 1]], "births": [0]},
            ],
        )
        assert any(v.kind == "unknown-face" for v in k.validate())

    def test_boundary_squared_violation(self):
        k = FilteredComplex.build(
            QQ,
            FinitePoset.chain(2),
            [
                {"id": "v", "vertices": ["v"], "births": [0]},
                {"id": "e", "dim": 1, "faces": [["v", 1]], "births": [0]},
                {"id": "t", "dim": 2, "faces": [["e", 1]], "births": [0]},
            ],
        )
        assert any(v.kind == "boundary-squared" for v in k.validate())

    def test_require_valid_raises(self):
        k = FilteredComplex.build(
            GF2,
            FinitePoset.chain(2),
            [
                {"id": "a", "vertices": ["a"], "births": [1]},
                {"id": "b", "vertices": ["b"], "births": [0]},
                {"id": "ab", "vertices": ["a", "b"], "births": [0]},
            ],
        )
        with pytest.raises(InvalidComplex):
            k.require_valid()

    def test_bad_simplex_vertex_count(self):
        k = FilteredComplex.build(
            GF2,
            FinitePoset.chain(2),
            [{"id": "e", "dim": 1, "vertices": ["a", "a"], "births": [0]}],
        )
        assert any(v.kind == "bad-simplex" for v in k.validate())


class TestBoundaryMatrix:
    def test_degree_zero_has_no_rows(self, triangle):
        m = triangle.boundary_matrix(0)
        assert len(m.rows) == 0 and m.cols == 3

    def test_single_edge_gf2(self):
        k = FilteredComplex.build(
            GF2,
            FinitePoset.chain(1),
            [
                {"id": "u", "vertices": ["u"], "births": [0]},
                {"id": "v", "vertices": ["v"], "births": [0]},
                {"id": "uv", "vertices": ["u", "v"], "births": [0]},
            ],
        )
        assert k.boundary_matrix(1).tolist() == [[1], [1]]

    def test_triangle_two_cell_rational_signs(self):
        k = build_triangle(QQ)
        col = [row[0] for row in k.boundary_matrix(2).tolist()]
        # edges listed in lexicographic order ab, ac, bc
        assert col == [Fraction(1), Fraction(-1), Fraction(1)]

    def test_missing_degree_is_empty(self, triangle):
        m = triangle.boundary_matrix(5)
        assert len(m.rows) == 0 and m.cols == 0


class TestPresence:
    def test_below_all_births(self, two_param):
        assert cells_present(two_param, 1, two_param.poset.resolve((0, 0))) == ()

    def test_above_all_births(self, triangle):
        assert cells_present(triangle, 1, 2) == (0, 1, 2)

    def test_triangle_at_one(self, triangle):
        assert cells_present(triangle, 0, 1) == (0, 1, 2)
        assert cells_present(triangle, 1, 1) == (0, 1, 2)
        assert cells_present(triangle, 2, 1) == ()


class TestPointSubspaces:
    def test_cycles_empty_degree(self, triangle):
        assert triangle.cycles_at(3, 0).dim == 0

    def test_triangle_loop_at_one(self, triangle):
        z = triangle.cycles_at(1, 1)
        assert z.dim == 1
        assert z.basis.tolist() == [[1, 1, 1]]

    def test_degree_zero_everything_cycles(self, triangle):
        assert triangle.cycles_at(0, 0).dim == 3

    def test_no_boundaries_before_cofaces(self, triangle):
        assert triangle.boundaries_at(1, 1).dim == 0

    def test_triangle_loop_bounds_at_two(self, triangle):
        b = triangle.boundaries_at(1, 2)
        assert b.dim == 1
        assert b == triangle.cycles_at(1, 1)

    def test_vertex_boundaries_at_one(self, triangle):
        assert triangle.boundaries_at(0, 1).dim == 2


class TestStructuralProperties:
    def test_monotone_presence_and_subspaces(self):
        rng = random.Random(31)
        for _ in range(8):
            k = random_filtration(rng, shape=(3, 2), field=GF2)
            assert k.validate() == []
            p = k.poset
            for n in range(k.max_dim + 1):
                for x in range(p.n):
                    for y in range(p.n):
                        if p.leq(x, y):
                            assert set(cells_present(k, n, x)) <= set(cells_present(k, n, y))
                            assert contains(k.cycles_at(n, y), k.cycles_at(n, x))
                            assert contains(k.boundaries_at(n, y), k.boundaries_at(n, x))

    def test_boundary_squares_to_zero(self):
        rng = random.Random(37)
        for field in (GF2, FieldSpec.gf(5), QQ):
            k = random_filtration(rng, shape=(2, 2), field=field)
            for n in range(1, k.max_dim):
                prod = matmul(k.boundary_matrix(n), k.boundary_matrix(n + 1))
                assert all(x == 0 for row in prod.tolist() for x in row)

    def test_boundaries_are_cycles(self):
        rng = random.Random(41)
        k = random_filtration(rng, shape=(3, 3), field=FieldSpec.gf(5))
        for n in range(k.max_dim + 1):
            for x in range(k.poset.n):
                assert contains(k.cycles_at(n, x), k.boundaries_at(n, x))

    def test_maximal_grade_reaches_colimit(self, triangle):
        for n in range(triangle.max_dim + 1):
            assert triangle.cycles_at(n, 2) == triangle.colimit_cycles(n)


class TestBuildErrors:
    def test_births_required(self):
        with pytest.raises(InvalidComplex):
            FilteredComplex.build(
                GF2, FinitePoset.chain(2), [{"id": "a", "vertices": ["a"], "births": []}]
            )

    def test_generic_needs_dim(self):
        with pytest.raises(InvalidComplex):
            FilteredComplex.build(
                GF2, FinitePoset.chain(2), [{"id": "a", "faces": [], "births": [0]}]
            )


@pytest.mark.parametrize("shape", [(1,), (5,), (3, 3), (2, 3, 2)])
def test_a_degree_without_cells_has_one_class_and_all_covers_twins(shape):
    """A degree with no cells gets its table without a per-element pass:
    one class with no cells, every element in it, every lower cover a twin,
    and the degree's zero as that class's boundaries."""
    p = FinitePoset.grid(shape)
    births = [(0,) * len(shape)]
    k = FilteredComplex.build(GF2, p, [{"id": "a", "vertices": ["a"], "births": births}])
    table = k.presence_table(1)
    assert table.masks == [] and table.rows == [0]
    assert table.classes == [0] * p.n
    assert table.twins == list(p.lower_covers)
    assert all(k.boundaries_at(0, x) is k.zero(0) for x in range(p.n))
