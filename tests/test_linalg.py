import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from persdiff.fields import FieldSpec, InvalidField
from persdiff.linalg import (
    DimensionMismatch,
    Matrix,
    NotASubspace,
    Subspace,
    column_space,
    complement_basis,
    contains,
    join,
    kernel,
    mask_columns,
    matmul,
    meet,
    quotient_dim,
    restrict,
    transpose,
)

from conftest import select_columns
from dense_reference import dense, dense_row_reduce, dense_zeros
from exhaustive import kernel_set, span_rank, span_set

GF2 = FieldSpec.gf(2)
GF5 = FieldSpec.gf(5)
QQ = FieldSpec.rationals()


def gf2_subspace(rows, ambient=None):
    return Subspace.from_array(GF2, rows, ambient_dim=ambient)


class TestRref:
    """The reduced row echelon form a subspace hands out as ``basis``."""

    def test_zero_matrix(self):
        s = Subspace.from_array(GF2, [[0, 0, 0], [0, 0, 0]])
        assert s.dim == 0
        assert s.basis == Matrix.from_array(GF2, [], 3)

    def test_identity(self):
        s = Subspace.from_array(GF2, Subspace.full(GF2, 3).basis.tolist())
        assert s.dim == 3
        assert s.basis == Subspace.full(GF2, 3).basis

    def test_gf2_rank_two(self):
        rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
        assert span_rank(2, rows, 3) == 2  # brute-force span enumeration
        assert Subspace.from_array(GF2, rows).dim == 2

    def test_idempotent(self):
        red = Subspace.from_array(GF5, [[2, 3, 1], [4, 1, 0], [1, 4, 1]]).basis
        again = Subspace.from_array(GF5, red.tolist()).basis
        assert again == red and len(red.rows) == 2

    def test_rational_entries_stay_exact(self):
        s = Subspace.from_array(QQ, [["1/3", "1/6"], ["2/3", "1/3"]])
        assert s.dim == 1
        assert s.basis.tolist() == [[Fraction(1), Fraction(1, 2)]]
        assert all(type(x) is Fraction for row in s.basis.tolist() for x in row)


class TestKernel:
    def test_zero_map(self):
        assert kernel(Matrix.from_entries(GF2, 2, 3, [])) == Subspace.full(GF2, 3)

    def test_identity(self):
        assert kernel(Subspace.full(GF2, 3).basis) == Subspace.zero(GF2, 3)

    def test_gf2_example(self):
        rows = [[1, 1, 0], [0, 1, 1]]
        expected_vectors = kernel_set(2, rows, 3)
        assert expected_vectors == frozenset({(0, 0, 0), (1, 1, 1)})
        assert kernel(Matrix.from_array(GF2, rows)) == gf2_subspace([[1, 1, 1]])


class TestColumnSpace:
    def test_zero_map(self):
        assert column_space(Matrix.from_entries(GF2, 2, 3, [])) == Subspace.zero(GF2, 2)

    def test_identity(self):
        assert column_space(Subspace.full(GF2, 3).basis) == Subspace.full(GF2, 3)

    def test_gf2_example(self):
        m = Matrix.from_array(GF2, [[1, 0], [1, 1], [0, 1]])
        got = column_space(m)
        assert got.dim == 2
        assert span_set(2, got.basis.tolist(), 3) == span_set(
            2, [[1, 1, 0], [0, 1, 1]], 3
        )


class TestLattice:
    def test_meet_with_full(self):
        x = gf2_subspace([[1, 0], [0, 1]])
        y = gf2_subspace([[1, 1]], ambient=2)
        assert meet(x, y) == y

    def test_meet_containment_case(self):
        a = gf2_subspace([[1, 0], [0, 1]])
        b = gf2_subspace([[1, 1]], ambient=2)
        assert meet(a, b) == b

    def test_meet_derived(self):
        a = gf2_subspace([[1, 1, 0], [0, 1, 1]])
        b = gf2_subspace([[1, 0, 0], [0, 0, 1]])
        expected = span_set(2, a.basis.tolist(), 3) & span_set(
            2, b.basis.tolist(), 3
        )
        got = meet(a, b)
        assert got == gf2_subspace([[1, 0, 1]])
        assert span_set(2, got.basis.tolist(), 3) == expected

    def test_join_unit_and_idempotent(self):
        x = gf2_subspace([[1, 0, 1]])
        assert join(Subspace.zero(GF2, 3), x) == x
        assert join(x, x) == x

    def test_join_derived(self):
        got = join(gf2_subspace([[1, 0, 0]]), gf2_subspace([[0, 1, 0]]))
        assert got == gf2_subspace([[1, 0, 0], [0, 1, 0]])
        assert got.dim == 2

    def test_contains(self):
        full = Subspace.full(GF2, 3)
        zero = Subspace.zero(GF2, 3)
        x = gf2_subspace([[1, 1, 0], [0, 1, 1]])
        assert contains(full, x)
        assert not contains(zero, x)
        # (1,0,1) is the sum of the two basis rows
        assert contains(x, gf2_subspace([[1, 0, 1]]))

    def test_quotient_dim(self):
        x = gf2_subspace([[1, 1, 0], [0, 1, 1]])
        assert quotient_dim(x, x) == 0
        assert quotient_dim(Subspace.full(GF2, 3), Subspace.zero(GF2, 3)) == 3
        big = gf2_subspace([[1, 0, 0], [0, 1, 0]])
        small = gf2_subspace([[1, 1, 0]])
        assert quotient_dim(big, small) == 1

    def test_quotient_requires_containment(self):
        with pytest.raises(NotASubspace):
            quotient_dim(gf2_subspace([[1, 0]]), gf2_subspace([[0, 1]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            meet(Subspace.zero(GF2, 2), Subspace.zero(GF2, 3))
        with pytest.raises(DimensionMismatch):
            join(Subspace.full(GF2, 2), Subspace.full(GF2, 3))
        with pytest.raises(DimensionMismatch):
            contains(Subspace.full(GF2, 2), Subspace.full(QQ, 2))

    def test_complement_basis(self):
        big = gf2_subspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        small = gf2_subspace([[1, 1, 0]])
        comp = complement_basis(big, small)
        rebuilt = join(small, Subspace.from_array(GF2, comp.tolist(), comp.cols))
        assert rebuilt == big
        assert len(comp.rows) == 2


def _random_gf2_rows(rng, ambient, count):
    return [[rng.randrange(2) for _ in range(ambient)] for _ in range(count)]


class TestCanonicalForm:
    def test_scrambled_generators_same_representation(self):
        rng = random.Random(7)
        for _ in range(60):
            ambient = rng.randint(1, 5)
            rows = _random_gf2_rows(rng, ambient, rng.randint(1, 4))
            sub = Subspace.from_array(GF2, rows, ambient_dim=ambient)
            scrambled = [list(r) for r in rows]
            rng.shuffle(scrambled)
            for _ in range(4):
                i, j = rng.randrange(len(scrambled)), rng.randrange(len(scrambled))
                if i != j:
                    scrambled[i] = [
                        (x + y) % 2 for x, y in zip(scrambled[i], scrambled[j])
                    ]
            assert Subspace.from_array(GF2, scrambled, ambient_dim=ambient) == sub

    def test_equal_representation_iff_equal_span(self):
        rng = random.Random(11)
        for _ in range(80):
            ambient = rng.randint(1, 5)
            rows_a = _random_gf2_rows(rng, ambient, rng.randint(0, 3))
            rows_b = _random_gf2_rows(rng, ambient, rng.randint(0, 3))
            a = Subspace.from_array(GF2, rows_a, ambient_dim=ambient)
            b = Subspace.from_array(GF2, rows_b, ambient_dim=ambient)
            same_span = span_set(2, rows_a, ambient) == span_set(2, rows_b, ambient)
            assert (a == b) == same_span


@st.composite
def gf2_matrix(draw, max_rows=4, max_cols=5):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    data = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix.from_array(GF2, data)


@st.composite
def gf2_subspace_pair(draw, ambient=4):
    def rows():
        n = draw(st.integers(0, 3))
        return [
            draw(st.lists(st.integers(0, 1), min_size=ambient, max_size=ambient))
            for _ in range(n)
        ]

    return (
        Subspace.from_array(GF2, rows(), ambient_dim=ambient),
        Subspace.from_array(GF2, rows(), ambient_dim=ambient),
    )


@given(gf2_matrix())
def test_rank_nullity(m):
    rank = Subspace.from_array(GF2, m.tolist(), m.cols).dim
    assert rank + kernel(m).dim == m.cols


@given(gf2_subspace_pair())
def test_modular_law(pair):
    a, b = pair
    assert join(a, b).dim + meet(a, b).dim == a.dim + b.dim


@given(gf2_subspace_pair())
def test_meet_join_bounds(pair):
    a, b = pair
    m, j = meet(a, b), join(a, b)
    assert contains(a, m) and contains(b, m)
    assert contains(j, a) and contains(j, b)


def test_field_inverse():
    for p in (2, 5, 7, 2**31 - 1):
        f = FieldSpec.gf(p)
        for x in [*range(1, min(p, 8)), p - 1]:
            assert f.inv(x) * x % p == 1 and 0 < f.inv(x) < p
        for zero in (0, p):
            with pytest.raises(ZeroDivisionError):
                f.inv(zero)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_rational_coefficient_size_limit():
    """Q scalars keep numerators and denominators to 4,300 digits, the
    interpreter's own limit on int strings; exponents are read first."""
    assert QQ.coerce("1e4299") == 10**4299
    assert QQ.coerce("-2.5e-4298") == Fraction(-1, 4 * 10**4297)
    assert QQ.coerce("0.5e3") == 500 and QQ.coerce(" 7/3 ") == Fraction(7, 3)
    assert QQ.coerce(10**4300 - 1) == 10**4300 - 1
    for x in ["1e4300", "1e-4300", "1e20000", "1e1000000000", "0e1000000000", 10**4300, Fraction(1, 10**4300)]:
        with pytest.raises(InvalidField, match="too large"):
            QQ.coerce(x)
    for x in ["1" * 4301, "1/" + "3" * 4301, "1e" + "9" * 4301, "1e", "e5", "1e5/2"]:
        with pytest.raises(InvalidField, match="bad coefficient"):
            QQ.coerce(x)


def test_rational_rank_matches_large_prime_field():
    rng = random.Random(3)
    big = FieldSpec.gf(2**31 - 1)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert Subspace.from_array(QQ, data).dim == Subspace.from_array(big, data).dim


def test_matmul_shapes_and_large_prime():
    big = FieldSpec.gf(2**31 - 1)
    a = Matrix.from_array(big, [[2**30, 1], [3, 4]])
    b = Matrix.from_array(big, [[5, 6], [7, 8]])
    got = matmul(a, b)
    p = 2**31 - 1
    assert got.tolist()[0][0] == (2**30 * 5 + 7) % p
    with pytest.raises(DimensionMismatch):
        matmul(a, Matrix.from_entries(big, 3, 2, []))


# -- elimination kernels against the dense reference ---------------------

KERNEL_FIELDS = [GF2, FieldSpec.gf(3), FieldSpec.gf(2**31 - 1), QQ]


def _scalar(field):
    if field.is_prime_field:
        p = field.characteristic
        return st.one_of(st.integers(0, 2), st.integers(0, p - 1)).map(field.coerce)
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def kernel_input(draw, field=None):
    """A field and a matrix: any shape from 0x0 to 9x9, with optional
    duplicate and all-zero rows, so wide and tall cases both occur."""
    field = field or draw(st.sampled_from(KERNEL_FIELDS))
    nrows = draw(st.integers(0, 9))
    ncols = draw(st.integers(0, 9))
    rows = draw(
        st.lists(st.lists(_scalar(field), min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)
    )
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [field.coerce(0)] * ncols)
    a = dense_zeros(field, len(rows), ncols)
    for i, row in enumerate(rows):
        a[i, :] = row
    return field, a


def _matrix(field, a: np.ndarray) -> Matrix:
    return Matrix.from_array(field, a, a.shape[1])


def _scalar_type(field):
    return int if field.is_prime_field else Fraction


def _assert_same_reduction(red: Matrix, rank: int, want):
    """A ``basis`` of ``rank`` rows holds the reference's non-zero rows,
    entry types and pivots."""
    ref, ref_pivots = want
    got, ref_rows = red.tolist(), ref.tolist()[:rank]
    assert (len(got), red.cols) == (rank, ref.shape[1])
    assert got == ref_rows
    assert [type(x) for row in got for x in row] == [type(x) for row in ref_rows for x in row]
    leading = [next(j for j, x in enumerate(row) if x) for row in got]
    assert leading == ref_pivots and rank == len(ref_pivots)


@given(kernel_input())
@example((GF2, dense_zeros(GF2, 0, 0)))
@example((QQ, dense_zeros(QQ, 0, 4)))
@example((FieldSpec.gf(3), dense_zeros(FieldSpec.gf(3), 3, 0)))
@example((QQ, dense_zeros(QQ, 2, 3)))
def test_kernel_matches_dense_reference(case):
    field, a = case
    m = _matrix(field, a)
    before = _snapshot(m)
    s = Subspace.from_array(field, a, a.shape[1])
    _assert_same_reduction(s.basis, s.dim, dense_row_reduce(field, a))
    kernel(m)
    assert _snapshot(m) == before
    assert all(type(x) is _scalar_type(field) for row in s.basis.tolist() for x in row)
    assert Subspace.from_array(field, s.basis.tolist(), a.shape[1]).basis == s.basis


@given(st.sampled_from(KERNEL_FIELDS).flatmap(lambda f: st.tuples(kernel_input(f), kernel_input(f))))
def test_contains_is_a_rank_test(cases):
    (field, a), (_, b) = cases
    width = min(a.shape[1], b.shape[1])
    sa = Subspace.from_array(field, a[:, :width], width)
    sb = Subspace.from_array(field, b[:, :width], width)
    stacked = np.vstack([dense(sa.basis), dense(sb.basis)])
    assert contains(sa, sb) == (len(dense_row_reduce(field, stacked)[1]) == sa.dim)
    assert contains(join(sa, sb), sb) and contains(sa, meet(sa, sb))


# -- row-native lattice ops against the dense reference -------------------


def _dense_span(field, a: np.ndarray) -> np.ndarray:
    """RREF basis of the row space of ``a``, zero rows dropped."""
    red, pivots = dense_row_reduce(field, a)
    return red[: len(pivots)]


def _dense_meet(field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zassenhaus on dense arrays, each half reduced by the dense reference."""
    n = a.shape[1]
    block = np.vstack([np.hstack([a, a]), np.hstack([b, dense_zeros(field, b.shape[0], n)])])
    red, pivots = dense_row_reduce(field, block)
    right = [red[i, n:] for i, c in enumerate(pivots) if c >= n]
    return _dense_span(field, np.vstack(right)) if right else dense_zeros(field, 0, n)


def _dense_rank(field, *blocks) -> int:
    return len(dense_row_reduce(field, np.vstack(blocks))[1])


def _assert_rows_match_basis(s: Subspace):
    """``table`` holds the same RREF as ``basis`` (over Q each row scaled
    to a primitive integer row with a positive lead), each row stored
    under its lead, and editing the matrix ``basis`` returns leaves the
    subspace as it was."""
    data = dense(s.basis)
    n = s.ambient_dim
    assert data.shape == (s.dim, n) == (len(s.table), n)
    assert type(s.table) is dict
    before = _snapshot(s)
    _scribble(s.basis)
    assert _snapshot(s) == before
    assert _dense_span(s.field, data).tolist() == data.tolist()
    # Pivot-column order: over GF(2) the key is the leading bit.
    stored = sorted(s.table.items(), reverse=s.field.characteristic == 2)
    for (pivot, row), entries in zip(stored, s.basis.tolist()):
        if s.field.characteristic == 2:
            assert row == int("".join(map(str, entries)), 2)
            assert pivot == row.bit_length() - 1
        elif s.field.is_prime_field:
            assert row == {j: v for j, v in enumerate(entries) if v}
            assert pivot == min(row) and row[pivot] == 1
        else:
            _assert_primitive_integer_row(row, pivot, s.table)
            assert {j: Fraction(v, row[pivot]) for j, v in row.items()} == {
                j: v for j, v in enumerate(entries) if v
            }
    assert all(type(x) is _scalar_type(s.field) for row in s.basis.tolist() for x in row)


def _assert_primitive_integer_row(row: dict, pivot: int, pivots) -> None:
    """A Q subspace row: ints with no common factor, a positive lead at
    ``pivot``, and a zero in every other pivot column."""
    assert all(type(v) is int and v for v in row.values())
    assert pivot == min(row) and row[pivot] > 0
    assert gcd(*row.values()) == 1
    assert not set(row) & (set(pivots) - {pivot})


def _snapshot(s: Subspace | Matrix):
    rows = s.table.items() if isinstance(s, Subspace) else enumerate(s.rows)
    return {c: r if isinstance(r, int) else dict(r) for c, r in rows}


def _scribble(m: Matrix):
    """Overwrite every dict row of ``m`` in place."""
    for row in m.rows:
        if isinstance(row, dict):
            row.clear()
            row[0] = 7


@st.composite
def subspace_case(draw, field, ambient):
    """A subspace and the dense rows it was built from: zero, full, or the
    span of up to five rows (duplicates and zero rows included)."""
    kind = draw(st.sampled_from(["zero", "full", "span", "span", "span"]))
    if kind == "zero":
        return Subspace.zero(field, ambient), dense_zeros(field, 0, ambient)
    if kind == "full":
        one = field.one()
        eye = dense_zeros(field, ambient, ambient)
        for i in range(ambient):
            eye[i, i] = one
        return Subspace.full(field, ambient), eye
    rows = draw(
        st.lists(st.lists(_scalar(field), min_size=ambient, max_size=ambient), max_size=5)
    )
    if rows and draw(st.booleans()):
        rows.append(list(rows[0]))
    a = dense_zeros(field, len(rows), ambient)
    for i, row in enumerate(rows):
        a[i, :] = row
    return Subspace.from_array(field, a, ambient), a


@st.composite
def lattice_case(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    ambient = draw(st.integers(0, 6))
    return field, draw(subspace_case(field, ambient)), draw(subspace_case(field, ambient))


@settings(max_examples=300)
@given(lattice_case())
@example(
    (GF2, (Subspace.zero(GF2, 0), dense_zeros(GF2, 0, 0)), (Subspace.full(GF2, 0), dense_zeros(GF2, 0, 0)))
)
def test_lattice_ops_match_dense_reference(case):
    field, (sa, a), (sb, b) = case
    before = [_snapshot(sa), _snapshot(sb)]
    for x, dx in ((sa, a), (sb, b)):
        _assert_rows_match_basis(x)
        assert x.basis.tolist() == _dense_span(field, dx).tolist()
    for (x, dx), (y, dy) in (((sa, a), (sb, b)), ((sb, b), (sa, a))):
        m, j = meet(x, y), join(x, y)
        _assert_rows_match_basis(m)
        _assert_rows_match_basis(j)
        assert m.basis.tolist() == _dense_meet(field, dx, dy).tolist()
        assert j.basis.tolist() == _dense_span(field, np.vstack([dx, dy])).tolist()
        inside = _dense_rank(field, dx, dy) == _dense_rank(field, dx)
        assert contains(x, y) == inside
        if inside:
            assert quotient_dim(x, y) == x.dim - y.dim
        else:
            with pytest.raises(NotASubspace):
                quotient_dim(x, y)
    assert [_snapshot(sa), _snapshot(sb)] == before


@st.composite
def containment_case(draw):
    """Two subspaces over a field of ``KERNEL_FIELDS``, the second drawn
    half the time inside the first: the span of random combinations of its
    rows."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    ambient = draw(st.integers(0, 6))
    sa, a = draw(subspace_case(field, ambient))
    if not draw(st.booleans()):
        return field, (sa, a), draw(subspace_case(field, ambient))
    count = draw(st.integers(0, 4))
    coeffs = dense_zeros(field, count, a.shape[0])
    for i in range(count):
        coeffs[i, :] = draw(st.lists(_scalar(field), min_size=a.shape[0], max_size=a.shape[0]))
    b = field.normalize(coeffs.dot(a)) if count and a.shape[0] else dense_zeros(field, count, ambient)
    return field, (sa, a), (Subspace.from_array(field, b, ambient), b)


@settings(max_examples=200)
@given(containment_case())
def test_contains_matches_dense_reference(case):
    """A rank test on the stacked rows, in both directions; every subspace
    contains itself and an equal subspace held as another object."""
    field, (sa, a), (sb, b) = case
    for (x, dx), (y, dy) in (((sa, a), (sb, b)), ((sb, b), (sa, a))):
        assert contains(x, y) == (_dense_rank(field, dx, dy) == _dense_rank(field, dx))
    for x, dx in ((sa, a), (sb, b)):
        twin = Subspace.from_array(field, dx, x.ambient_dim)
        assert twin is not x and twin == x
        assert contains(x, x) and contains(x, twin) and contains(twin, x)


@settings(max_examples=100)
@given(lattice_case())
def test_complement_basis_keeps_rows_that_raise_the_rank(case):
    field, (sa, _), (sb, _) = case
    big, small = join(sa, sb), sb
    before = [_snapshot(big), _snapshot(small)]
    kept = dense(small.basis)
    want = []
    for row in dense(big.basis):
        if _dense_rank(field, kept, row[None, :]) > _dense_rank(field, kept):
            want.append(row.tolist())
            kept = np.vstack([kept, row[None, :]])
    got = complement_basis(big, small)
    assert got.tolist() == want
    _scribble(complement_basis(big, small))
    assert all(type(x) is _scalar_type(field) for row in got.tolist() for x in row)
    assert got.cols == big.ambient_dim
    assert join(small, Subspace.from_array(field, got.tolist(), got.cols)) == big
    assert [_snapshot(big), _snapshot(small)] == before


def _coordinate(field, keep: int, ambient: int) -> Subspace:
    """The span of the unit vectors on the columns of ``keep``, column 0
    the highest bit."""
    one = field.one()
    rows = [[one if c == j else 0 for c in range(ambient)] for j in range(ambient) if keep >> (ambient - 1 - j) & 1]
    return Subspace.from_array(field, rows, ambient)


@settings(max_examples=200)
@given(
    st.sampled_from(KERNEL_FIELDS).flatmap(
        lambda f: st.integers(0, 7).flatmap(
            lambda n: st.tuples(subspace_case(f, n), st.integers(0, (1 << n) - 1))
        )
    )
)
def test_restrict_matches_meet_with_coordinate_subspace(case):
    """``restrict`` against ``meet`` with the coordinate subspace on the
    kept columns, and against the dense Zassenhaus reference; ``sub``
    itself when every row lies inside the kept columns."""
    (sub, a), keep = case
    field, n = sub.field, sub.ambient_dim
    before = _snapshot(sub)
    for kept in (keep, 0, (1 << n) - 1):
        coordinate = _coordinate(field, kept, n)
        got = restrict(sub, kept)
        _assert_rows_match_basis(got)
        assert got == meet(sub, coordinate)
        assert got.basis.tolist() == _dense_meet(field, a, dense(coordinate.basis)).tolist()
        if contains(coordinate, sub):
            assert got is sub
    assert restrict(sub, 0).dim == 0
    assert _snapshot(sub) == before


@pytest.mark.parametrize("field", [GF2, GF5, QQ], ids=lambda f: f.token())
def test_restrict_on_zero_and_full_operands(field):
    for n in range(5):
        zero, full = Subspace.zero(field, n), Subspace.full(field, n)
        for keep in range(1 << n):
            assert restrict(zero, keep) is zero
            assert restrict(full, keep) == _coordinate(field, keep, n)
        assert restrict(full, (1 << n) - 1) is full
        assert restrict(full, 0) == zero


@given(kernel_input())
def test_kernel_and_column_space_match_dense_reference(case):
    field, a = case
    m = _matrix(field, a)
    ker, col = kernel(m), column_space(m)
    _assert_rows_match_basis(ker)
    _assert_rows_match_basis(col)
    assert ker.dim + len(dense_row_reduce(field, a)[1]) == a.shape[1]
    product = matmul(m, Matrix.from_array(field, dense(ker.basis).T, ker.dim))
    assert all(x == 0 for row in product.tolist() for x in row)
    assert col.basis.tolist() == _dense_span(field, a.T.copy()).tolist()


# -- Q subspaces as primitive integer rows ---------------------------------

# Scalars whose numerators and denominators share no factor with the small
# ones, and whose products are far beyond a machine word.
AWKWARD_RATIONALS = [Fraction(10**30, 7), Fraction(-(10**30), 7), Fraction(1, 997), Fraction(-3, 10**20 + 39)]


def _awkward_rational():
    return st.one_of(
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
        st.sampled_from(AWKWARD_RATIONALS),
        st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**25)),
    )


@st.composite
def rational_pair(draw):
    """Two Q matrices of the same width, from 0x0 up to 6x6."""
    ncols = draw(st.integers(0, 6))
    arrays = []
    for _ in range(2):
        rows = draw(
            st.lists(st.lists(_awkward_rational(), min_size=ncols, max_size=ncols), max_size=6)
        )
        if rows and draw(st.booleans()):
            rows.append([3 * x for x in draw(st.sampled_from(rows))])
        a = dense_zeros(QQ, len(rows), ncols)
        for i, row in enumerate(rows):
            a[i, :] = row
        arrays.append(a)
    return arrays


def _dense_kernel(a: np.ndarray) -> np.ndarray:
    """RREF basis of the null space of ``a``, from its dense RREF."""
    red, pivots = dense_row_reduce(QQ, a)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    vectors = dense_zeros(QQ, len(free), a.shape[1])
    for i, fc in enumerate(free):
        vectors[i, fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vectors[i, pc] = -red[r, fc]
    return _dense_span(QQ, vectors)


def _assert_integer_rref(s: Subspace, want: np.ndarray):
    """Every row of a Q subspace is a primitive integer row with a positive
    lead and a zero in each other pivot column, and ``basis`` is the dense
    ``Fraction`` RREF ``want``."""
    assert type(s.table) is dict and len(s.table) == s.dim
    for pivot, row in s.table.items():
        _assert_primitive_integer_row(row, pivot, s.table)
    assert s.basis.tolist() == want.tolist()
    assert all(type(x) is Fraction for row in s.basis.tolist() for x in row)


@settings(max_examples=150)
@given(rational_pair(), st.lists(st.booleans(), min_size=8, max_size=8))
@example([np.array([[Fraction(10**30, 7), Fraction(1, 997)]], dtype=object), dense_zeros(QQ, 0, 2)], [True] * 8)
def test_rational_subspaces_hold_primitive_integer_rows(arrays, gaps):
    a, b = arrays
    n = a.shape[1]
    sa, sb = Subspace.from_array(QQ, a, n), Subspace.from_array(QQ, b, n)
    m = _matrix(QQ, a)
    keep = sum(1 << (n - 1 - c) for c in range(n) if not gaps[c])
    coordinate = _coordinate(QQ, keep, n)
    cases = [
        (sa, _dense_span(QQ, a)),
        (sb, _dense_span(QQ, b)),
        (meet(sa, sb), _dense_meet(QQ, a, b)),
        (meet(sb, sa), _dense_meet(QQ, a, b)),
        (join(sa, sb), _dense_span(QQ, np.vstack([a, b]))),
        (kernel(m), _dense_kernel(a)),
        (column_space(m), _dense_span(QQ, a.T.copy())),
        (restrict(sa, keep), _dense_meet(QQ, a, dense(coordinate.basis))),
    ]
    for s, want in cases:
        _assert_integer_rref(s, want)
    # What a caller is handed holds Fractions, and editing it leaves the
    # subspaces alone.
    big = join(sa, sb)
    before = [_snapshot(s) for s, _ in cases]
    handed = [sa.basis, big.basis, complement_basis(big, sa)]
    for out in handed:
        assert all(type(x) is Fraction for row in out.tolist() for x in row)
        _scribble(out)
    assert [_snapshot(s) for s, _ in cases] == before
    assert sa.basis.tolist() == _dense_span(QQ, a).tolist()


@given(st.sampled_from(KERNEL_FIELDS).flatmap(lambda f: st.tuples(kernel_input(f), st.lists(st.booleans(), max_size=9))))
def test_row_form_ops_match_dense_arrays(case):
    """``from_entries``, ``transpose``, ``select_columns``, ``mask_columns``
    and ``matmul`` on rows agree with the same operation on dense arrays."""
    (field, a), keep = case
    m = _matrix(field, a)
    nrows, ncols = a.shape
    entries = [(i, j, a[i, j]) for i in range(nrows) for j in range(ncols)]
    assert Matrix.from_entries(field, nrows, ncols, entries + entries) == _matrix(field, field.normalize(a + a))
    assert transpose(m) == _matrix(field, a.T)
    cols = [j for j in range(ncols) if j < len(keep) and keep[j]]
    assert select_columns(m, cols) == _matrix(field, a[:, cols])
    masked = a.copy()
    masked[:, [j for j in range(ncols) if j not in cols]] = 0
    assert mask_columns(m, sum(1 << ncols - 1 - j for j in cols)) == _matrix(field, masked)
    want = field.normalize(a.astype(object).dot(a.T.astype(object)))
    got = matmul(m, _matrix(field, a.T))
    assert got == _matrix(field, want)
    assert got.tolist() == want.tolist()
