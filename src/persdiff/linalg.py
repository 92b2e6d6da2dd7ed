"""Exact linear algebra: matrices, canonical subspaces, lattice ops.

Matrices and subspace bases are numpy arrays: int64 residues over GF(p)
and object arrays of ``Fraction`` over Q.  Row reduction copies the rows
into one of two exact row representations and eliminates there:

* GF(2): each row packed into a Python int, column 0 as the highest bit,
  so adding one row to another is one XOR.
* GF(p) for odd p, and Q: each row a sparse ``{column: value}`` dict of
  ints mod p or ``Fraction`` objects; zeros are never stored or visited.

Both return the reduced row echelon form, which depends only on the row
space, so the representation cannot change a result.  A
:class:`Subspace` keeps its basis in that form, so two subspaces are
equal exactly when their stored representations are equal.  Meets use
the Zassenhaus block reduction, joins are stack-and-reduce, containment
is a rank test on the stacked bases, and quotient dimensions are plain
differences guarded by a containment check.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .fields import FieldSpec


class DimensionMismatch(ValueError):
    """Operands live over different ambient spaces or fields."""


class NotASubspace(ValueError):
    """A claimed subspace containment does not hold."""


class Matrix:
    """Dense exact matrix over a :class:`FieldSpec`."""

    __slots__ = ("field", "data")

    def __init__(self, field: FieldSpec, data: np.ndarray):
        if data.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")
        self.field = field
        self.data = data

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Iterable], cols: int | None = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            if cols is None:
                raise ValueError("an empty row list needs an explicit column count")
            return cls(field, field.zeros(0, cols))
        ncols = len(rows[0]) if cols is None else cols
        a = field.zeros(len(rows), ncols)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("rows have differing lengths")
            for j, x in enumerate(row):
                a[i, j] = field.coerce(x)
        return cls(field, a)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return cls(field, field.zeros(rows, cols))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        a = field.zeros(n, n)
        one = field.one()
        for i in range(n):
            a[i, i] = one
        return cls(field, a)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data.shape == other.data.shape
            and bool(np.equal(self.data, other.data).all())
        )

    __hash__ = None

    def __repr__(self):
        return f"Matrix({self.field.token()}, {self.data.tolist()!r})"


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.field != b.field:
        raise DimensionMismatch("matrix product over different fields")
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    f = a.field
    x, y = a.data, b.data
    # Large residues could overflow int64 when inner products accumulate.
    if f.is_prime_field and f.characteristic > 2**15:
        x = x.astype(object)
        y = y.astype(object)
    return Matrix(f, f.normalize(x.dot(y)))


def _row_reduce(field: FieldSpec, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    ``a`` holds canonical field elements, as every :class:`Matrix` does.
    The result is a new array of ``a``'s shape and dtype with its zero
    rows at the bottom.  Both kernels run incremental Gauss-Jordan: each
    incoming row is reduced against the pivot rows found so far, scaled
    to a leading 1, and then cleared from the earlier pivot rows.
    """
    if field.characteristic == 2:
        return _row_reduce_gf2(a)
    return _row_reduce_sparse(field, a)


def _row_reduce_gf2(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """GF(2) rows packed into Python ints, column 0 as the highest bit.

    Rows go in and out as strings of binary digits, which ``int`` and
    ``format`` convert at C speed.  Pivots are keyed by bit position, and
    every pivot row has a zero in every other pivot's bit, so an incoming
    row is reduced by one XOR per pivot bit it has set.
    """
    nrows, ncols = a.shape
    if nrows == 0 or ncols == 0:
        return a.copy(), []
    digits = (a + ord("0")).astype(np.uint8).tobytes()
    pivots: dict[int, int] = {}
    mask = 0
    for start in range(0, nrows * ncols, ncols):
        row = int(digits[start : start + ncols], 2)
        hits = row & mask
        while hits:
            bit = hits.bit_length() - 1
            row ^= pivots[bit]
            hits ^= 1 << bit
        if not row:
            continue
        lead = row.bit_length() - 1
        for bit, prow in pivots.items():
            if prow >> lead & 1:
                pivots[bit] = prow ^ row
        pivots[lead] = row
        mask |= 1 << lead
    order = sorted(pivots, reverse=True)
    fmt = f"0{ncols}b"
    digits = "".join([format(pivots[bit], fmt) for bit in order]).ljust(nrows * ncols, "0")
    out = np.frombuffer(digits.encode(), dtype=np.uint8) - ord("0")
    return out.astype(a.dtype).reshape(nrows, ncols), [ncols - 1 - bit for bit in order]


def _row_reduce_sparse(field: FieldSpec, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """GF(p) and Q rows as ``{column: value}`` dicts holding no zeros.

    Values are ints reduced mod p over GF(p) and ``Fraction`` objects over
    Q.  Every pivot row has a leading 1 and a zero in every other pivot
    column, so an incoming row is reduced by one pass over its own
    pivot-column entries.
    """
    nrows, ncols = a.shape
    p = field.characteristic
    rows: dict[int, dict] = {}
    nz_rows, nz_cols = np.nonzero(a)
    for i, c, v in zip(nz_rows.tolist(), nz_cols.tolist(), a[nz_rows, nz_cols].tolist()):
        rows.setdefault(i, {})[c] = v
    pivots: dict[int, dict] = {}
    for row in rows.values():
        for c in [c for c in row if c in pivots]:
            _axpy(row, row[c], pivots[c], p)
        if not row:
            continue
        lead = min(row)
        scale = row[lead]
        if scale != 1:
            if p:
                inv = pow(scale, -1, p)
                row = {j: v * inv % p for j, v in row.items()}
            else:
                row = {j: v / scale for j, v in row.items()}
        for prow in pivots.values():
            factor = prow.get(lead)
            if factor is not None:
                _axpy(prow, factor, row, p)
        pivots[lead] = row
    order = sorted(pivots)
    out = np.zeros_like(a) if p else field.zeros(nrows, ncols)
    if order:
        ri, ci, vi = [], [], []
        for r, c in enumerate(order):
            row = pivots[c]
            ri.extend([r] * len(row))
            ci.extend(row)
            vi.extend(row.values())
        out[ri, ci] = vi
    return out, order


def _axpy(row: dict, factor, pivot_row: dict, p: int) -> None:
    """``row -= factor * pivot_row`` in place, dropping entries that vanish."""
    for j, v in pivot_row.items():
        x = row.get(j, 0) - factor * v
        if p:
            x %= p
        if x:
            row[j] = x
        else:
            del row[j]


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank.  Idempotent."""
    red, pivots = _row_reduce(m.field, m.data)
    return Matrix(m.field, red), len(pivots)


class Subspace:
    """Subspace of a fixed ambient coordinate space, in canonical form.

    The basis matrix is in reduced row echelon form with full row rank,
    so span equality is representation equality.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: FieldSpec, ambient_dim: int, basis: Matrix, pivots: tuple[int, ...]):
        # Trusts its arguments; use the classmethods to canonicalize.
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_array(cls, field: FieldSpec, arr: np.ndarray) -> "Subspace":
        red, pivots = _row_reduce(field, arr)
        basis = Matrix(field, red[: len(pivots)])
        return cls(field, arr.shape[1], basis, tuple(pivots))

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Iterable], ambient_dim: int | None = None) -> "Subspace":
        m = Matrix.from_rows(field, rows, cols=ambient_dim)
        return cls.from_array(field, m.data)

    @classmethod
    def zero(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.zeros(field, 0, ambient_dim), ())

    @classmethod
    def full(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(
            field,
            ambient_dim,
            Matrix.identity(field, ambient_dim),
            tuple(range(ambient_dim)),
        )

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    __hash__ = None

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, basis={self.basis.data.tolist()!r})"


def _check_pair(a: Subspace, b: Subspace) -> None:
    if a.field != b.field:
        raise DimensionMismatch("subspaces over different fields")
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def kernel(m: Matrix) -> Subspace:
    """Subspace of the domain annihilated by ``m``."""
    red, pivots = _row_reduce(m.field, m.data)
    n = m.cols
    f = m.field
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    if not free:
        return Subspace.zero(f, n)
    rows = f.zeros(len(free), n)
    one = f.one()
    for k, fc in enumerate(free):
        rows[k, fc] = one
        for i, pc in enumerate(pivots):
            rows[k, pc] = f.neg(red[i, fc])
    return Subspace.from_array(f, rows)


def column_space(m: Matrix) -> Subspace:
    """Subspace of the codomain spanned by the columns of ``m``."""
    return Subspace.from_array(m.field, m.data.T.copy())


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Largest subspace contained in both operands (Zassenhaus block trick)."""
    _check_pair(a, b)
    f = a.field
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(f, n)
    if a.dim == n:
        return b
    if b.dim == n:
        return a
    top = np.hstack([a.basis.data, a.basis.data])
    bot = np.hstack([b.basis.data, f.zeros(b.dim, n)])
    red, pivots = _row_reduce(f, np.vstack([top, bot]))
    rows = [red[i, n:] for i, pc in enumerate(pivots) if pc >= n]
    if not rows:
        return Subspace.zero(f, n)
    return Subspace.from_array(f, np.vstack(rows))


def join(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both operands (sum of subspaces)."""
    _check_pair(a, b)
    if a.dim == 0:
        return b
    if b.dim == 0:
        return a
    return Subspace.from_array(a.field, np.vstack([a.basis.data, b.basis.data]))


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff ``b`` is contained in ``a``: stacking ``b`` under ``a`` keeps the rank."""
    _check_pair(a, b)
    if b.dim == 0:
        return True
    if a.dim == 0:
        return False
    _, pivots = _row_reduce(a.field, np.vstack([a.basis.data, b.basis.data]))
    return len(pivots) == a.dim


def quotient_dim(big: Subspace, small: Subspace) -> int:
    """dim(big) - dim(small), requiring small to be contained in big."""
    if not contains(big, small):
        raise NotASubspace("the second operand is not contained in the first")
    return big.dim - small.dim


def complement_basis(big: Subspace, small: Subspace) -> Matrix:
    """Rows extending ``small`` to ``big``; representatives of the quotient.

    No canonicity is promised beyond determinism.
    """
    if not contains(big, small):
        raise NotASubspace("the second operand is not contained in the first")
    f = big.field
    current = small
    out = []
    for row in big.basis.data:
        extended = join(current, Subspace.from_array(f, row[None, :].copy()))
        if extended.dim > current.dim:
            out.append(row)
            current = extended
        if current.dim == big.dim:
            break
    return Matrix.from_rows(f, out, cols=big.ambient_dim)
