"""Exact linear algebra: matrices, canonical subspaces, lattice ops.

Matrices are numpy arrays: int64 residues over GF(p) and object arrays
of ``Fraction`` over Q.  Elimination runs on exact row lists instead, in
one of two row forms:

* GF(2): each row a Python int, column 0 as the highest bit, so adding
  one row to another is one XOR.
* GF(p) for odd p, and Q: each row a sparse ``{column: value}`` dict of
  ints mod p or ``Fraction`` objects; zeros are never stored or visited.

A :class:`Subspace` keeps its canonical basis, the reduced row echelon
form, in that row form together with its pivot columns.  The RREF depends
only on the row space, so two subspaces are equal exactly when their rows
are.  The lattice ops work on those rows with no array in between: a
meet is one Gauss-Jordan pass over the Zassenhaus block ``[A A; B 0]``,
a join inserts the smaller operand's rows into the larger one's pivot
table, containment reduces one operand's rows against the other's pivots,
and quotient dimensions are plain differences guarded by a containment
check.  ``Subspace.basis`` builds a read-only :class:`Matrix` on first
use.
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




# -- row kernels ------------------------------------------------------------
#
# A pivot table maps each pivot to its row: the leading bit over GF(2), the
# leading column over GF(p) and Q.  Every row in a table has a leading 1 and
# a zero in every other pivot, so a row is reduced against the table by one
# pass over its own pivot entries.  Rows are shared between subspaces, so no
# kernel mutates a row it was given; a table row that changes is replaced.


def _eliminate(field: FieldSpec, table: dict, rows: Iterable) -> dict:
    """Incremental Gauss-Jordan: insert ``rows`` into ``table`` and return it.

    Each incoming row is reduced against the pivot rows, scaled to a
    leading 1, and then cleared from the other pivot rows.
    """
    if field.characteristic == 2:
        _eliminate_gf2(table, rows)
    else:
        _eliminate_sparse(table, rows, field.characteristic)
    return table


def _eliminate_gf2(table: dict[int, int], rows: Iterable[int]) -> None:
    mask = 0
    for bit in table:
        mask |= 1 << bit
    for row in rows:
        row = _residual_gf2(table, mask, row)
        if not row:
            continue
        lead = row.bit_length() - 1
        for bit, prow in table.items():
            if prow >> lead & 1:
                table[bit] = prow ^ row
        table[lead] = row
        mask |= 1 << lead


def _residual_gf2(table: dict[int, int], mask: int, row: int) -> int:
    """``row`` minus its pivot entries times the pivot rows: one XOR each."""
    hits = row & mask
    while hits:
        bit = hits.bit_length() - 1
        row ^= table[bit]
        hits ^= 1 << bit
    return row


def _eliminate_sparse(table: dict[int, dict], rows: Iterable[dict], p: int) -> None:
    for row in rows:
        row = _residual_sparse(table, row, p)
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
        for c, prow in table.items():
            factor = prow.get(lead)
            if factor is not None:
                table[c] = _axpy(dict(prow), factor, row, p)
        table[lead] = row


def _residual_sparse(table: dict[int, dict], row: dict, p: int) -> dict:
    """``row`` minus its pivot entries times the pivot rows, as a new dict
    when anything is subtracted.  Clearing one pivot column leaves the
    other pivot entries as they were, so they are read from ``row``."""
    hits = [c for c in row if c in table]
    if not hits:
        return row
    out = dict(row)
    for c in hits:
        _axpy(out, row[c], table[c], p)
    return out


def _axpy(row: dict, factor, pivot_row: dict, p: int) -> dict:
    """``row -= factor * pivot_row`` in place, dropping entries that vanish."""
    for j, v in pivot_row.items():
        x = row.get(j, 0) - factor * v
        if p:
            x %= p
        if x:
            row[j] = x
        else:
            del row[j]
    return row


def _sorted_rows(field: FieldSpec, ncols: int, table: dict) -> tuple[tuple, tuple[int, ...]]:
    """A pivot table's rows in pivot-column order, and those columns."""
    if field.characteristic == 2:
        # A higher leading bit is a larger int and an earlier pivot column.
        rows = tuple(sorted(table.values(), reverse=True))
        return rows, tuple([ncols - r.bit_length() for r in rows])
    pivots = tuple(sorted(table))
    return tuple([table[c] for c in pivots]), pivots


def _array_rows(field: FieldSpec, a: np.ndarray) -> list:
    """The non-zero rows of ``a`` in row form.

    ``a`` holds canonical field elements, as every :class:`Matrix` does.
    """
    nrows, ncols = a.shape
    if field.characteristic == 2:
        if ncols == 0:
            return []
        # Binary-digit strings convert to and from ints at C speed.
        digits = (a + ord("0")).astype(np.uint8).tobytes()
        rows = [int(digits[s : s + ncols], 2) for s in range(0, nrows * ncols, ncols)]
        return [r for r in rows if r]
    rows: dict[int, dict] = {}
    nz_rows, nz_cols = np.nonzero(a)
    for i, c, v in zip(nz_rows.tolist(), nz_cols.tolist(), a[nz_rows, nz_cols].tolist()):
        rows.setdefault(i, {})[c] = v
    return list(rows.values())


def _rows_array(field: FieldSpec, rows: Sequence, nrows: int, ncols: int) -> np.ndarray:
    """A ``field.zeros(nrows, ncols)`` array holding ``rows`` from the top."""
    if field.characteristic == 2:
        if ncols == 0:
            return field.zeros(nrows, ncols)
        fmt = f"0{ncols}b"
        digits = "".join([format(r, fmt) for r in rows]).ljust(nrows * ncols, "0")
        out = np.frombuffer(digits.encode(), dtype=np.uint8) - ord("0")
        return out.astype(np.int64).reshape(nrows, ncols)
    out = field.zeros(nrows, ncols)
    if rows:
        ri, ci, vi = [], [], []
        for r, row in enumerate(rows):
            ri.extend([r] * len(row))
            ci.extend(row)
            vi.extend(row.values())
        out[ri, ci] = vi
    return out


def _row_reduce(field: FieldSpec, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    The result is a new array of ``a``'s shape and dtype with its zero
    rows at the bottom, computed by the same row kernels as the lattice
    ops.
    """
    nrows, ncols = a.shape
    table = _eliminate(field, {}, _array_rows(field, a))
    rows, pivots = _sorted_rows(field, ncols, table)
    out = _rows_array(field, rows, nrows, ncols)
    return (out if out.dtype == a.dtype else out.astype(a.dtype)), list(pivots)


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank.  Idempotent."""
    red, pivots = _row_reduce(m.field, m.data)
    return Matrix(m.field, red), len(pivots)


class Subspace:
    """Subspace of a fixed ambient coordinate space, in canonical form.

    ``rows`` is the reduced row echelon basis in row form (see the module
    docstring), in pivot-column order, and ``pivots`` holds those columns,
    so span equality is representation equality.  ``basis`` is the same
    basis as a read-only :class:`Matrix`, built on first use.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots", "dim", "_basis")

    def __init__(self, field: FieldSpec, ambient_dim: int, rows: tuple, pivots: tuple[int, ...]):
        # Trusts its arguments; use the classmethods to canonicalize.
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots
        self.dim = len(pivots)
        self._basis = None

    @classmethod
    def from_array(cls, field: FieldSpec, arr: np.ndarray) -> "Subspace":
        return cls._spanned(field, arr.shape[1], _array_rows(field, arr))

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Iterable], ambient_dim: int | None = None) -> "Subspace":
        m = Matrix.from_rows(field, rows, cols=ambient_dim)
        return cls.from_array(field, m.data)

    @classmethod
    def _spanned(cls, field: FieldSpec, ambient_dim: int, rows: Iterable) -> "Subspace":
        """The span of rows already in row form."""
        return cls._from_table(field, ambient_dim, _eliminate(field, {}, rows))

    @classmethod
    def _from_table(cls, field: FieldSpec, ambient_dim: int, table: dict) -> "Subspace":
        return cls(field, ambient_dim, *_sorted_rows(field, ambient_dim, table))

    def _table(self) -> dict:
        """A fresh pivot table holding this subspace's rows."""
        if self.field.characteristic == 2:
            return {r.bit_length() - 1: r for r in self.rows}
        return dict(zip(self.pivots, self.rows))

    @classmethod
    def zero(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        if field.characteristic == 2:
            rows = tuple([1 << (ambient_dim - 1 - c) for c in range(ambient_dim)])
        else:
            rows = tuple([{c: field.one()} for c in range(ambient_dim)])
        return cls(field, ambient_dim, rows, tuple(range(ambient_dim)))

    @property
    def basis(self) -> Matrix:
        if self._basis is None:
            data = _rows_array(self.field, self.rows, self.dim, self.ambient_dim)
            data.setflags(write=False)
            self._basis = Matrix(self.field, data)
        return self._basis

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    __hash__ = None

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, basis={self.basis.data.tolist()!r})"


def _check_pair(a: Subspace, b: Subspace) -> None:
    if a.field is not b.field and a.field != b.field:
        raise DimensionMismatch("subspaces over different fields")
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def kernel(m: Matrix) -> Subspace:
    """Subspace of the domain annihilated by ``m``.

    One vector per free column: 1 there, and minus that column's entry of
    each RREF row at the row's pivot.
    """
    f, n = m.field, m.cols
    table = _eliminate(f, {}, _array_rows(f, m.data))
    if len(table) == n:
        return Subspace.zero(f, n)
    rows = []
    if f.characteristic == 2:
        for bit in range(n - 1, -1, -1):
            if bit not in table:
                v = 1 << bit
                for pbit, prow in table.items():
                    if prow >> bit & 1:
                        v |= 1 << pbit
                rows.append(v)
    else:
        one = f.one()
        for fc in range(n):
            if fc not in table:
                v = {fc: one}
                for pc, prow in table.items():
                    x = prow.get(fc)
                    if x is not None:
                        v[pc] = f.neg(x)
                rows.append(v)
    return Subspace._spanned(f, n, rows)


def column_space(m: Matrix) -> Subspace:
    """Subspace of the codomain spanned by the columns of ``m``."""
    return Subspace.from_array(m.field, m.data.T)


def embed(sub: Subspace, positions: Sequence[int], ambient_dim: int) -> Subspace:
    """Image of ``sub`` under the coordinate inclusion ``c -> positions[c]``.

    Positions are increasing, so relabelling the columns of the RREF rows
    keeps them reduced.
    """
    f = sub.field
    if f.characteristic == 2:
        k = len(positions)
        target = [ambient_dim - 1 - positions[k - 1 - bit] for bit in range(k)]
        rows = []
        for r in sub.rows:
            v = 0
            while r:
                bit = r.bit_length() - 1
                v |= 1 << target[bit]
                r ^= 1 << bit
            rows.append(v)
    else:
        rows = [{positions[c]: x for c, x in r.items()} for r in sub.rows]
    return Subspace(f, ambient_dim, tuple(rows), tuple([positions[c] for c in sub.pivots]))


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Largest subspace contained in both operands (Zassenhaus block trick).

    Reducing ``[A A; B 0]`` leaves the RREF basis of the intersection in
    the right half of the rows whose pivot lies there.  ``A`` is the
    larger operand: its rows are already reduced, so only ``B``'s are
    inserted.
    """
    _check_pair(a, b)
    f = a.field
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return a if a.dim == 0 else b
    if a.dim == n:
        return b
    if b.dim == n:
        return a
    big, small = (a, b) if a.dim >= b.dim else (b, a)
    if f.characteristic == 2:
        table = {r.bit_length() - 1 + n: r << n | r for r in big.rows}
        _eliminate_gf2(table, [r << n for r in small.rows])
        table = {bit: r for bit, r in table.items() if bit < n}
    else:
        table = {
            c: {**r, **{j + n: x for j, x in r.items()}} for c, r in zip(big.pivots, big.rows)
        }
        _eliminate_sparse(table, small.rows, f.characteristic)
        table = {c - n: {j - n: x for j, x in r.items()} for c, r in table.items() if c >= n}
    if len(table) == small.dim:
        return small
    return Subspace._from_table(f, n, table)


def join(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both operands (sum of subspaces)."""
    _check_pair(a, b)
    big, small = (a, b) if a.dim >= b.dim else (b, a)
    if small.dim == 0:
        return big
    table = _eliminate(a.field, big._table(), small.rows)
    if len(table) == big.dim:
        return big
    return Subspace._from_table(a.field, a.ambient_dim, table)


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff ``b`` is contained in ``a``: every row of ``b`` reduces to
    zero against ``a``'s pivot rows."""
    _check_pair(a, b)
    if b.dim == 0:
        return True
    # A vector of ``a`` leads in one of ``a``'s pivot columns.
    if not set(b.pivots).issubset(a.pivots):
        return False
    table = a._table()
    if a.field.characteristic == 2:
        mask = 0
        for bit in table:
            mask |= 1 << bit
        return not any(_residual_gf2(table, mask, row) for row in b.rows)
    p = a.field.characteristic
    return not any(_residual_sparse(table, row, p) for row in b.rows)


def quotient_dim(big: Subspace, small: Subspace) -> int:
    """dim(big) - dim(small), requiring small to be contained in big."""
    if not contains(big, small):
        raise NotASubspace("the second operand is not contained in the first")
    return big.dim - small.dim


def complement_basis(big: Subspace, small: Subspace) -> Matrix:
    """Rows extending ``small`` to ``big``; representatives of the quotient.

    Each basis row of ``big`` is inserted into ``small``'s pivot table in
    turn, and kept when it raises the rank.  No canonicity is promised
    beyond determinism.
    """
    if not contains(big, small):
        raise NotASubspace("the second operand is not contained in the first")
    table = small._table()
    kept = []
    for i, row in enumerate(big.rows):
        if len(table) == big.dim:
            break
        rank = len(table)
        _eliminate(big.field, table, [row])
        if len(table) > rank:
            kept.append(i)
    return Matrix(big.field, big.basis.data[kept])
