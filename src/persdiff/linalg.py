"""Exact linear algebra: matrices, canonical subspaces, lattice ops.

Matrices and subspaces are tuples of exact rows, in one of two row
forms:

* GF(2): each row a Python int, column 0 as the highest bit, so adding
  one row to another is one XOR.
* GF(p) for odd p, and Q: each row a sparse ``{column: value}`` dict;
  zeros are never stored or visited.  Over GF(p) the values are ints
  mod p.  Over Q a matrix row holds ``Fraction`` objects, but a subspace
  row holds ints with no common factor, so no elimination step
  normalises a fraction.  Denominators are cleared once, when a matrix
  row enters a pivot table.

GF(p) and Q share one sparse elimination kernel; the field enters only
through ``p`` (0 over Q) in :func:`_cleared` and :func:`_normalized`, in
how rows enter a table (:func:`_table_rows`) and in how they are handed
out (:func:`_handed_out`).

A :class:`Subspace` is the pivot table of its canonical basis, the
reduced row echelon form: each pivot maps to its RREF row in that row
form.  Over Q each RREF row is scaled to its primitive integer multiple
with a positive leading entry, which is as canonical.  The RREF depends
only on the row space, so two subspaces are equal exactly when their
tables are.  ``basis`` and ``complement_basis`` hand out RREF
rows in pivot-column order, divided back to ``Fraction`` entries over Q.
The lattice ops read the tables: a join inserts the smaller operand's
rows into a copy of the larger one's table; containment reduces one
operand's rows against the other's table; a meet reduces each row ``b``
of the smaller operand against the larger one's table as the block row
``[b | b]`` and eliminates only those rows (Zassenhaus); and quotient
dimensions are plain differences guarded by a containment check.
A restriction meets a subspace with the coordinate subspace on a set of
columns without a second operand: its rows are eliminated on the other
columns first, and those left with no entry there span the meet.  That
is how cycles and pair memories are cut to a cell support: a cycle is
present on an open exactly when its support is, so Z(U) = Z ∩ span S(U)
for the colimit cycles Z; and since ∂∂ = 0 puts every boundary in Z,
Z(U) ∩ B(V) = B(V) ∩ span S(U).
Boundary matrices are built, multiplied, transposed and cut to a set of
columns in the same row form.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .fields import FieldSpec


class DimensionMismatch(ValueError):
    """Operands live over different ambient spaces or fields."""


class NotASubspace(ValueError):
    """A claimed subspace containment does not hold."""


class Matrix:
    """Exact matrix over a :class:`FieldSpec`, held as a tuple of rows in
    row form (see the module docstring); a zero row is ``0`` or ``{}``."""

    __slots__ = ("field", "rows", "cols")

    def __init__(self, field: FieldSpec, rows: Sequence, cols: int):
        # Trusts its arguments; use the classmethods to coerce scalars.
        self.field = field
        self.rows = tuple(rows)
        self.cols = cols

    @classmethod
    def from_array(cls, field: FieldSpec, array: Sequence[Iterable], cols: int | None = None) -> "Matrix":
        """A matrix from a 2-D sequence of scalars, each coerced to the field."""
        dense = [[field.coerce(x) for x in row] for row in array]
        if cols is None:
            if not dense:
                raise ValueError("an empty row list needs an explicit column count")
            cols = len(dense[0])
        if any(len(row) != cols for row in dense):
            raise ValueError("rows have differing lengths")
        entries = [(i, j, x) for i, row in enumerate(dense) for j, x in enumerate(row)]
        return cls.from_entries(field, len(dense), cols, entries)

    @classmethod
    def from_entries(cls, field: FieldSpec, nrows: int, ncols: int, entries: Iterable[tuple]) -> "Matrix":
        """A matrix from ``(row, column, scalar)`` triples; repeated entries add up."""
        sums: list[dict] = [{} for _ in range(nrows)]
        for r, c, x in entries:
            sums[r][c] = field.normalize(sums[r].get(c, 0) + x)
        if field.characteristic == 2:
            rows = [sum([1 << (ncols - 1 - c) for c, x in row.items() if x]) for row in sums]
        else:
            rows = [{c: x for c, x in row.items() if x} for row in sums]
        return cls(field, rows, ncols)

    def _items(self, row) -> list[tuple[int, object]]:
        """(column, scalar) pairs of the non-zero entries of one of the rows."""
        if self.field.characteristic == 2:
            return [(j, 1) for j, digit in enumerate(format(row, f"0{self.cols}b")) if digit == "1"]
        return list(row.items())

    def tolist(self) -> list[list]:
        """The entries as a list of dense rows of field scalars."""
        out = [[self.field.coerce(0)] * self.cols for _ in self.rows]
        for dense, row in zip(out, self.rows):
            for j, x in self._items(row):
                dense[j] = x
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.cols == other.cols
            and self.rows == other.rows
        )

    __hash__ = None

    def __repr__(self):
        return f"Matrix({self.field.token()}, {self.tolist()!r})"


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.field != b.field:
        raise DimensionMismatch("matrix product over different fields")
    if a.cols != len(b.rows):
        raise DimensionMismatch(
            f"cannot multiply {len(a.rows)}x{a.cols} by {len(b.rows)}x{b.cols}"
        )
    b_items = [b._items(row) for row in b.rows]
    products = [(i, j, x * y) for i, row in enumerate(a.rows) for k, x in a._items(row) for j, y in b_items[k]]
    return Matrix.from_entries(a.field, len(a.rows), b.cols, products)


def transpose(m: Matrix) -> Matrix:
    nrows = len(m.rows)
    if m.field.characteristic == 2:
        out = bit_transpose(m.rows, m.cols)
    else:
        out = [{} for _ in range(m.cols)]
        for r, row in enumerate(m.rows):
            for j, x in row.items():
                out[j][r] = x
    return Matrix(m.field, out, nrows)


def bit_transpose(rows: Sequence[int], width: int) -> list[int]:
    """Columns of a 0/1 matrix whose rows are ints of ``width`` bits, the
    first column as the highest bit; the first row becomes the highest bit.

    Rows are written out as binary strings, so a column is a strided slice.
    """
    if not rows or not width:
        return [0] * width
    flat = "".join([format(row, f"0{width}b") for row in rows])
    return [int(flat[c::width], 2) for c in range(width)]


def mask_columns(m: Matrix, keep: int) -> Matrix:
    """``m`` with the columns outside ``keep`` zeroed; ``keep`` flags
    columns as a GF(2) row holds them, column 0 the highest bit."""
    if m.field.characteristic == 2:
        rows = [row & keep for row in m.rows]
    else:
        top = m.cols - 1
        rows = [{c: x for c, x in row.items() if keep >> top - c & 1} for row in m.rows]
    return Matrix(m.field, rows, m.cols)


# -- row kernels ------------------------------------------------------------
#
# A pivot table maps each pivot to its row: the leading bit over GF(2), the
# leading column over GF(p) and Q.  Every row in a table has a zero in every
# other pivot, and a leading 1 over GF(p) or a positive leading entry and no
# common factor over Q, so a row is reduced against the table by one pass
# over its own pivot entries.  There is one kernel for int rows and one for
# sparse rows, keyed on p; all GF(p) and Q arithmetic is in _cleared, which
# clears one column of a row, and _normalized, which scales a row to its
# canonical multiple.  Rows are shared between subspaces, so no kernel
# mutates a row it was given; a table row that changes is replaced.


def _eliminate(field: FieldSpec, table: dict, rows: Iterable) -> dict:
    """Incremental Gauss-Jordan: insert ``rows`` into ``table`` and return it.

    Each incoming row is reduced against the pivot rows, normalised (a
    leading 1, or over Q a primitive integer row with a positive lead),
    and then cleared from the other pivot rows: XORs over GF(2), and
    :func:`_cleared` and :func:`_normalized` over GF(p) and Q alike.  Over
    Q the rows must hold ints; see :func:`_table_rows`.
    """
    p = field.characteristic
    if p == 2:
        _eliminate_gf2(table, rows)
    else:
        _eliminate_sparse(table, rows, p)
    return table


def _residual(field: FieldSpec, table: dict, row):
    """``row`` reduced against ``table``: zero exactly when it lies in the
    table's span.  Over Q it is a positive multiple of that reduction."""
    p = field.characteristic
    if p == 2:
        return _residual_gf2(table, row)
    return _residual_sparse(table, row, p)


def _table_rows(field: FieldSpec, rows: Iterable) -> Iterable:
    """Matrix rows as rows a pivot table takes: integer rows over Q."""
    return rows if field.characteristic else map(_integer_row, rows)


def _integer_row(row: dict) -> dict:
    """A row of ``Fraction`` objects times the lcm of their denominators."""
    m = lcm(*[x.denominator for x in row.values()])
    return {j: x.numerator * (m // x.denominator) for j, x in row.items()}


def _eliminate_gf2(table: dict[int, int], rows: Iterable[int]) -> None:
    for row in rows:
        row = _residual_gf2(table, row)
        if not row:
            continue
        lead = row.bit_length() - 1
        for bit, prow in table.items():
            if prow >> lead & 1:
                table[bit] = prow ^ row
        table[lead] = row


def _residual_gf2(table: dict[int, int], row: int) -> int:
    """``row`` minus its pivot entries times the pivot rows: one XOR each.
    A pivot row is zero in every other pivot, so the pivots to clear are
    the pivot bits ``row`` starts with."""
    bits = row
    while bits:
        bit = bits.bit_length() - 1
        bits ^= 1 << bit
        if bit in table:
            row ^= table[bit]
    return row


def _eliminate_sparse(table: dict[int, dict], rows: Iterable[dict], p: int) -> None:
    for row in rows:
        row = _residual_sparse(table, row, p)
        if not row:
            continue
        lead = min(row)
        row = _normalized(row, lead, p)
        for c, prow in table.items():
            if lead in prow:
                table[c] = _normalized(_cleared(dict(prow), lead, row, p), c, p)
        table[lead] = row


def _residual_sparse(table: dict[int, dict], row: dict, p: int) -> dict:
    """``row`` reduced against the pivot rows, as a new dict when anything
    is subtracted.  A pivot row is zero in every other pivot column, so
    each factor is read from the current row."""
    hits = [c for c in row if c in table]
    if not hits:
        return row
    out = dict(row)
    for c in hits:
        _cleared(out, c, table[c], p)
    return out


def _cleared(row: dict, c: int, pivot_row: dict, p: int) -> dict:
    """``row`` with column ``c`` cleared by ``pivot_row`` in place, dropping
    entries that vanish: ``row -= row[c] * pivot_row`` mod p, where
    ``pivot_row`` has a 1 at ``c``; over Q (p == 0), fraction-free in the
    spirit of Bareiss's integer-preserving elimination, ``row = a * row -
    b * pivot_row`` with ``a = pivot_row[c] > 0`` and ``b = row[c]`` first
    divided by their gcd."""
    b = row[c]
    if p:
        for j, v in pivot_row.items():
            x = (row.get(j, 0) - b * v) % p
            if x:
                row[j] = x
            else:
                del row[j]
        return row
    a = pivot_row[c]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, v in pivot_row.items():
        x = row.get(j, 0) - b * v
        if x:
            row[j] = x
        else:
            del row[j]
    return row


def _normalized(row: dict, lead: int, p: int) -> dict:
    """``row``, which is not zero, scaled to a 1 at ``lead`` mod p, or over
    Q divided by the gcd of its entries and by the sign of its entry at
    ``lead``; a new dict when that changes anything."""
    if p:
        scale = row[lead]
        if scale == 1:
            return row
        inv = pow(scale, -1, p)
        return {j: v * inv % p for j, v in row.items()}
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _echelon(field: FieldSpec, table: dict) -> list:
    """A pivot table's rows in pivot-column order.  Over GF(2) a higher
    leading bit is an earlier column."""
    return [table[c] for c in sorted(table, reverse=field.characteristic == 2)]


class Subspace:
    """Subspace of a fixed ambient coordinate space, in canonical form.

    ``table`` is the pivot table of the reduced row echelon basis: the
    leading bit over GF(2), or the leading column over GF(p) and Q, maps
    to its row in row form (see the module docstring; primitive integer
    rows over Q).  It is never changed after construction, so span
    equality is table equality.  ``basis`` is the RREF as a new
    :class:`Matrix` of field scalars, which may be edited without touching
    the subspace.
    """

    __slots__ = ("field", "ambient_dim", "table", "dim")

    def __init__(self, field: FieldSpec, ambient_dim: int, table: dict):
        # Trusts its arguments; use the classmethods to canonicalize.
        self.field = field
        self.ambient_dim = ambient_dim
        self.table = table
        self.dim = len(table)

    @classmethod
    def from_array(cls, field: FieldSpec, array: Sequence[Iterable], ambient_dim: int | None = None) -> "Subspace":
        """The span of the rows of a 2-D sequence of scalars."""
        m = Matrix.from_array(field, array, ambient_dim)
        return cls._spanned(field, m.cols, _table_rows(field, m.rows))

    @classmethod
    def _spanned(cls, field: FieldSpec, ambient_dim: int, rows: Iterable) -> "Subspace":
        """The span of rows in the form a pivot table takes."""
        return cls(field, ambient_dim, _eliminate(field, {}, rows))

    @classmethod
    def zero(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, {})

    @classmethod
    def full(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        if field.characteristic == 2:
            return cls(field, ambient_dim, {b: 1 << b for b in range(ambient_dim)})
        return cls(field, ambient_dim, {c: {c: 1} for c in range(ambient_dim)})

    @property
    def basis(self) -> Matrix:
        return Matrix(self.field, _handed_out(self.field, _echelon(self.field, self.table)), self.ambient_dim)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.table == other.table
        )

    __hash__ = None

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, basis={self.basis.tolist()!r})"


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
    each RREF row at the row's pivot.  Over Q the vector is scaled by the
    lcm of the leading entries of the rows it reads.
    """
    f, n = m.field, m.cols
    table = _eliminate(f, {}, _table_rows(f, m.rows))
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
        p = f.characteristic
        for fc in range(n):
            if fc not in table:
                hits = [(pc, prow[pc], x) for pc, prow in table.items() if (x := prow.get(fc)) is not None]
                if p:
                    v = {fc: 1, **{pc: -x % p for pc, _, x in hits}}
                else:
                    scale = lcm(*[lead for _, lead, _ in hits])
                    v = {fc: scale, **{pc: -x * (scale // lead) for pc, lead, x in hits}}
                rows.append(v)
    return Subspace._spanned(f, n, rows)


def column_space(m: Matrix) -> Subspace:
    """Subspace of the codomain spanned by the columns of ``m``."""
    return Subspace._spanned(m.field, len(m.rows), _table_rows(m.field, transpose(m).rows))


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Largest subspace contained in both operands (Zassenhaus block trick).

    The RREF of ``[A 0; B B]`` holds the RREF basis of the intersection in
    the right half of the rows whose pivot lies there.  ``A`` is the
    larger operand and already its own pivot table, so it is only read:
    each row ``b`` of ``B`` is reduced against it as the block row
    ``[b | b]``, and only those rows are eliminated, in a fresh table.
    Over Q both halves of a reduced row carry the same positive scale.
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
        table = _eliminate(f, {}, [_residual(f, big.table, r) << n | r for r in small.table.values()])
        table = {bit: r for bit, r in table.items() if bit < n}
    else:
        rows = [{**r, **{j + n: x for j, x in r.items()}} for r in small.table.values()]
        table = _eliminate(f, {}, [_residual(f, big.table, r) for r in rows])
        table = {c - n: {j - n: x for j, x in r.items()} for c, r in table.items() if c >= n}
    if len(table) == small.dim:
        return small
    return Subspace(f, n, table)


def restrict(sub: Subspace, keep: int) -> Subspace:
    """``sub`` meet the coordinate subspace on the columns of ``keep``.

    ``keep`` is a 0/1 row held as a GF(2) row is: column c is bit
    ``ambient_dim - 1 - c``.  ``sub``'s rows are first eliminated on the
    columns outside ``keep``, each row that keeps an entry there becoming a
    pivot of that elimination.  These steps are invertible, so the rows
    left with no entry outside ``keep`` span the intersection.  Those that
    no step changed are rows of ``sub``'s RREF and stay as they are; the
    changed ones are reduced into them, which gives the RREF of the
    intersection.  When no row has an entry outside ``keep``, ``sub``
    itself is returned.
    """
    f, n = sub.field, sub.ambient_dim
    out = (1 << n) - 1 & ~keep
    p = f.characteristic
    if p == 2:
        split = _restrict_gf2(sub.table, out)
    else:
        outside = {c for c in range(n) if out >> (n - 1 - c) & 1}
        split = _restrict_sparse(sub.table, outside, p)
    if split is None:
        return sub
    kept, changed = split
    return Subspace(f, n, _eliminate(f, kept, changed))


def _restrict_gf2(table: dict[int, int], out: int) -> tuple[dict, list] | None:
    """The rows of a pivot table with no bit in ``out`` once the others are
    eliminated on ``out``, highest bit first: those no step changed, as a
    pivot table, and the changed ones.  None when no row has a bit there."""
    pivots: dict[int, int] = {}
    kept, changed = {}, []
    for lead, row in table.items():
        rest = row & out
        if not rest:
            kept[lead] = row
            continue
        while rest:
            bit = rest.bit_length() - 1
            prow = pivots.get(bit)
            if prow is None:
                pivots[bit] = row
                break
            row ^= prow
            rest = row & out
        else:
            changed.append(row)
    return (kept, changed) if pivots else None


def _restrict_sparse(table: dict[int, dict], outside: set, p: int) -> tuple[dict, list] | None:
    """:func:`_restrict_gf2` on sparse rows, lowest outside column first:
    residues mod p, or integer rows when p is 0 (over Q)."""
    pivots: dict[int, dict] = {}
    kept, changed = {}, []
    for lead, row in table.items():
        hits = [c for c in row if c in outside]
        if not hits:
            kept[lead] = row
            continue
        while hits:
            c = min(hits)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = _normalized(row, c, p)
                break
            row = _cleared(dict(row), c, prow, p)
            hits = [c for c in row if c in outside]
        else:
            changed.append(row)
    return (kept, changed) if pivots else None


def join(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both operands (sum of subspaces)."""
    _check_pair(a, b)
    big, small = (a, b) if a.dim >= b.dim else (b, a)
    if small.dim == 0:
        return big
    table = _eliminate(a.field, dict(big.table), small.table.values())
    if len(table) == big.dim:
        return big
    return Subspace(a.field, a.ambient_dim, table)


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff ``b`` is contained in ``a``: every row of ``b`` reduces to
    zero against ``a``'s pivot table, which is read in place.  A subspace
    contains itself without a reduction."""
    if a is b:
        return True
    _check_pair(a, b)
    # A vector of ``a`` leads in one of ``a``'s pivots.
    if not a.table.keys() >= b.table.keys():
        return False
    return not any(_residual(a.field, a.table, row) for row in b.table.values())


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
    table = dict(small.table)
    kept = []
    for row in _echelon(big.field, big.table):
        if len(table) == big.dim:
            break
        rank = len(table)
        _eliminate(big.field, table, [row])
        if len(table) > rank:
            kept.append(row)
    return Matrix(big.field, _handed_out(big.field, kept), big.ambient_dim)


def _handed_out(field: FieldSpec, rows: Iterable) -> tuple:
    """Pivot-table rows as RREF matrix rows a caller may edit: int rows
    shared, GF(p) rows copied, and each Q row divided by its leading entry."""
    if field.characteristic == 2:
        return tuple(rows)
    if field.characteristic:
        return tuple([dict(r) for r in rows])
    out = []
    for r in rows:
        lead = r[min(r)]
        out.append({j: Fraction(x, lead) for j, x in r.items()})
    return tuple(out)
