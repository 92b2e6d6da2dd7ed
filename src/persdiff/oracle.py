"""Reference barcodes for chain-indexed filtrations.

Standard boundary-matrix column reduction with the birth/death pairing.
Deliberately independent of the open-set and finite-difference machinery:
it rebuilds its own columns from the raw cell data and shares only scalar
field arithmetic.  Used by the test suite and by ``verify --oracle``.
"""
from __future__ import annotations

from collections import Counter

from .complexes import FilteredComplex


class NotAChain(ValueError):
    """The indexing poset is not totally ordered."""


def chain_positions(poset) -> dict[int, int]:
    """Linear position of every element of a totally ordered poset."""
    if not poset.is_chain():
        raise NotAChain("barcodes need a totally ordered (1-parameter) poset")
    order = sorted(range(poset.n), key=lambda i: poset._down[i].bit_count())
    return {el: pos for pos, el in enumerate(order)}


def _face_index(k: FilteredComplex) -> dict:
    """Per-dimension index of every cell, keyed by id and, for a simplex,
    also by its vertex set; built here from the raw cell records."""
    index: dict = {}
    for n in range(k.max_dim + 1):
        for j, cell in enumerate(k.cells_of_dim(n)):
            index[(n, "id", cell.id)] = j
            if cell.vertices is not None:
                index[(n, "simplex", frozenset(cell.vertices))] = j
    return index


def _column_entries(k: FilteredComplex, index: dict, cell) -> list[tuple[int, int, object]]:
    """(face dim, per-dim face index, coefficient) triples of one boundary column."""
    f = k.field
    if cell.dim == 0:
        return []
    out = []
    if cell.vertices is not None:
        verts = sorted(cell.vertices)
        for i in range(len(verts)):
            row = index[(cell.dim - 1, "simplex", frozenset(verts[:i] + verts[i + 1 :]))]
            out.append((cell.dim - 1, row, f.coerce(1) if i % 2 == 0 else f.neg(f.coerce(1))))
    else:
        for fid, coeff in cell.faces:
            out.append((cell.dim - 1, index[(cell.dim - 1, "id", fid)], f.coerce(coeff)))
    return out


def oracle_barcode(k: FilteredComplex) -> Counter:
    """Barcode multiset keyed by (degree, birth element, death element or None).

    Zero-length pairs (birth equal to death) are dropped; unpaired classes
    appear with death ``None``.
    """
    k.require_valid()
    pos = chain_positions(k.poset)
    f = k.field

    # Filtration order: by birth position, then dimension, then input order.
    ordered = []
    for n in range(k.max_dim + 1):
        for j, cell in enumerate(k.cells_of_dim(n)):
            birth_el = min(cell.births, key=lambda b: pos[b])
            ordered.append((pos[birth_el], n, j, birth_el, cell))
    ordered.sort(key=lambda t: (t[0], t[1], t[2]))
    filt_of = {(n, j): fp for fp, (_, n, j, _, _) in enumerate(ordered)}

    index = _face_index(k)
    columns = []
    for _, n, j, _, cell in ordered:
        col = {}
        for fdim, fidx, coeff in _column_entries(k, index, cell):
            row = filt_of[(fdim, fidx)]
            total = f.normalize(col.get(row, 0) + coeff)
            if total == 0:
                col.pop(row, None)
            else:
                col[row] = total
        columns.append(col)

    pivot_of_row: dict[int, int] = {}
    pairs = []
    zero_cols = []
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            other = pivot_of_row.get(low)
            if other is None:
                break
            factor = f.normalize(col[low] * f.inv(columns[other][low]))
            for row, coeff in columns[other].items():
                updated = f.normalize(col.get(row, 0) - factor * coeff)
                if updated == 0:
                    col.pop(row, None)
                else:
                    col[row] = updated
        if col:
            low = max(col)
            pivot_of_row[low] = j
            pairs.append((low, j))
        else:
            zero_cols.append(j)

    bars: Counter = Counter()
    for row, col in pairs:
        _, n, _, birth_el, _ = ordered[row]
        _, _, _, death_el, _ = ordered[col]
        if birth_el != death_el:
            bars[(n, birth_el, death_el)] += 1
    paired_rows = set(pivot_of_row)
    for j in zero_cols:
        if j not in paired_rows:
            _, n, _, birth_el, _ = ordered[j]
            bars[(n, birth_el, None)] += 1
    return bars
