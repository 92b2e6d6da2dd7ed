"""Dense numpy references that the row and mask forms in ``persdiff`` are
checked against; the package itself uses none of this.

Row reduction makes one rank-1 ``np.outer`` update per pivot over the
whole array, zeros included.  The order checks build the n x n boolean
matrix and test it with boolean products.
"""
from fractions import Fraction

import numpy as np

from persdiff.posets import InvalidPoset, UnknownElement


def dense_zeros(field, rows: int, cols: int) -> np.ndarray:
    """int64 residues over GF(p), an object array of ``Fraction`` over Q."""
    if field.is_prime_field:
        return np.zeros((rows, cols), dtype=np.int64)
    a = np.empty((rows, cols), dtype=object)
    a[...] = Fraction(0)
    return a


def dense(m) -> np.ndarray:
    """A ``Matrix`` as a :func:`dense_zeros` array."""
    a = dense_zeros(m.field, len(m.rows), m.cols)
    for i, row in enumerate(m.tolist()):
        a[i, :] = row
    return a


def dense_leq(p) -> np.ndarray:
    """The order of a poset as a boolean matrix, read from its up-set masks."""
    nbytes = (p.n + 7) // 8
    packed = b"".join(bits.to_bytes(nbytes, "little") for bits in p._up)
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(p.n, nbytes)
    return np.unpackbits(rows, axis=1, count=p.n, bitorder="little").astype(bool)


def dense_row_reduce(field, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (copy) and the list of pivot columns."""
    a = a.copy()
    nrows, ncols = a.shape
    one = field.one()
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if a[i, c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        if a[r, c] != one:
            a[r] = field.normalize(a[r] * field.inv(a[r, c]))
        col = a[:, c].copy()
        col[r] = 0
        if np.any(col != 0):
            a = field.normalize(a - np.outer(col, a[r]))
        pivots.append(c)
        r += 1
    return a, pivots


# -- dense order checks ---------------------------------------------------


def reference_order(labels, leq, grades=None) -> np.ndarray:
    """The checked order matrix of ``FinitePoset(labels, leq, grades)``."""
    labels = tuple(str(l) for l in labels)
    n = len(labels)
    if n == 0:
        raise InvalidPoset("poset has no elements")
    leq = np.array(leq, dtype=bool)
    if leq.shape != (n, n):
        raise InvalidPoset(f"leq must be {n}x{n}")
    if len(set(labels)) != n:
        raise InvalidPoset("duplicate element labels")
    if not leq.diagonal().all():
        raise InvalidPoset("leq is not reflexive")
    if np.any(leq & leq.T & ~np.eye(n, dtype=bool)):
        raise InvalidPoset("leq is not antisymmetric")
    two_steps = (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
    if np.any(two_steps & ~leq):
        raise InvalidPoset("leq is not transitive")
    if grades is not None:
        grades = tuple(tuple(int(g) for g in vec) for vec in grades)
        if len(grades) != n:
            raise InvalidPoset("one grade vector per element required")
        if len({len(v) for v in grades}) > 1:
            raise InvalidPoset("grade vectors have differing lengths")
        bad = np.argwhere(reference_product_order(grades) != leq)
        if len(bad):
            i, j = bad[0]
            raise InvalidPoset(
                f"leq disagrees with the product order at ({labels[i]}, {labels[j]})"
            )
    return leq


def reference_cover_order(labels, covers, grades=None) -> np.ndarray:
    """The checked order matrix of ``FinitePoset.from_covers``: the
    transitive closure by repeated boolean squaring."""
    labels = tuple(str(l) for l in labels)
    n = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    rel = np.eye(n, dtype=bool)
    for lo, hi in covers:
        try:
            rel[index[str(lo)], index[str(hi)]] = True
        except KeyError as exc:
            raise UnknownElement(f"unknown element {exc.args[0]!r} in covers") from None
    while True:
        closed = rel | ((rel.astype(np.int64) @ rel.astype(np.int64)) > 0)
        if np.array_equal(closed, rel):
            break
        rel = closed
    if np.any(rel & rel.T & ~np.eye(n, dtype=bool)):
        raise InvalidPoset("covers contain a cycle")
    return reference_order(labels, rel, grades)


def reference_product_order(grades) -> np.ndarray:
    """Coordinatewise order of equal-length grade vectors."""
    n = len(grades)
    width = len(grades[0]) if grades else 0
    g = np.array(grades, dtype=object).reshape(n, width)
    leq = np.ones((n, n), dtype=bool)
    for axis in range(width):
        col = g[:, axis]
        leq &= (col[:, None] <= col[None, :]).astype(bool)
    return leq
