"""Dense numpy row reduction: the reference the elimination kernels are
checked against.

One rank-1 ``np.outer`` update per pivot over the whole array, zeros
included.  Kept here only as a test oracle; ``persdiff.linalg`` does not
use it.
"""
import numpy as np


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
