"""Orders built as up-set and down-set masks against the dense numpy checks.

Each case goes through a ``FinitePoset`` constructor and through its
dense reference in ``dense_reference``: both must accept, or both must
raise the same exception with the same message, and an accepted order's
``_up`` masks must be the reference matrix's rows and its ``_down``
masks the columns.
"""
import random
from itertools import product

import numpy as np
import pytest

from persdiff.linalg import bit_transpose
from persdiff.posets import (
    FinitePoset,
    InvalidPoset,
    UnknownElement,
    _extremes,
    _grid_masks,
    _indices,
    _product_masks,
    _set_bits,
)

from dense_reference import reference_cover_order, reference_order, reference_product_order


def masks(leq: np.ndarray) -> tuple[list[int], list[int]]:
    """Rows and columns of a boolean matrix as masks, bit j for index j."""
    def mask(flags):
        return sum(1 << j for j, f in enumerate(flags) if f)

    return [mask(row) for row in leq], [mask(col) for col in leq.T]


def assert_same(build, reference):
    """``build()`` and ``reference()`` agree: same order, or same error."""
    try:
        want = reference()
    except (InvalidPoset, UnknownElement) as exc:
        with pytest.raises(type(exc)) as got:
            build()
        assert str(got.value) == str(exc)
        return
    p = build()
    assert (p._up, p._down) == masks(want)
    return p


def random_grades(rng, n):
    width = rng.randint(1, 2)
    return [tuple(rng.randint(0, 2) for _ in range(width)) for _ in range(n)]


def random_relation(rng, n):
    """A random partial order under a random labelling, as nested lists,
    with a few entries flipped half of the time."""
    order = rng.sample(range(n), n)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.3:
                leq[order[a]][order[b]] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            leq[i][j] = not leq[i][j]
    return leq


def test_every_reflexive_relation_on_four_elements():
    for n in range(5):
        labels = "abcd"[:n]
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in range(2 ** len(off)):
            leq = np.eye(n, dtype=bool)
            for k, (i, j) in enumerate(off):
                leq[i, j] = bool(bits >> k & 1)
            assert_same(lambda: FinitePoset(labels, leq), lambda: reference_order(labels, leq))


def test_random_relations_with_and_without_grades():
    rng = random.Random(101)
    accepted = 0
    for _ in range(200):
        n = rng.randint(5, 8)
        labels = [f"e{i}" for i in range(n)]
        if rng.random() < 0.3:
            # Orders of random grades: equal grades make them non-antisymmetric.
            grades = random_grades(rng, n)
            leq = reference_product_order(grades).tolist()
        else:
            grades = random_grades(rng, n) if rng.random() < 0.2 else None
            leq = random_relation(rng, n)
        as_array = np.array(leq, dtype=bool)
        for given in (leq, as_array):
            p = assert_same(
                lambda: FinitePoset(labels, given, grades=grades),
                lambda: reference_order(labels, given, grades=grades),
            )
        accepted += p is not None
    assert 20 < accepted < 180


def test_malformed_matrices_are_refused():
    for leq in ([[1, 0], [1]], [[1, 0]], [1, 0], None, [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(InvalidPoset, match="2x2"):
            FinitePoset(["a", "b"], leq)
    # Integer arrays and lists of numpy bools are read entry by entry.
    p = FinitePoset(["a", "b"], np.array([[1, 5], [0, 1]], dtype=np.int64))
    q = FinitePoset(["a", "b"], [[np.True_, np.True_], [np.False_, np.True_]])
    assert p._up == q._up == [3, 2] and p._down == q._down == [1, 3]


def test_grids_are_the_product_order():
    for shape in [(1,), (8,), (2, 4), (3, 3), (2, 2, 2), (1, 3, 1, 2)]:
        p = FinitePoset.grid(shape)
        vectors = list(product(*(range(s) for s in shape)))
        assert (p._up, p._down) == masks(reference_product_order(vectors))


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 4), (2, 3, 2), (64,)])
def test_grid_down_masks_are_the_transpose_of_the_up_masks(shape):
    """Grids build their down-set masks from the grade vectors; they must be
    what every other constructor gets by transposing the up-set masks."""
    p = FinitePoset.grid(shape)
    assert p._down == bit_transpose(p._up[::-1], p.n)[::-1]
    assert all(p.leq(j, i) == bool(p._down[i] >> j & 1) for i in range(p.n) for j in range(p.n))


@pytest.mark.parametrize("shape", [(1,), (30,), (4, 4), (8, 8), (5, 3, 4), (2, 1, 3)])
def test_stride_built_grids_match_the_product_masks_and_extremes(shape):
    """Grids build their masks and lower covers from axis strides; they must
    be the masks of the grade vectors' product order, and the maximal
    elements strictly below each element."""
    vectors = list(product(*(range(s) for s in shape)))
    up, down, lower = _grid_masks(shape)
    assert up == _product_masks(vectors, True)
    assert down == _product_masks(vectors, False)
    assert lower == tuple(_extremes(d ^ 1 << i, down, False) for i, d in enumerate(down))
    p = FinitePoset.grid(shape)
    assert (p._up, p._down, p.lower_covers) == (up, down, lower)


def test_set_bit_walk_equals_the_string_scan():
    rng = random.Random(107)
    sparse = sum(1 << i for i in rng.sample(range(4096), 12))
    dense = sum(1 << i for i in range(4096) if rng.random() < 0.7)
    cases = [0, 1, 1 << 4095, 1 << 63, sparse, sparse | 1 << 4095, dense, (1 << 4096) - 1, (1 << 64) - 1]
    for bits in cases:
        assert _set_bits(bits) == _indices(bits) == sorted(i for i in range(4097) if bits >> i & 1)


def test_random_covers_with_and_without_grades():
    rng = random.Random(103)
    outcomes = set()
    for _ in range(200):
        n = rng.randint(1, 8)
        labels = [f"e{i}" for i in range(n)]
        pairs = [tuple(rng.sample(labels, 2)) for _ in range(rng.randint(0, 2 * n)) if n > 1]
        if rng.random() < 0.7:
            # Acyclic: every cover goes up a random linear order.
            rank = {lab: r for r, lab in enumerate(rng.sample(labels, n))}
            pairs = [tuple(sorted(pair, key=rank.get)) for pair in pairs]
        covers = pairs + [(lab, lab) for lab in labels if rng.random() < 0.1]
        if rng.random() < 0.05:
            covers.append(("e0", "nowhere"))
        if rng.random() < 0.1:
            labels[-1] = labels[0]
        grades = None
        if rng.random() < 0.4:
            # Grades drawn at random, or the product order's own on a chain.
            if rng.random() < 0.5:
                grades = random_grades(rng, n)
            else:
                covers = [(labels[i], labels[i + 1]) for i in range(n - 1)]
                grades = [(i,) for i in range(n)]
        try:
            reference_cover_order(labels, covers, grades)
            outcomes.add("accepted")
        except (InvalidPoset, UnknownElement) as exc:
            outcomes.add(exc.args[0].split(" ")[0])
        assert_same(
            lambda: FinitePoset.from_covers(labels, covers, grades=grades),
            lambda: reference_cover_order(labels, covers, grades=grades),
        )
    # Acceptance, a cycle, duplicates, bad grades and unknown labels all occur.
    assert {"accepted", "covers", "duplicate", "leq", "unknown"} <= outcomes
