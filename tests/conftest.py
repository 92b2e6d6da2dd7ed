import pytest
from hypothesis import HealthCheck, settings

from persdiff.complexes import FilteredComplex
from persdiff.fields import FieldSpec
from persdiff.linalg import Matrix
from persdiff.posets import FinitePoset

settings.register_profile(
    "exact",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


GF2 = FieldSpec.gf(2)
GF5 = FieldSpec.gf(5)
QQ = FieldSpec.rationals()

# Filled triangle over the chain 0 < 1 < 2: vertices at 0, edges at 1,
# the 2-cell at 2.  One loop lives on [1, 2); two components die at 1.
TRIANGLE_CELLS = [
    {"id": "a", "vertices": ["a"], "births": [0]},
    {"id": "b", "vertices": ["b"], "births": [0]},
    {"id": "c", "vertices": ["c"], "births": [0]},
    {"id": "ab", "vertices": ["a", "b"], "births": [1]},
    {"id": "ac", "vertices": ["a", "c"], "births": [1]},
    {"id": "bc", "vertices": ["b", "c"], "births": [1]},
    {"id": "abc", "vertices": ["a", "b", "c"], "births": [2]},
]


def cells_present(k, n, x):
    """Indices of the n-cells present at element index ``x``, read from the
    presence table's row for its class (cell 0 the highest bit)."""
    table = k.presence_table(n)
    row, width = table.rows[table.classes[x]], k.ambient_dim(n)
    return tuple(j for j in range(width) if row >> width - 1 - j & 1)


def build_triangle(field=None):
    return FilteredComplex.build(field or GF2, FinitePoset.chain(3), TRIANGLE_CELLS)


@pytest.fixture
def chain3():
    return FinitePoset.chain(3)


@pytest.fixture
def triangle():
    return build_triangle()


def plane_poset(coords: dict) -> FinitePoset:
    """Finite sub-poset of the plane under the product order."""
    labels = list(coords)
    leq = [
        [all(a <= b for a, b in zip(coords[x], coords[y])) for y in labels]
        for x in labels
    ]
    return FinitePoset(labels, leq, grades=[coords[l] for l in labels])


def corner_grid_poset() -> FinitePoset:
    """Five plane points where a nested pair has three pair blankets."""
    return plane_poset(
        {"r0": (1, 1), "r1": (4, 4), "k0": (0, 1), "k1": (3, 3), "k2": (1, 0)}
    )


def offset_grid_poset() -> FinitePoset:
    """Five plane points where one open's covers are incomparable with the other."""
    return plane_poset(
        {"x0": (2, 2), "x1": (2, 4), "y0": (0, 2), "y1": (1, 3), "y2": (2, 0)}
    )


# Loop completed at (1, 1), filled at (2, 2), on a 3x3 grid.
TWO_PARAM_CELLS = [
    {"id": "a", "vertices": ["a"], "births": [[0, 0]]},
    {"id": "b", "vertices": ["b"], "births": [[0, 0]]},
    {"id": "c", "vertices": ["c"], "births": [[0, 0]]},
    {"id": "ab", "vertices": ["a", "b"], "births": [[1, 0]]},
    {"id": "bc", "vertices": ["b", "c"], "births": [[0, 1]]},
    {"id": "ac", "vertices": ["a", "c"], "births": [[1, 1]]},
    {"id": "abc", "vertices": ["a", "b", "c"], "births": [[2, 2]]},
]


# Two vertices and the edge between them on a 2,048-chain: a long poset
# on which presence changes at three grades only.
LONG_CHAIN_CELLS = [
    {"id": "a", "vertices": ["a"], "births": [0]},
    {"id": "b", "vertices": ["b"], "births": [1024]},
    {"id": "ab", "vertices": ["a", "b"], "births": [2047]},
]


def build_long_chain():
    return FilteredComplex.build(GF2, FinitePoset.chain(2048), LONG_CHAIN_CELLS)


def build_two_param(field=None):
    return FilteredComplex.build(field or GF2, FinitePoset.grid((3, 3)), TWO_PARAM_CELLS)


@pytest.fixture
def two_param():
    return build_two_param()


def select_columns(m: Matrix, cols: list[int]) -> Matrix:
    """The submatrix of the given increasing columns: a reference that the
    cycle tests build point cycles from."""
    width = len(cols)
    if m.field.characteristic == 2:
        # Bit b of a row holds column m.cols - 1 - b.
        bits = {m.cols - 1 - c: 1 << (width - 1 - t) for t, c in enumerate(cols)}
        rows = []
        for row in m.rows:
            v = 0
            while row:
                top = row.bit_length() - 1
                v |= bits.get(top, 0)
                row ^= 1 << top
            rows.append(v)
    else:
        moves = {c: t for t, c in enumerate(cols)}
        rows = [{moves[c]: x for c, x in row.items() if c in moves} for row in m.rows]
    return Matrix(m.field, rows, width)
