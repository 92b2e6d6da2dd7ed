import ast
import random
from collections import Counter
from pathlib import Path

import pytest

from persdiff import oracle
from persdiff.complexes import FilteredComplex
from persdiff.diagrams import chain_diagram_counter
from persdiff.fields import FieldSpec
from persdiff.oracle import NotAChain, oracle_barcode
from persdiff.posets import FinitePoset

from conftest import GF2, QQ, build_triangle
from corpus import random_chain_filtration

CIRCLE_CELLS = [
    {"id": "a", "vertices": ["a"], "births": [0]},
    {"id": "b", "vertices": ["b"], "births": [0]},
    {"id": "c", "vertices": ["c"], "births": [0]},
    {"id": "ab", "vertices": ["a", "b"], "births": [1]},
    {"id": "ac", "vertices": ["a", "c"], "births": [1]},
    {"id": "bc", "vertices": ["b", "c"], "births": [1]},
]


def test_triangle_bars(triangle):
    assert oracle_barcode(triangle) == Counter(
        {(0, 0, 1): 2, (0, 0, None): 1, (1, 1, 2): 1}
    )


def test_circle_has_an_essential_loop():
    k = FilteredComplex.build(GF2, FinitePoset.chain(2), CIRCLE_CELLS)
    assert oracle_barcode(k) == Counter(
        {(0, 0, 1): 2, (0, 0, None): 1, (1, 1, None): 1}
    )


def test_single_vertex():
    k = FilteredComplex.build(
        GF2, FinitePoset.chain(1), [{"id": "v", "vertices": ["v"], "births": [0]}]
    )
    assert oracle_barcode(k) == Counter({(0, 0, None): 1})


def test_two_disjoint_vertices():
    k = FilteredComplex.build(
        GF2,
        FinitePoset.chain(2),
        [
            {"id": "u", "vertices": ["u"], "births": [0]},
            {"id": "v", "vertices": ["v"], "births": [0]},
        ],
    )
    assert oracle_barcode(k) == Counter({(0, 0, None): 2})


def test_empty_complex():
    k = FilteredComplex.build(GF2, FinitePoset.chain(2), [])
    assert oracle_barcode(k) == Counter()


def test_non_chain_rejected(two_param):
    with pytest.raises(NotAChain):
        oracle_barcode(two_param)


def test_same_grade_merge_is_suppressed():
    # An edge born with its vertices kills a component instantly: no bar.
    k = FilteredComplex.build(
        GF2,
        FinitePoset.chain(2),
        [
            {"id": "u", "vertices": ["u"], "births": [0]},
            {"id": "v", "vertices": ["v"], "births": [0]},
            {"id": "uv", "vertices": ["u", "v"], "births": [0]},
        ],
    )
    assert oracle_barcode(k) == Counter({(0, 0, None): 1})


def generic_gf5_complex():
    return FilteredComplex.build(
        FieldSpec.gf(5),
        FinitePoset.chain(3),
        [
            {"id": "u", "vertices": ["u"], "births": [0]},
            {"id": "v", "vertices": ["v"], "births": [0]},
            {"id": "e", "dim": 1, "faces": [["u", 2], ["v", 3]], "births": [1]},
        ],
    )


def test_generic_cells_over_gf5():
    assert oracle_barcode(generic_gf5_complex()) == Counter({(0, 0, 1): 1, (0, 0, None): 1})


def test_rational_coefficients():
    k = build_triangle(QQ)
    assert oracle_barcode(k) == Counter(
        {(0, 0, 1): 2, (0, 0, None): 1, (1, 1, 2): 1}
    )


def test_matches_diagram_on_random_chains():
    rng = random.Random(107)
    for _ in range(12):
        k = random_chain_filtration(rng, grades=rng.randint(2, 6))
        assert k.validate() == []
        assert chain_diagram_counter(k) == oracle_barcode(k)


def test_oracle_resolves_faces_without_the_complex_index():
    rng = random.Random(211)
    complexes = [random_chain_filtration(rng, grades=rng.randint(2, 6)) for _ in range(8)]
    complexes.append(generic_gf5_complex())
    for k in complexes:
        assert k.validate() == []
        want = chain_diagram_counter(k)
        del k._simplex_index, k._col_index
        assert oracle_barcode(k) == want


def test_oracle_imports_nothing_from_linalg():
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert names and "linalg" not in names
