"""End-to-end checks off the beaten path: explicit posets, rationals,
labelled (ungraded) posets, and multi-grade births."""
import random

import numpy as np

from persdiff.calculus import pair_group_rank
from persdiff.complexes import FilteredComplex
from persdiff.diagrams import compute_diagram
from persdiff.fields import FieldSpec
from persdiff.memory import lifespan_rank
from persdiff.posets import BlanketMode, FinitePoset, enumerate_diagram_pairs

from conftest import GF2, QQ, build_triangle, cells_present, corner_grid_poset


def test_filtration_over_explicit_plane_poset():
    # Vertices appear at two incomparable corners and the edge at (3, 3).
    # The merge cycle u+v only exists where both branches coexist, so its
    # class is born at (1, 1) and dies at (3, 3); each corner contributes a
    # class that never dies (the pair counts do not globally deduplicate
    # the merged branches, as expected on a non-distributive lattice).
    p = corner_grid_poset()
    k = FilteredComplex.build(
        GF2,
        p,
        [
            {"id": "u", "vertices": ["u"], "births": ["k0"]},
            {"id": "v", "vertices": ["v"], "births": ["k2"]},
            {"id": "uv", "vertices": ["u", "v"], "births": ["k1"]},
        ],
    )
    assert k.validate() == []
    entries = compute_diagram(k)
    by_key = {(e.degree, e.birth, e.death): e.multiplicity for e in entries}
    assert by_key == {
        (0, ((0, 1),), "inf"): 1,
        (0, ((1, 0),), "inf"): 1,
        (0, ((1, 1),), ((3, 3),)): 1,
    }
    for pair in enumerate_diagram_pairs(p):
        for n in (0, 1):
            for mode in (BlanketMode.FULL, BlanketMode.PRINCIPAL):
                assert pair_group_rank(k, n, pair, mode) == lifespan_rank(k, n, pair, mode)


def test_ungraded_labelled_poset_diagram():
    # A diamond a < b, c < d without grade vectors: output falls back to labels.
    p = FinitePoset.from_covers(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    k = FilteredComplex.build(
        GF2,
        p,
        [
            {"id": "u", "vertices": ["u"], "births": ["a"]},
            {"id": "v", "vertices": ["v"], "births": ["b"]},
            {"id": "uv", "vertices": ["u", "v"], "births": ["d"]},
        ],
    )
    assert k.validate() == []
    entries = compute_diagram(k, degrees=[0])
    assert {e.birth for e in entries} <= {("a",), ("b",), ("c",), ("d",)}
    assert any(e.death == "inf" for e in entries)


def test_rational_lifespan_ranks_match_gf2_on_triangle():
    kq = build_triangle(QQ)
    k2 = build_triangle(GF2)
    for pair in enumerate_diagram_pairs(kq.poset):
        for n in range(3):
            assert lifespan_rank(kq, n, pair) == lifespan_rank(k2, n, pair)
            assert pair_group_rank(kq, n, pair) == lifespan_rank(kq, n, pair)


def test_multi_grade_birth_lives_on_the_union_open():
    # A vertex born along an antichain is present on the union of the two
    # principal up-sets, which is not principal.  The principal-pair
    # diagram therefore reports nothing, and the class is found by a
    # single query on the union open (the documented enumeration scope).
    from persdiff.posets import EMPTY_OPEN, make_pair, principal_up_set

    p = FinitePoset.grid((2, 2))
    k = FilteredComplex.build(
        GF2,
        p,
        [{"id": "w", "vertices": ["w"], "births": [[0, 1], [1, 0]]}],
    )
    assert k.validate() == []
    assert cells_present(k, 0, p.resolve((0, 0))) == ()
    assert cells_present(k, 0, p.resolve((0, 1))) == (0,)
    assert cells_present(k, 0, p.resolve((1, 0))) == (0,)
    assert cells_present(k, 0, p.resolve((1, 1))) == (0,)
    assert compute_diagram(k, degrees=[0]) == []
    for gen in ((0, 1), (1, 0)):
        principal = make_pair(p, principal_up_set(p, gen), EMPTY_OPEN)
        assert lifespan_rank(k, 0, principal) == 0
    union_pair = make_pair(p, p.closure([(0, 1), (1, 0)]), EMPTY_OPEN)
    assert lifespan_rank(k, 0, union_pair) == 1


def test_gf5_corpus_spot_check_against_brute_quotient():
    # Cross-check a GF(5) complex's pair counts with independently computed
    # quotient dimensions join(meet)-style, using only lattice primitives.
    from persdiff.linalg import quotient_dim
    from persdiff.memory import blanket_union, homological_memory

    rng = random.Random(271)
    import sys

    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from corpus import random_filtration

    k = random_filtration(rng, shape=(3, 2), field=FieldSpec.gf(5))
    for pair in enumerate_diagram_pairs(k.poset):
        for n in range(k.max_dim + 1):
            direct = quotient_dim(
                homological_memory(k, n, pair), blanket_union(k, n, pair, 1)
            )
            assert pair_group_rank(k, n, pair) == direct
