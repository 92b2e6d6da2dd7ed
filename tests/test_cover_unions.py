"""Degree-1 blanket unions walked from each open's covers.

``blanket_union(k, n, pair, 1, mode)`` reads the covers of the birth and
the death open and builds a missing blanket memory from the pair's own
support and boundaries plus the point the cover adds.  These tests hold
it to the definition: the join of ``homological_memory`` over the
``pair_blankets`` list, on a complex that has not seen the pair.  They
also pin that ``diagram`` and the rank identity build no pair-blanket
list, that ``verify``'s blanket-mode note and the agreement it counts
match the pair lists, and that the pairs ``verify`` draws from are the
enumerated ones.
"""
import random
from functools import reduce
from pathlib import Path

import pytest

from persdiff.calculus import pair_group_rank
from persdiff.complexes import FilteredComplex
from persdiff.diagrams import compute_diagram
from persdiff.io import load_complex
from persdiff.linalg import Subspace, join
from persdiff.memory import blanket_union, homological_memory, lifespan_rank
from persdiff.posets import (
    BlanketMode,
    FinitePoset,
    PairOpen,
    UpSet,
    blankets_of_open,
    cover_points,
    death_covers,
    describe_open,
    enumerate_diagram_pairs,
    pair_blankets,
)
from persdiff.verify import run_verification

from conftest import GF2, QQ, build_two_param, corner_grid_poset, offset_grid_poset
from corpus import random_filtration
from exhaustive import all_posets, all_up_sets, small_complexes

DATA = Path(__file__).parent / "data"
FIXTURES = ("two_param", "triangle", "corner_grid", "torsion_chain", "offset_grid")


def union_by_pair_list(k, n, pair, mode):
    """The degree-1 union by definition: join of the memories of the
    pair's blanket list."""
    memories = [homological_memory(k, n, w) for w in pair_blankets(k.poset, pair, mode)]
    return reduce(join, memories, Subspace.zero(k.field, k.ambient_dim(n)))


@pytest.mark.parametrize("field", [GF2, QQ], ids=lambda f: f.token())
def test_cover_unions_equal_pair_list_unions_on_every_small_poset(field):
    """Every pair of opens, not only principal ones, on every poset with at
    most four elements, in both modes.  One complex sees each pair's own
    memory before its union, one sees only unions (so the union reads the
    pair's memory and builds the blanket memories itself), and a third
    computes the reference."""
    for leq, cells, k in small_complexes(field):
        p = k.poset
        opens = [UpSet(u) for u in all_up_sets(leq)]
        pairs = [PairOpen(b, d) for b in opens for d in opens if not d.bits & ~b.bits]
        bare = FilteredComplex(field, p, list(k.all_cells()))
        fresh = FilteredComplex(field, p, list(k.all_cells()))
        for n in range(max(k.max_dim, 0) + 1):
            for mode in BlanketMode:
                for pair in pairs:
                    want = union_by_pair_list(fresh, n, pair, mode)
                    homological_memory(k, n, pair)
                    assert blanket_union(k, n, pair, 1, mode) == want, (n, mode, pair)
                    assert blanket_union(bare, n, pair, 1, mode) == want, (n, mode, pair)


def test_cover_points_name_what_each_cover_adds():
    """Per cover, the point is the element a FULL cover adds and the
    minimal element of a PRINCIPAL cover.  ``death_covers`` gives, with
    those points, the covers of the death open that lie inside the birth
    open and, in PRINCIPAL mode, are not the birth open: checked against
    the covers found from every open, on every nested pair of opens of
    every poset with at most four elements."""
    rng = random.Random(19)
    for _ in range(3):
        p = random_filtration(rng, shape=(3, 3), field=GF2, max_cells=10).poset
        for x in range(p.n):
            for u in (p.principal[x], UpSet(bits=p.principal[x].bits ^ 1 << x)):
                full = blankets_of_open(p, u)
                assert [w.bits ^ u.bits for w in full] == [1 << m for m in cover_points(p, u)]
                principal = blankets_of_open(p, u, BlanketMode.PRINCIPAL)
                points = cover_points(p, u, BlanketMode.PRINCIPAL)
                assert [w for w in principal] == [p.principal[i] for i in points]

    def in_cover_order(covers):
        return sorted(covers, key=lambda c: (len(c[0].members), sorted(c[0].members)))

    for leq in all_posets():
        p = FinitePoset([str(i) for i in range(len(leq))], leq)
        opens = [UpSet(u) for u in all_up_sets(leq)]
        for death in opens:
            # FULL: opens one element larger, with that element; PRINCIPAL:
            # the minimal principal up-sets strictly containing the open.
            grown = [
                (v, (v.bits ^ death.bits).bit_length() - 1)
                for v in opens
                if death.members < v.members and len(v.members) == len(death.members) + 1
            ]
            above = [(p.principal[i], i) for i in range(p.n) if death.members < p.principal[i].members]
            least = [(u, i) for u, i in above if not any(w.members < u.members for w, _ in above)]
            for birth in opens:
                if not death.members <= birth.members:
                    continue
                inside = [(v, m) for v, m in grown if v.members <= birth.members]
                assert death_covers(p, birth, death, BlanketMode.FULL) == in_cover_order(inside)
                inside = [(v, i) for v, i in least if v.members <= birth.members and v != birth]
                assert death_covers(p, birth, death, BlanketMode.PRINCIPAL) == in_cover_order(inside)


def test_cover_unions_build_no_pair_blanket_list():
    """``compute_diagram`` in both modes, with and without zeros, and the rank
    identity over every principal pair, leave the pair-blanket memo empty."""
    k = build_two_param()
    for mode in BlanketMode:
        for include_zero in (False, True):
            compute_diagram(k, mode=mode, include_zero=include_zero)
    for mode in BlanketMode:
        for n in range(k.max_dim + 1):
            for pair in enumerate_diagram_pairs(k.poset):
                assert pair_group_rank(k, n, pair, mode) == lifespan_rank(k, n, pair, mode)
    assert not k.poset.memo["pair_blankets"]
    assert k.memo["union"]


def pair_list_note(k):
    """The blanket-mode note as the pair lists give it."""
    p = k.poset
    pairs = enumerate_diagram_pairs(p)
    differ = [
        x for x in pairs
        if pair_blankets(p, x, BlanketMode.FULL) != pair_blankets(p, x, BlanketMode.PRINCIPAL)
    ]
    if not differ:
        return "blanket modes agree on all enumerated pairs"
    first = differ[0]
    return (
        f"blanket modes disagree on {len(differ)}/{len(pairs)} enumerated pairs; "
        f"first at ({describe_open(p, first.birth)}, {describe_open(p, first.death)})"
    )


@pytest.mark.parametrize("fixture", FIXTURES)
def test_blanket_mode_note_matches_the_pair_lists(fixture):
    """The note's count and first pair, from per-open cover sets, equal the
    comparison of the two modes' pair-blanket lists."""
    k = load_complex(DATA / f"{fixture}.json")
    report = run_verification(k, samples=5)
    want = pair_list_note(load_complex(DATA / f"{fixture}.json"))
    assert [note for note in report.notes if note.startswith("blanket modes")] == [want]


def test_blanket_mode_note_matches_the_pair_lists_on_every_small_poset():
    """The agreement that the note counts, pair by pair: on every pair of
    opens, not only principal ones, of every poset with at most four
    elements, it holds exactly when the two modes' pair-blanket lists are
    equal."""
    from persdiff.verify import _blanket_agreement

    for leq in all_posets():
        p = FinitePoset([str(i) for i in range(len(leq))], leq)
        agree = _blanket_agreement(p)
        opens = [UpSet(u) for u in all_up_sets(leq)]
        for b in opens:
            for d in opens:
                if not d.bits & ~b.bits:
                    x = PairOpen(b, d)
                    want = pair_blankets(p, x, BlanketMode.FULL) == pair_blankets(p, x, BlanketMode.PRINCIPAL)
                    assert agree(b, d) == want, (leq, describe_open(p, b), describe_open(p, d))


def test_drawn_pairs_are_the_enumerated_pairs():
    """``verify`` draws its sampled pairs from a view that lists a birth's
    pairs only when one is drawn: by index and by iteration, before and
    after draws, it gives ``enumerate_diagram_pairs`` in the same order, on
    every poset with at most four elements, chains, a grid and the two
    plane posets whose grade order is not their index order."""
    from persdiff.verify import _DiagramPairs

    posets = [FinitePoset([str(i) for i in range(len(leq))], leq) for leq in all_posets()]
    posets += [FinitePoset.chain(1), FinitePoset.chain(9), FinitePoset.grid((3, 4)), corner_grid_poset(), offset_grid_poset()]
    for seed, p in enumerate(posets):
        want = enumerate_diagram_pairs(p)
        view = _DiagramPairs(p)
        assert len(view) == len(want)
        assert list(view) == want
        drawn, listed = random.Random(seed), random.Random(seed)
        assert [drawn.choice(view) for _ in range(5)] == [listed.choice(want) for _ in range(5)]
        assert list(view) == want
        assert [view[j] for j in range(len(want))] == want
        for j in (-1, len(want)):
            with pytest.raises(IndexError):
                view[j]
