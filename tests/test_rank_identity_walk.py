"""``verify``'s rank identity, walked one birth at a time, against the
pair-by-pair definition.

``run_verification`` checks the pair-group rank against the lifespan
quotient rank on every principal pair, in every degree and both blanket
modes, from one memory per pair and degree-1 unions taken from
``persdiff.memory.cover_union``: one per mode, or one for both where the
pair has the same blankets in both.  The reference asks
``pair_group_rank`` and ``lifespan_rank`` for each pair in turn, on a
complex of its own.  Faults injected at ``cover_union`` reach both, so the
counterexamples must agree exactly and in the same order, on correct code
and under each fault.  A shared union stands for both modes only if the
two modes' blanket memories are the same, which a test below checks.
The walk is ``verify``'s only one over all the principal pairs, which the
last test pins.
"""
import random
from pathlib import Path

import pytest

import persdiff.memory
import persdiff.verify
from persdiff.calculus import pair_group_rank
from persdiff.complexes import FilteredComplex
from persdiff.io import load_complex
from persdiff.linalg import NotASubspace, Subspace, join
from persdiff.memory import _fold, birth_covers, cover_memories, lifespan_rank
from persdiff.posets import BlanketMode, FinitePoset, birth_pairs, describe_open, diagram_pair_count, enumerate_diagram_pairs
from persdiff.verify import run_verification

from conftest import GF2, GF5, QQ, LONG_CHAIN_CELLS
from corpus import random_chain_filtration, random_filtration
from exhaustive import small_complexes

DATA = Path(__file__).parent / "data"
FIXTURES = ("two_param", "triangle", "corner_grid", "torsion_chain", "offset_grid")
FIELDS = {"gf2": GF2, "gf:5": GF5, "rational": QQ}
SOUND_UNION = persdiff.memory.cover_union


def escape(k, n, union):
    """``union`` joined with the last basis vector of the chain space,
    which escapes every memory it does not lie in."""
    dim = k.ambient_dim(n)
    if not dim:
        return union
    return join(union, Subspace.from_array(k.field, [[0] * (dim - 1) + [1]], dim))


def union_without_first_memory(k, n, covers, death, b):
    """The union with the first non-zero blanket memory dropped."""
    memories = list(cover_memories(k, n, covers, death, b))[1:]
    return _fold(k, "join", join, memories) if memories else k.zero(n)


# A union that stays inside the memory gives both routes one value, so
# dropping a memory alone shows no counterexample; joined with an
# escaping vector it changes the derivative rank that each one reports.
FAULTS = {
    "none": SOUND_UNION,
    "escaping": lambda k, n, *args: escape(k, n, SOUND_UNION(k, n, *args)),
    "drop-first": union_without_first_memory,
    "drop-first-escaping": lambda k, n, *args: escape(k, n, union_without_first_memory(k, n, *args)),
}


def pair_by_pair(k):
    """The rank-identity counterexamples from ``pair_group_rank`` and
    ``lifespan_rank``, in mode, degree, pair order, and the check count."""
    p = k.poset
    found, checked = [], 0
    for mode in BlanketMode:
        for n in range(max(k.max_dim, 0) + 1):
            for pair in enumerate_diagram_pairs(p):
                checked += 1
                derivative = pair_group_rank(k, n, pair, mode)
                try:
                    quotient = lifespan_rank(k, n, pair, mode)
                except NotASubspace:
                    quotient = "union-not-in-memory"
                if derivative != quotient:
                    found.append(
                        (mode.value, n, describe_open(p, pair.birth), describe_open(p, pair.death), derivative, quotient)
                    )
    return found, checked


def complexes(field):
    """The fixtures, three random grids and three random chains, each as a
    function that builds a fresh complex."""
    builds = [lambda f=f: load_complex(DATA / f"{f}.json", field_override=field) for f in FIXTURES]
    for seed in range(3):
        builds.append(lambda seed=seed: random_filtration(random.Random(seed), shape=(3, 3), field=FIELDS[field], max_cells=14))
        builds.append(lambda seed=seed: random_chain_filtration(random.Random(seed), field=FIELDS[field], max_cells=14))
    return builds


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("field", FIELDS)
def test_rank_identity_walk_matches_pair_by_pair_reference(field, fault, monkeypatch):
    monkeypatch.setattr(persdiff.memory, "cover_union", FAULTS[fault])
    monkeypatch.setattr(persdiff.verify, "cover_union", FAULTS[fault])
    total = 0
    for build in complexes(field):
        (report, *_) = run_verification(build(), samples=2).results
        want, checked = pair_by_pair(build())
        assert report.name == "pair-group-equals-lifespan-rank"
        assert (report.counterexamples, report.checked) == (want, checked)
        total += len(want)
    # An escaping fault that no input shows would make the comparison vacuous.
    assert (total > 0) == fault.endswith("escaping")


def shared_unions(k, monkeypatch):
    """Run ``verify`` on ``k`` and return, per pair and degree for which the
    rank identity built one union for both modes, the death open's
    boundaries it was built with."""
    calls = {}

    def recording(k, n, covers, death, b):
        birth, mode = covers[:2]
        calls.setdefault((n, birth, death), []).append((mode, b))
        return SOUND_UNION(k, n, covers, death, b)

    monkeypatch.setattr(persdiff.verify, "cover_union", recording)
    run_verification(k, samples=1)
    monkeypatch.undo()
    return {key: made[0][1] for key, made in calls.items() if len(made) == 1}


def memories_in_both_modes(k, n, birth, death, b):
    return [list(cover_memories(k, n, birth_covers(k, n, birth, mode), death, b)) for mode in BlanketMode]


def test_a_shared_union_has_the_same_blanket_memories_in_both_modes(monkeypatch):
    """Where the rank identity builds one union for both modes, the two
    modes' blanket memories are the same subspaces in the same order: on
    every poset with at most four elements, and on random grids and chains
    over GF(2), GF(5) and Q."""
    builds = [lambda k=k: k for _, _, k in small_complexes()]
    for field in FIELDS.values():
        for seed in range(4):
            builds.append(lambda seed=seed, field=field: random_filtration(random.Random(seed), shape=(3, 3), field=field, max_cells=16))
            builds.append(lambda seed=seed, field=field: random_chain_filtration(random.Random(seed), field=field, max_cells=16))
    shared = 0
    for build in builds:
        k = build()
        for (n, birth, death), b in shared_unions(k, monkeypatch).items():
            full, principal = memories_in_both_modes(k, n, birth, death, b)
            assert full == principal, (describe_open(k.poset, birth), describe_open(k.poset, death), n)
            shared += 1
    assert shared


def test_verify_walks_the_principal_pairs_once(monkeypatch):
    """On the 3-cell 128-chain, ``verify`` asks whether the two modes agree
    once per principal pair, and lists a birth's pairs once, only for a
    birth that a sampled draw lands on."""
    cells = [dict(cell) for cell in LONG_CHAIN_CELLS]
    cells[1]["births"], cells[2]["births"] = [64], [127]
    k = FilteredComplex.build(GF2, FinitePoset.chain(128), cells)
    p = k.poset
    listed, drawn, asked = [], set(), []
    draw, agreement = persdiff.verify._DiagramPairs.__getitem__, persdiff.verify._blanket_agreement

    def listing(p, i):
        listed.append(p.principal[i].bits)
        return birth_pairs(p, i)

    def drawing(view, j):
        pair = draw(view, j)
        drawn.add(pair.birth.bits)
        return pair

    def counting(p):
        agree = agreement(p)

        def ask(birth, death):
            asked.append((birth.bits, death.bits))
            return agree(birth, death)

        return ask

    monkeypatch.setattr(persdiff.verify, "birth_pairs", listing)
    monkeypatch.setattr(persdiff.verify._DiagramPairs, "__getitem__", drawing)
    monkeypatch.setattr(persdiff.verify, "_blanket_agreement", counting)
    assert run_verification(k, samples=2).ok
    assert len(listed) == len(set(listed))
    assert set(listed) == drawn
    assert len(drawn) < p.n
    assert len(asked) == len(set(asked)) == diagram_pair_count(p)
