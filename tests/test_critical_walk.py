"""The critical-pair walk behind ``diagram`` against full enumeration.

The walk computes each multiplicity itself and never calls
``pair_group_rank``, so it is held to it here.  Every poset with at most
four elements, each with small random complexes over GF(2) whose cells
have arbitrary up-sets of presence (so several births per cell): in both
blanket modes, with and without zero entries, ``compute_diagram`` must
list exactly what ``pair_group_rank`` gives over
``enumerate_diagram_pairs``, entry for entry and in the same order; so
must the walk on the graded fixtures and on random grids and chains over
GF(2), GF(5) and Q.  On the small complexes, the presence table the walk
reads must match presence read off the cells' births.
"""
import hashlib
import json
import random
from pathlib import Path

import pytest

from persdiff import memory
from persdiff.calculus import pair_group_rank
from persdiff.complexes import FilteredComplex
from persdiff.diagrams import DiagramEntry, _multiplicities, compute_diagram, open_repr
from persdiff.io import load_complex, parse_document
from persdiff.linalg import Subspace
from persdiff.posets import EMPTY_OPEN, BlanketMode, FinitePoset, enumerate_diagram_pairs
from persdiff.verify import run_verification

import many_cells
from conftest import GF2, GF5, QQ, build_long_chain, build_two_param, cells_present
from corpus import random_chain_filtration, random_filtration
from exhaustive import small_complexes

DATA = Path(__file__).parent / "data"
FIXTURES = ("two_param", "triangle", "corner_grid", "torsion_chain", "offset_grid")


def reference_diagram(k, mode, include_zero):
    p = k.poset
    return [
        DiagramEntry(n, open_repr(p, pair.birth), open_repr(p, pair.death), mult)
        for n in range(max(k.max_dim, 0) + 1)
        for pair in enumerate_diagram_pairs(p)
        for mult in (pair_group_rank(k, n, pair, mode),)
        if mult or include_zero
    ]


def reference_presence(k, n, leq):
    """Per element, the n-cells present there: those with a birth at or below it."""
    cells = k.cells_of_dim(n)
    return [tuple(j for j, c in enumerate(cells) if any(leq[b, x] for b in c.births)) for x in range(len(leq))]


def reference_twins(leq, present):
    """Lower covers with the same cells present, straight from the definition."""
    size = len(leq)
    out = []
    for x in range(size):
        below = [w for w in range(size) if w != x and leq[w, x]]
        covers = [w for w in below if not any(v != w and leq[w, v] for v in below)]
        same = [w for w in covers if present[w] == present[x]]
        out.append(sum(1 << w for w in same))
    return out


def test_presence_table_matches_births_on_every_small_poset():
    """Classes, cells present, presence masks and twins, in every degree,
    against presence read off the cells' births."""
    for leq, cells, k in small_complexes():
        size = len(leq)
        for n in range(max(k.max_dim, 0) + 2):
            table = k.presence_table(n)
            present = reference_presence(k, n, leq)
            for x in range(size):
                assert cells_present(k, n, x) == present[x]
                for y in range(size):
                    assert (table.classes[x] == table.classes[y]) == (present[x] == present[y])
            assert table.twins == reference_twins(leq, present)
            assert table.masks == [
                sum(1 << x for x in range(size) if j in present[x]) for j in range(k.ambient_dim(n))
            ]
            assert len(table.boundaries) == len(table.rows) == len(set(present))
            # Classes are numbered by their lowest element.
            firsts = [table.classes.index(c) for c in range(len(table.rows))]
            assert firsts == sorted(firsts)


def test_walk_equals_full_enumeration_on_every_small_poset():
    for leq, cells, k in small_complexes():
        fresh = FilteredComplex.build(GF2, k.poset, cells)
        for mode in BlanketMode:
            for include_zero in (False, True):
                got = compute_diagram(k, mode=mode, include_zero=include_zero)
                assert got == reference_diagram(fresh, mode, include_zero), (leq, cells)


@pytest.mark.parametrize("field", [GF2, GF5, QQ], ids=lambda f: f.token())
def test_walk_equals_pair_group_rank_on_every_principal_pair(field):
    """Every principal pair in every degree, in both modes: with zeros the
    walk yields every pair in ``enumerate_diagram_pairs`` order with
    ``pair_group_rank``'s value on a complex that has not seen the walk,
    and without zeros exactly the non-zero ones of those."""
    rng = random.Random(26)
    complexes = [load_complex(DATA / f"{name}.json", field.token()) for name in FIXTURES]
    complexes += [random_filtration(rng, shape=shape, field=field) for shape in ((3, 3), (4, 3), (2, 2, 2))]
    complexes += [random_chain_filtration(rng, grades=7, field=field) for _ in range(2)]
    for k in complexes:
        p = k.poset
        fresh = FilteredComplex(field, p, list(k.all_cells()))
        pairs = enumerate_diagram_pairs(p)
        for mode in BlanketMode:
            want = [
                (n, pair, pair_group_rank(fresh, n, pair, mode))
                for n in range(max(k.max_dim, 0) + 1)
                for pair in pairs
            ]
            got = [
                (n, (p.principal[x], EMPTY_OPEN if y is None else p.principal[y]), mult)
                for n, x, y, mult in _multiplicities(k, None, mode, True)
            ]
            assert got == want, (k.poset.labels, mode)
            nonzero = [(n, x, y, mult) for n, x, y, mult in _multiplicities(k, None, mode, True) if mult]
            assert list(_multiplicities(k, None, mode, False)) == nonzero


def test_walk_resolves_no_element(tmp_path, monkeypatch):
    """On a loaded 8x8 grid document, in both modes and with and without
    zeros, the walk reads every element by index: ``resolve`` is never
    called once the document is loaded."""
    k = random_filtration(random.Random(8), shape=(8, 8), max_vertices=5)
    p = k.poset
    doc = {
        "format_version": 1,
        "field": "gf2",
        "poset": {"kind": "grid", "shape": [8, 8]},
        "cells": [
            {"id": c.id, "vertices": list(c.vertices), "births": [list(p.grades[b]) for b in c.births]}
            for c in k.all_cells()
        ],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    runs = [(load_complex(path), mode, include_zero) for mode in BlanketMode for include_zero in (False, True)]
    calls = []
    original = FinitePoset.resolve
    monkeypatch.setattr(FinitePoset, "resolve", lambda self, x: calls.append(x) or original(self, x))
    for loaded, mode, include_zero in runs:
        entries = compute_diagram(loaded, mode=mode, include_zero=include_zero)
        assert entries and calls == [], (mode, include_zero)


def test_long_chain_visits_only_critical_pairs(monkeypatch):
    """Three cells on a 2,048-chain: in both blanket modes the walk
    evaluates a handful of pairs, not the two million principal ones."""
    expected = [
        DiagramEntry(0, (0,), "inf", 1),
        DiagramEntry(0, (1024,), (2047,), 1),
    ]
    calls = []
    original = memory.homological_memory
    monkeypatch.setattr(memory, "homological_memory", lambda k, n, pair: calls.append(pair) or original(k, n, pair))
    for mode in BlanketMode:
        k = build_long_chain()
        calls.clear()
        assert compute_diagram(k, mode=mode) == expected
        assert 0 < len(calls) <= 16, mode


def held_subspaces(k):
    """The subspace objects that the complex's memo layers other than the
    canonical table hold, presence-table classes included, by ``id``."""
    out = {}

    def walk(value):
        if isinstance(value, Subspace):
            out[id(value)] = value
        elif isinstance(value, (tuple, list)):
            for part in value:
                walk(part)

    for layer, entries in k.memo.items():
        if layer != "canon":
            walk(list(entries.values()))
    return out


def test_no_memo_layer_grows_per_pair():
    """On many_100 (a 16x16 grid, 10,142 critical pairs in degree 0) the
    walk leaves no memo layer, on the complex or its poset, but ``cut``
    and the canonical table with as many entries as two per element per
    degree: no pair has an entry of its own.  The canonical table has no
    more entries than the other layers hold distinct subspace objects.
    Nor does ``verify`` leave a ``memory`` layer."""
    k = parse_document(many_cells.document(*many_cells.DOCUMENTS["many_100"]))
    assert compute_diagram(k)
    memos = {"complex": k.memo, "poset": k.poset.memo}
    sizes = {
        (on, layer): len(entries)
        for on, memo in memos.items()
        for layer, entries in memo.items()
        if layer not in ("cut", "canon")
    }
    assert max(sizes.values()) < 2 * k.poset.n * 2, sizes
    assert len(k.memo["canon"]) <= len(held_subspaces(k))
    k = build_two_param()
    assert run_verification(k, samples=10).ok
    assert "memory" not in k.memo


def _value(sub):
    return sub.ambient_dim, frozenset((c, r if isinstance(r, int) else frozenset(r.items())) for c, r in sub.table.items())


@pytest.mark.parametrize(
    "build",
    [
        build_two_param,
        # Shaped like the chain-verify benchmark's documents.
        lambda: random_filtration(random.Random(0), shape=(30,), field=GF5, max_vertices=10, max_cells=30),
        lambda: parse_document(many_cells.document(*many_cells.DOCUMENTS["many_100"])),
    ],
    ids=["two_param", "chain30-gf5", "many_100"],
)
def test_no_subspace_value_is_held_twice(build):
    """After ``diagram`` and ``verify``, no two subspace objects that the
    memo layers and presence-table classes hold are equal: each is the
    complex's canonical object, and so is every operand that a ``cut``,
    ``meet`` or ``join`` key names by ``id``, so an id key is a value key."""
    k = build()
    compute_diagram(k)
    run_verification(k, samples=20)
    held = held_subspaces(k)
    values = [_value(sub) for sub in held.values()]
    assert len(set(values)) == len(values), (len(values), len(set(values)))
    canonical = {id(sub) for sub in k.memo["canon"].values()}
    assert held.keys() <= canonical
    named = [i for key in k.memo["cut"] for i in key]
    named += [i for layer in ("meet", "join") for key in k.memo[layer] for i in key]
    assert named and set(named) <= canonical


def test_many_cell_documents_keep_their_bytes():
    """The generator CI's many-cell step runs writes the recorded bytes."""
    for name, digest in many_cells.SHA256.items():
        assert hashlib.sha256(many_cells.text(name).encode()).hexdigest() == digest, name
