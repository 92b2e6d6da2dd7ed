"""The critical-pair walk behind ``diagram`` against full enumeration.

Every poset with at most four elements, each with small random complexes
over GF(2) whose cells have arbitrary up-sets of presence (so several
births per cell): in both blanket modes, with and without zero entries,
``compute_diagram`` must list exactly what ``pair_group_rank`` gives over
``enumerate_diagram_pairs``, entry for entry and in the same order.  On
the same complexes, the presence table the walk reads must match presence
read off the cells' births.
"""
import json
import random

from persdiff.calculus import pair_group_rank
from persdiff.complexes import FilteredComplex
from persdiff.diagrams import DiagramEntry, compute_diagram, open_repr
from persdiff.io import load_complex
from persdiff.posets import BlanketMode, FinitePoset, enumerate_diagram_pairs

from conftest import GF2, build_long_chain, cells_present
from corpus import random_filtration
from exhaustive import small_complexes

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
            assert len(table.boundaries) == len(table.cells) == len(table.rows) == len(set(present))
            assert table.rows == [sum(1 << (k.ambient_dim(n) - 1 - j) for j in cells) for cells in table.cells]


def test_walk_equals_full_enumeration_on_every_small_poset():
    for leq, cells, k in small_complexes():
        fresh = FilteredComplex.build(GF2, k.poset, cells)
        for mode in BlanketMode:
            for include_zero in (False, True):
                got = compute_diagram(k, mode=mode, include_zero=include_zero)
                assert got == reference_diagram(fresh, mode, include_zero), (leq, cells)


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


def test_long_chain_visits_only_critical_pairs():
    """Three cells on a 2,048-chain: in both blanket modes the walk
    evaluates a handful of pairs, not the two million principal ones."""
    expected = [
        DiagramEntry(0, (0,), "inf", 1),
        DiagramEntry(0, (1024,), (2047,), 1),
    ]
    for mode in BlanketMode:
        k = build_long_chain()
        assert compute_diagram(k, mode=mode) == expected
        assert len(k.memo["memory"]) <= 16, mode
