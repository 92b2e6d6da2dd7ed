"""Workload definitions and their seeded input documents.

The generator is the benchmark's own and imports nothing from the
package or its tests, so an edit to either cannot shift the load.  Every
document is a random clique complex on a grid or chain poset, drawn with
fixed edge, triangle, tetrahedron and multi-birth probabilities and then
conditioned on its cell count per dimension.  Fixing that count keeps the
cost of one document close to the cost of another, which is what lets a
few dozen operations per run give a steady throughput across seeds.  A
cell's births dominate one birth of each of its faces, so every document
validates.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

EDGE_PROB = 0.4
TRI_PROB = 0.3
TET_PROB = 0.3
MULTI_PROB = 0.15
PRESENCE_TOL = 0.02


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI command over a family of documents."""

    name: str
    args: tuple  # CLI arguments; "{doc}" stands for the document path
    field: str
    shape: tuple  # grid shape; a 1-tuple is a chain
    cells: tuple  # cells per dimension of every document, from dimension 0
    presence: float  # share of (cell, grid point) incidences where the cell exists
    pool: int  # documents written per run; each is used at most once

    def argv(self, path) -> list[str]:
        return [str(path) if a == "{doc}" else a for a in self.args]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-gf2",
            args=("diagram", "{doc}"),
            field="gf2",
            shape=(8, 8),
            cells=(5, 4),
            presence=0.24,
            pool=300,
        ),
        Workload(
            name="grid-rational",
            args=("diagram", "{doc}"),
            field="rational",
            shape=(4, 4),
            cells=(7, 8, 1),
            presence=0.26,
            pool=300,
        ),
        Workload(
            name="chain-verify",
            args=("verify", "{doc}", "--samples", "20", "--oracle", "--json"),
            field="gf:5",
            shape=(30,),
            cells=(10, 18, 2),
            presence=0.35,
            pool=300,
        ),
    )
}


def _structure(rng, vertices: int, counts: tuple) -> list[tuple]:
    """Simplices of a random clique complex with the given cell counts.

    Restarting from scratch on any mismatch samples the unconditioned
    process conditioned on the counts.
    """
    names = tuple(f"v{i}" for i in range(vertices))
    want = counts + (0,) * (4 - len(counts))
    while True:
        edges = [e for e in combinations(names, 2) if rng.random() < EDGE_PROB]
        if len(edges) != want[1]:
            continue
        edge_set = set(edges)
        triangles = [
            t
            for t in combinations(names, 3)
            if all(f in edge_set for f in combinations(t, 2)) and rng.random() < TRI_PROB
        ]
        if len(triangles) != want[2]:
            continue
        tri_set = set(triangles)
        quads = [
            q
            for q in combinations(names, 4)
            if all(f in tri_set for f in combinations(q, 3)) and rng.random() < TET_PROB
        ]
        if len(quads) == want[3]:
            return [(v,) for v in names] + edges + triangles + quads


def _births(rng, simplices, shape) -> dict:
    births = {}
    for simplex in simplices:
        faces = list(combinations(simplex, len(simplex) - 1)) if len(simplex) > 1 else []
        face_births = [births[f] for f in faces]

        def draw():
            if not face_births:
                return tuple(rng.randrange(s) for s in shape)
            # Dominate one birth of every face, then maybe move up.
            lo = tuple(max(c) for c in zip(*(rng.choice(bs) for bs in face_births)))
            if rng.random() < 0.5:
                lo = tuple(rng.randrange(l, s) for l, s in zip(lo, shape))
            return lo

        grades = [draw()]
        if rng.random() < MULTI_PROB:
            second = draw()
            if second != grades[0]:
                grades.append(second)
        births[simplex] = grades
    return births


def presence(births: dict, shape) -> float:
    """Share of (cell, grid point) pairs at which the cell is present."""

    def up(b):
        return math.prod(s - x for s, x in zip(shape, b))

    total = 0
    for grades in births.values():
        total += up(grades[0])
        if len(grades) == 2:
            total += up(grades[1]) - up([max(a, b) for a, b in zip(*grades)])
    return total / (len(births) * math.prod(shape))


def make_document(rng, workload: Workload) -> dict:
    """One document of the workload's size.

    Births are redrawn until the presence share is within
    ``PRESENCE_TOL`` of the workload's target: how early cells appear
    drives the size of every subspace, and so the cost of the document.
    """
    shape = workload.shape
    simplices = _structure(rng, workload.cells[0], workload.cells)
    while True:
        births = _births(rng, simplices, shape)
        if abs(presence(births, shape) - workload.presence) <= PRESENCE_TOL:
            break
    cells = [
        {"id": "-".join(s), "vertices": list(s), "births": [list(g) for g in births[s]]}
        for s in simplices
    ]
    return {
        "format_version": 1,
        "field": workload.field,
        "poset": {"kind": "grid", "shape": list(shape)},
        "cells": cells,
    }


def write_pool(workload: Workload, seed: int, directory: Path) -> list[tuple[Path, str]]:
    """Write the workload's documents for ``seed``; return (path, sha256) pairs."""
    rng = random.Random(f"{workload.name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for i in range(workload.pool):
        doc = make_document(rng, workload)
        text = json.dumps(doc, sort_keys=True)
        path = directory / f"{i:04d}.json"
        path.write_text(text)
        out.append((path, hashlib.sha256(text.encode()).hexdigest()))
    return out
