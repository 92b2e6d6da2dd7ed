"""The many-cell grid documents: random vertices and edges on a square grid.

Each document is drawn from ``random.Random(0)`` over GF(2): N vertices
born at uniform grid points, drawn first, then M distinct edges, each a
sorted sample of two vertices (a repeated edge is skipped before its
birth is drawn), born at a uniform point at or above the coordinatewise
max of its endpoints' births.  A document is written with ``json.dumps``
defaults, so its bytes, and the sha256 recorded here, are fixed.

This module imports neither pytest nor persdiff.  Run as a script, it
writes the named documents (all of them by default) into a directory
and prints each file's sha256:

    python tests/many_cells.py OUT_DIR [many_100 many_200 many_300]
"""
import hashlib
import json
import random
import sys
from pathlib import Path

# name: (grid side, vertices, edges)
DOCUMENTS = {
    "many_100": (16, 100, 200),
    "many_200": (24, 200, 400),
    "many_300": (32, 300, 600),
}

SHA256 = {
    "many_100": "595b84dea29ed3b25add9a6c76b92563288bdf96335257135c759f2745d8c6aa",
    "many_200": "b2b56bf912d9595d788afe88607445fc8f11304143b0aa4a1a7ba575e9983991",
    "many_300": "a578d145ca148919f067bf0d14b1632d56c3d32dac8a47598473f4f989304040",
}


def document(side: int, vertices: int, edges: int) -> dict:
    """The document of ``vertices`` vertices and ``edges`` edges on a
    ``side`` x ``side`` grid."""
    rng = random.Random(0)
    births = [(rng.randrange(side), rng.randrange(side)) for _ in range(vertices)]
    cells = [{"id": f"v{i}", "vertices": [f"v{i}"], "births": [list(b)]} for i, b in enumerate(births)]
    seen = set()
    while len(seen) < edges:
        a, b = sorted(rng.sample(range(vertices), 2))
        if (a, b) in seen:
            continue
        seen.add((a, b))
        lo0, lo1 = (max(births[a][j], births[b][j]) for j in (0, 1))
        born = [rng.randrange(lo0, side), rng.randrange(lo1, side)]
        cells.append({"id": f"e{a}_{b}", "vertices": [f"v{a}", f"v{b}"], "births": [born]})
    return {"format_version": 1, "field": "gf2", "poset": {"kind": "grid", "shape": [side, side]}, "cells": cells}


def text(name: str) -> str:
    """The named document as written."""
    return json.dumps(document(*DOCUMENTS[name]))


def write(directory, name: str) -> Path:
    """Write the named document to ``directory/name.json`` and return its path."""
    path = Path(directory) / f"{name}.json"
    path.write_text(text(name))
    return path


def main(argv) -> int:
    if not argv:
        print("usage: python tests/many_cells.py OUT_DIR [NAME ...]", file=sys.stderr)
        return 2
    for name in argv[1:] or DOCUMENTS:
        path = write(argv[0], name)
        print(hashlib.sha256(path.read_bytes()).hexdigest(), path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
