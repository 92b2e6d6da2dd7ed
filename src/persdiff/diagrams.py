"""Generalized persistence diagrams, barcodes, and their serializations.

A diagram entry reports the minimal generators of the birth and death
opens (the grade for principal opens) with the pair-group multiplicity.
Barcodes are the 1-parameter specialization.  Diagrams, barcodes and the
oracle-keyed chain diagram all read one walk, ``_multiplicities``, over
the degrees and the enumerated pairs.  Diagrams are written as JSON or
CSV; nothing here reads one back.

Assembly skips pairs whose multiplicity must be zero.  The multiplicity
is ``dim mem(pair) - dim of the join of mem(b)`` over the degree-1
blankets b.  Every blanket enlarges the birth open (fewer cycles survive
on it) or the death open (fewer boundaries), so each mem(b) lies inside
mem(pair): when the pair's memory is zero the multiplicity is zero, and
when the birth open carries no cycles every pair with that birth has zero
memory.  ``pair_group_rank`` itself stays unpruned; ``verify`` checks it
against the lifespan rank on every pair.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby

from .calculus import pair_group_rank
from .complexes import FilteredComplex
from .memory import cycles_on_open, homological_memory
from .oracle import chain_positions
from .posets import BlanketMode, UpSet, enumerate_diagram_pairs, min_elements

INF = "inf"


@dataclass(frozen=True)
class DiagramEntry:
    """One diagram point: degree, birth/death generators, multiplicity."""

    degree: int
    birth: tuple
    death: tuple | str
    multiplicity: int


def element_repr(p, i: int):
    """Stable printable form of a poset element: grade, or label."""
    if p.grades:
        vec = p.grades[i]
        return vec[0] if len(vec) == 1 else tuple(vec)
    return p.labels[i]


def open_repr(p, u: UpSet):
    """Minimal-element representation of an open; INF for the empty one."""
    if u.is_empty:
        return INF
    mins = sorted(min_elements(p, u), key=p.element_key)
    return tuple(element_repr(p, i) for i in mins)


def _multiplicities(k: FilteredComplex, degrees, mode: BlanketMode):
    """(degree, pair, multiplicity) over the diagram pairs of each degree
    (every degree of the complex when ``degrees`` is None), in pair order,
    computing only possible non-zeros."""
    if degrees is None:
        degrees = range(max(k.max_dim, 0) + 1)
    pairs = enumerate_diagram_pairs(k.poset)  # grouped by birth open
    for n in degrees:
        for birth, group in groupby(pairs, key=lambda pair: pair.birth):
            cycles = cycles_on_open(k, n, birth).dim
            for pair in group:
                if cycles and homological_memory(k, n, pair).dim:
                    yield n, pair, pair_group_rank(k, n, pair, mode)
                else:
                    yield n, pair, 0


def compute_diagram(
    k: FilteredComplex,
    degrees=None,
    mode: BlanketMode = BlanketMode.FULL,
    include_zero: bool = False,
) -> list[DiagramEntry]:
    """Pair-group multiplicities over the enumerated principal pairs."""
    k.require_valid()
    p = k.poset
    return [
        DiagramEntry(n, open_repr(p, pair.birth), open_repr(p, pair.death), mult)
        for n, pair, mult in _multiplicities(k, degrees, mode)
        if mult or include_zero
    ]


def chain_diagram_counter(
    k: FilteredComplex, degrees=None, mode: BlanketMode = BlanketMode.FULL
) -> Counter:
    """Diagram of a chain-indexed complex keyed like the reduction oracle."""
    p = k.poset
    chain_positions(p)  # raises NotAChain otherwise
    bars: Counter = Counter()
    for n, pair, mult in _multiplicities(k, degrees, mode):
        if mult:
            birth = next(iter(min_elements(p, pair.birth)))
            death = None if pair.death.is_empty else next(iter(min_elements(p, pair.death)))
            bars[(n, birth, death)] += mult
    return bars


def entry_to_json(e: DiagramEntry) -> dict:
    """JSON form of an entry; ``json`` writes its tuples as lists."""
    return {
        "degree": e.degree,
        "birth": e.birth,
        "death": e.death,
        "multiplicity": e.multiplicity,
    }


def diagram_document(k: FilteredComplex, entries, mode: BlanketMode) -> dict:
    return {
        "format_version": 1,
        "kind": "diagram",
        "field": k.field.token(),
        "mode": mode.value,
        "entries": [entry_to_json(e) for e in entries],
    }


def _flat_repr(x) -> str:
    if isinstance(x, tuple):
        return "(" + ",".join(str(c) for c in x) + ")"
    return str(x)


def diagram_csv(entries) -> str:
    lines = ["degree,birth,death,multiplicity"]
    for e in entries:
        birth = ";".join(_flat_repr(x) for x in e.birth)
        death = INF if e.death == INF else ";".join(_flat_repr(x) for x in e.death)
        lines.append(f"{e.degree},{birth},{death},{e.multiplicity}")
    return "\n".join(lines) + "\n"


# -- barcodes (chains only) ---------------------------------------------------


@dataclass(frozen=True)
class Bar:
    degree: int
    birth: object
    death: object  # INF for never-dying classes
    multiplicity: int


def compute_barcode(k: FilteredComplex, mode: BlanketMode = BlanketMode.FULL) -> list[Bar]:
    chain_positions(k.poset)  # raises NotAChain otherwise
    return [
        Bar(e.degree, e.birth[0], INF if e.death == INF else e.death[0], e.multiplicity)
        for e in compute_diagram(k, mode=mode)
    ]


def barcode_document(k: FilteredComplex, bars) -> dict:
    return {
        "format_version": 1,
        "kind": "barcode",
        "field": k.field.token(),
        "bars": [
            {"degree": b.degree, "birth": b.birth, "death": b.death, "multiplicity": b.multiplicity}
            for b in bars
        ],
    }


def barcode_text(bars) -> str:
    if not bars:
        return "no bars\n"
    lines = []
    for b in bars:
        death = "inf)" if b.death == INF else f"{b.death})"
        lines.append(f"H{b.degree} [{b.birth}, {death} x{b.multiplicity}")
    return "\n".join(lines) + "\n"


def barcode_svg(bars) -> str:
    """Static SVG rendering; presentation only."""
    finite = [b.birth for b in bars] + [b.death for b in bars if b.death != INF]
    numeric = all(isinstance(v, (int, float)) for v in finite)
    lo = min(finite, default=0) if numeric else 0
    hi = max(finite, default=1) if numeric else 1
    span = max(hi - lo, 1) if numeric else 1
    width, row_h, pad = 480.0, 18, 40
    rows = []
    y = pad
    for b in sorted(bars, key=lambda b: (b.degree, str(b.birth))):
        for _ in range(b.multiplicity):
            x0 = pad + (float(b.birth) - lo) / span * width if numeric else pad
            if b.death == INF:
                x1 = pad + width + 20
            else:
                x1 = pad + (float(b.death) - lo) / span * width if numeric else pad + width
            rows.append(
                f'<line x1="{x0:.1f}" y1="{y}" x2="{x1:.1f}" y2="{y}" '
                f'stroke="#444" stroke-width="4"/>'
                f'<text x="4" y="{y + 4}" font-size="10">H{b.degree}</text>'
            )
            y += row_h
    height = y + pad
    body = "\n".join(rows)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width + 2 * pad + 20:.0f}" '
        f'height="{height}">\n{body}\n</svg>\n'
    )
