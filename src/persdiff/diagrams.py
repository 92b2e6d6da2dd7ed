"""Generalized persistence diagrams, barcodes, and their serializations.

A diagram entry reports the minimal generators of the birth and death
opens (the grade for principal opens) with the pair-group multiplicity.
Barcodes are the 1-parameter specialization.  Diagrams, barcodes and the
oracle-keyed chain diagram all read one walk, ``_multiplicities``, over
the degrees and the principal pairs in the order of
``enumerate_diagram_pairs``.  ``diagram_entries`` yields a diagram's
entries as the walk reaches them, and ``write_diagram_json`` and
``write_diagram_csv`` write each as it comes, so no diagram is held
whole on its way out; nothing here reads one back.

The multiplicity of a pair is the blanket-shift derivative of the union
rank at (0, 1): ``dim mem(pair) - dim of the join of mem(b)`` over its
degree-1 blankets b.  ``persdiff.calculus.pair_group_rank`` computes it
through the calculus and the memoized blanket unions; ``verify`` computes
the same number per birth from ``persdiff.memory.cover_union`` and checks
it against the lifespan rank.  The walk computes it straight from the
memories and builds no union.  It evaluates the multiplicity only where
it can be non-zero: it is zero as soon as one blanket has the pair's
whole memory.  Every blanket enlarges the birth open (fewer cycles
survive on it) or the death open (fewer boundaries), so each mem(b) lies
inside mem(pair): a pair with zero memory has multiplicity zero, and so
does every pair born on an open that carries no cycles.

Two more rules read only the order and where cells are present.  Call two
elements twins in degree n when the same n-cells are present at both;
the cycles Z in degree n and the boundaries B in degree n - 1 are then
equal at both.  A principal pair (up x, up y) has multiplicity 0 in
degree n when

(a) a lower cover w of x is an n-twin of x.  In FULL mode: the
    complement of up x contains w, so it has a maximal element m >= w,
    and W = up x + {m} is a birth-side blanket.  Z(W) is Z_x meet Z_m,
    and Z_m contains Z_w = Z_x, so Z(W) = Z_x and the blanket
    (W, up y) has the pair's memory.  In PRINCIPAL mode up w itself is a
    birth-side blanket, and Z_w = Z_x.  So (a) holds in both modes.

(b) a lower cover z of y is an (n+1)-twin of y; in PRINCIPAL mode z
    must also lie strictly above x.  In FULL mode: take c in the pair's
    memory Z_x meet B_y.  If z >= x, let m >= z be a maximal element of
    the complement of up y: the death-side cover V = up y + {m} stays
    inside the birth open (m >= z >= x), and B_m contains B_z = B_y, so
    B(V) = B_y and (up x, V) has the pair's memory.  Otherwise z lies
    outside up x: let m >= z be a maximal element of the complement of
    up x, and W = up x + {m} the birth-side cover.  c lies in B_y = B_z,
    inside B_m, inside Z_m (a boundary present at m is a cycle there),
    so c lies in Z(W) meet B_y, the memory of (W, up y).  Either way one
    blanket has the whole memory.  In PRINCIPAL mode the death-side
    blankets of up y are the up z for lower covers z of y, kept when up z
    lies inside the birth open (z >= x) and is not the birth open itself
    (z != x).  So for a twin z strictly above x the blanket (up x, up z)
    is kept, and its memory Z_x meet B_z = Z_x meet B_y is the pair's.
    A twin z outside up x, or z = x, gives PRINCIPAL mode no blanket to
    use: its birth-side blankets need not reach above z.

Presence only grows along the order, so when some element strictly below
x (or y) is a twin of it, so is some lower cover, and testing the covers
suffices.  Births where (a) does not hold, and deaths where (b) does
not hold, are critical; in FULL mode neither test depends on the other
end of the pair.  On grids the critical elements are the usual grid of
critical values.

A birth is evaluated once per degree, and a twin birth not at all.  For
a critical birth x the walk hands ``persdiff.memory.birth_memories``,
the generator ``verify``'s rank identity also walks, the deaths that
rule (b) keeps and the empty death, which no rule prunes: in FULL mode
one mask per degree, the elements with no (n+1)-twin lower cover, and
in PRINCIPAL mode each death tested against the birth.  It yields
nothing when up x carries no cycles, and otherwise each of those pairs
with a non-zero memory; at the first, the walk builds the birth's cover
state (``persdiff.memory.birth_covers``).  A pair's blanket memories
then come one at a time from ``persdiff.memory.cover_memories``, birth
side first, and are joined until the join has the whole memory; the
multiplicity is the memory's dimension less the join's.  ``verify``'s
oracle check reads this walk, and the tests compare it with
``pair_group_rank``.
"""
from __future__ import annotations

import functools
import json
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from .complexes import FilteredComplex
from .linalg import join
from .memory import birth_covers, birth_memories, cover_memories
from .oracle import chain_positions
from .posets import (
    BlanketMode,
    UpSet,
    diagram_order,
    diagram_pair_count,
    min_elements,
)

INF = "inf"

# Most rows a diagram with zero multiplicities may have: every principal
# pair in every degree is a row.  Rows are written as the walk reaches
# them, so the bound limits run time and output size, not memory.  The
# 3-cell 1,024-chain (1,049,600 rows: 5-7 s, 18 MiB peak RSS and
# 138 MB of JSON) passes; the 2,048-chain (4,196,352 rows) is refused.
MAX_DIAGRAM_ROWS = 1_500_000


class TooManyRows(ValueError):
    """A diagram with zero multiplicities would have more than
    :data:`MAX_DIAGRAM_ROWS` rows."""


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


def _multiplicities(k: FilteredComplex, degrees, mode: BlanketMode, include_zero: bool):
    """(degree, birth element, death element or None, multiplicity) over the
    principal pairs of each degree (every degree of the complex when
    ``degrees`` is None), in pair order.  Only critical pairs are
    evaluated; the others are yielded as zeros with ``include_zero`` and
    skipped without it, as are zero multiplicities."""
    p = k.poset
    if degrees is None:
        degrees = range(max(k.max_dim, 0) + 1)
    births = diagram_order(p, p.top().bits)
    full = mode is BlanketMode.FULL
    principal = p.principal
    for n in degrees:
        birth_twins = k.presence_table(n).twins
        death_twins = k.presence_table(n + 1).twins
        # The deaths rule (b) keeps in FULL mode: no (n+1)-twin lower cover.
        kept = sum([1 << y for y, twins in enumerate(death_twins) if not twins]) if full else 0
        for x in births:
            above = principal[x].bits ^ 1 << x
            mults = {}
            if not birth_twins[x]:
                if full:
                    deaths = diagram_order(p, above & kept)
                else:
                    # In PRINCIPAL mode rule (b) may use only the lower covers
                    # of the death that lie strictly above the birth.
                    deaths = [y for y in diagram_order(p, above) if not death_twins[y] & above]
                covers = None
                for y, death, b, memory in birth_memories(k, n, x, deaths + [None]):
                    covers = covers or birth_covers(k, n, principal[x], mode)
                    union = None
                    for sub in cover_memories(k, n, covers, death, b):
                        union = sub if union is None else join(union, sub)
                        if union.dim == memory.dim:
                            break
                    if mult := memory.dim - (0 if union is None else union.dim):
                        mults[y] = mult
            for y in (diagram_order(p, above) + [None]) if include_zero else mults:
                yield n, x, y, mults.get(y, 0)


def diagram_entries(
    k: FilteredComplex,
    degrees=None,
    mode: BlanketMode = BlanketMode.FULL,
    include_zero: bool = False,
) -> Iterator[DiagramEntry]:
    """Pair-group multiplicities over the enumerated principal pairs, each
    entry yielded as the walk reaches it.

    The complex is checked and, with ``include_zero``, the rows counted
    when this is called, not when the first entry is read: every
    principal pair of every degree is then a row, and more than
    :data:`MAX_DIAGRAM_ROWS` of them raise :class:`TooManyRows`.
    """
    k.require_valid()
    p = k.poset
    if include_zero:
        rows = diagram_pair_count(p) * (max(k.max_dim, 0) + 1 if degrees is None else len(degrees))
        if rows > MAX_DIAGRAM_ROWS:
            raise TooManyRows(
                f"the diagram with zero multiplicities would have {rows} rows; "
                f"at most {MAX_DIAGRAM_ROWS} are supported"
            )
    return (
        DiagramEntry(n, (element_repr(p, x),), INF if y is None else (element_repr(p, y),), mult)
        for n, x, y, mult in _multiplicities(k, degrees, mode, include_zero)
    )


def compute_diagram(
    k: FilteredComplex,
    degrees=None,
    mode: BlanketMode = BlanketMode.FULL,
    include_zero: bool = False,
) -> list[DiagramEntry]:
    """The entries of :func:`diagram_entries` as a list."""
    return list(diagram_entries(k, degrees, mode, include_zero))


def chain_diagram_counter(
    k: FilteredComplex, degrees=None, mode: BlanketMode = BlanketMode.FULL
) -> Counter:
    """Diagram of a chain-indexed complex keyed like the reduction oracle."""
    chain_positions(k.poset)  # raises NotAChain otherwise
    bars: Counter = Counter()
    for n, x, y, mult in _multiplicities(k, degrees, mode, False):
        bars[(n, x, y)] += mult
    return bars


def _json(o, newline: str) -> str:
    """An int, a string or a tuple of these as ``json.dumps(o, indent=2)``
    writes it on a line that ``newline`` ends and indents."""
    if type(o) is int:
        return str(o)
    if type(o) is not tuple:
        return json.dumps(o)
    if not o:
        return "[]"
    inner = newline + "  "
    return "[" + ",".join(inner + _json(c, inner) for c in o) + newline + "]"


def write_diagram_json(out, k: FilteredComplex, entries, mode: BlanketMode) -> None:
    """Write the diagram document, entry by entry, as the bytes of
    ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline."""
    line = "\n      "
    # One text per open: the same opens recur across the rows.
    text = functools.cache(lambda o: _json(o, line))
    entry = '{\n      "birth": %s,\n      "death": %s,\n      "degree": %d,\n      "multiplicity": %d\n    }'
    out.write('{\n  "entries": [')
    sep = "\n    "
    for e in entries:
        out.write(sep + entry % (text(e.birth), text(e.death), e.degree, e.multiplicity))
        sep = ",\n    "
    out.write(
        ("]" if sep == "\n    " else "\n  ]")
        + f',\n  "field": {json.dumps(k.field.token())},\n  "format_version": 1,'
        + f'\n  "kind": "diagram",\n  "mode": {json.dumps(mode.value)}\n}}\n'
    )


def _flat_repr(x) -> str:
    if isinstance(x, tuple):
        return "(" + ",".join(str(c) for c in x) + ")"
    return str(x)


def _csv_field(s: str) -> str:
    """``s`` as a CSV field: quoted, its quotes doubled, when it holds a
    comma, a double quote, a line feed or a carriage return."""
    if any(c in s for c in ',"\n\r'):
        return '"' + s.replace('"', '""') + '"'
    return s


def write_diagram_csv(out, entries) -> None:
    """Write ``degree,birth,death,multiplicity`` rows, each ended by a line
    feed, with the quoting of :func:`_csv_field` on every Python version."""
    text = functools.cache(lambda o: _csv_field(INF if o == INF else ";".join(map(_flat_repr, o))))
    out.write("degree,birth,death,multiplicity\n")
    for e in entries:
        out.write(f"{e.degree},{text(e.birth)},{text(e.death)},{e.multiplicity}\n")


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
