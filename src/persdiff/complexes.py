"""Multifiltered chain complexes over a finite poset.

The filtration is stored once as its colimit complex: each cell carries a
set of birth grades, and the complex at a poset point is spanned by the
cells born at or below that point.  Structure maps are inclusions by
construction, so the filtration is monic for free; validation checks that
faces are never born after their cofaces and that the boundary squares to
zero.

Per-point subspaces read the presence table of each degree.  The cycles
at a point are the colimit cycles Z supported on the cells present
there: a chain on those cells is a cycle of the complex at the point
exactly when it is one of the colimit complex, so Z_x = Z ∩ span S_n(x).
So one kernel per degree, the colimit cycles, gives every cycle
subspace by restriction to a support (``cycles_on_support``).  The
boundaries at a point are the column space of the boundary on its
present cells, one per presence class.  Every boundary is a cycle only
when ∂∂ = 0, which is what lets :mod:`persdiff.memory` cut pair memories
by supports too; ``colimit_cycles`` raises :class:`InvalidComplex` on a
complex that fails validation.

Diagrams and verification walk every degree from 0 to the largest cell
dimension, so cells of dimension above :data:`MAX_DIM` are refused when
they are built.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

from .fields import FieldSpec
from .linalg import (
    Matrix,
    Subspace,
    column_space,
    kernel,
    mask_columns,
    matmul,
    restrict,
)
from .posets import FinitePoset, as_int, named_element

# Largest accepted cell dimension: diagrams and verification do work in
# every degree up to it, even where no cell has that dimension.
MAX_DIM = 64


class InvalidComplex(ValueError):
    pass


@dataclass(frozen=True)
class Cell:
    """One cell: simplex kind (vertex list) or generic kind (explicit faces).

    ``births`` holds poset element indices; presence at a point means some
    birth grade lies at or below it.
    """

    id: str
    dim: int
    births: tuple[int, ...]
    vertices: tuple[str, ...] | None = None
    faces: tuple[tuple[str, object], ...] | None = None

    def __post_init__(self):
        if self.dim < 0:
            raise InvalidComplex(f"cell {self.id!r} has negative dimension")
        if self.dim > MAX_DIM:
            raise InvalidComplex(
                f"cell {self.id!r} has dimension {self.dim}; at most {MAX_DIM} is supported"
            )
        if not self.births:
            raise InvalidComplex(f"cell {self.id!r} has no birth grades")
        if (self.vertices is None) == (self.faces is None):
            raise InvalidComplex(
                f"cell {self.id!r} must have exactly one of vertices or faces"
            )


class PresenceTable(NamedTuple):
    """Where the n-cells are present.  ``masks`` maps n-cell index to the mask
    of the elements where it is present.  Elements with the same n-cells
    present form a class: ``classes`` maps element index to class, ``rows``
    class to its present cells as one row (cell 0 the highest bit, as a
    GF(2) row holds column 0), and ``twins`` element to the mask of its
    lower covers in its class.  The degree-(n-1) boundaries at a point
    depend only on its class c: ``boundaries[c]`` once built."""

    masks: list[int]
    classes: list[int]
    rows: list[int]
    twins: list[int]
    boundaries: list


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str
    cells: tuple[str, ...] = ()

    def __str__(self):
        where = f" [{', '.join(self.cells)}]" if self.cells else ""
        return f"{self.kind}: {self.detail}{where}"


class FilteredComplex:
    """Immutable multifiltered complex; queries are pure and memoized.

    ``memo`` holds every derived result, here and in :mod:`persdiff.memory`:
    one dict per named layer.  Per-point state is the ``presence_table``
    layer, keyed by degree: a :class:`PresenceTable`, read by element index,
    whose classes hold their boundary subspaces, so elements with the same
    cells present share one subspace object; the empty classes of a degree
    share its one zero with the empty blanket unions.  The ``cycles`` layer
    holds the cycles on each support, keyed by degree and the support's
    bytes, so elements and opens with the same support share one object, and
    no open keeps its own.  The ``faces``, ``boundary``, ``colimit`` and
    ``zero`` layers are keyed by degree.  The ``canon`` layer holds one
    object per distinct subspace value (:meth:`canonical`), keyed by small
    ints, and every subspace any layer holds is that object.  The layers
    over opens in :mod:`persdiff.memory` are keyed by the opens' mask bytes
    (``UpSet.key``) next to ints and bools, and its cut, meet and join
    layers by the ``id``s of canonical operands, so by value; every other
    key is built from ints, bools and bytes.
    """

    def __init__(self, field: FieldSpec, poset: FinitePoset, cells: Sequence[Cell]):
        self.field = field
        self.poset = poset
        by_dim: dict[int, list[Cell]] = {}
        for cell in cells:
            for b in cell.births:
                if not 0 <= b < poset.n:
                    raise InvalidComplex(f"cell {cell.id!r} born at unknown element {b}")
            by_dim.setdefault(cell.dim, []).append(cell)
        self._by_dim = {n: tuple(cs) for n, cs in by_dim.items()}
        self.max_dim = max(self._by_dim) if self._by_dim else -1
        self._col_index = {
            n: {c.id: j for j, c in enumerate(cs)} for n, cs in self._by_dim.items()
        }
        self._simplex_index = {}
        for n, cs in self._by_dim.items():
            for j, c in enumerate(cs):
                if c.vertices is not None:
                    self._simplex_index[(n, frozenset(c.vertices))] = j
        self._violations: list[Violation] | None = None
        self.memo: defaultdict[str, dict] = defaultdict(dict)

    @classmethod
    def build(cls, field: FieldSpec, poset: FinitePoset, cell_specs: Iterable[dict]) -> "FilteredComplex":
        """Construct from plain dict records (the JSON cell schema).

        Malformed records raise :class:`InvalidComplex`; unknown birth
        grades raise ``UnknownElement``.
        """
        cells = []
        for spec in cell_specs:
            if not isinstance(spec, dict):
                raise InvalidComplex(f"cell record must be an object, not {spec!r}")
            try:
                cells.append(_cell_from_spec(field, poset, spec))
            except InvalidComplex:
                raise
            except (TypeError, ValueError) as exc:
                raise InvalidComplex(f"malformed cell record {spec.get('id')!r}: {exc}") from None
        return cls(field, poset, cells)

    # -- cell bookkeeping -------------------------------------------------

    def cells_of_dim(self, n: int) -> tuple[Cell, ...]:
        return self._by_dim.get(n, ())

    def ambient_dim(self, n: int) -> int:
        return len(self._by_dim.get(n, ()))

    def all_cells(self):
        for n in sorted(self._by_dim):
            yield from self._by_dim[n]

    def _faces(self, n: int) -> list:
        """Per n-cell, its :meth:`_face_entries`, worked out once for both
        ``validate`` and ``boundary_matrix``."""
        cache = self.memo["faces"]
        faces = cache.get(n)
        if faces is None:
            faces = cache[n] = [self._face_entries(cell) for cell in self.cells_of_dim(n)]
        return faces

    def _face_entries(self, cell: Cell) -> list[tuple[int, object]] | None:
        """(row index, coefficient) pairs of the boundary of one cell; None
        when a face does not resolve, as any face a generic 0-cell lists."""
        f = self.field
        if cell.vertices is not None:
            if cell.dim == 0:
                return []
            verts = sorted(cell.vertices)
            signs = (f.coerce(1), f.neg(f.coerce(1)))
            entries = []
            for i in range(len(verts)):
                face_key = (cell.dim - 1, frozenset(verts[:i] + verts[i + 1 :]))
                row = self._simplex_index.get(face_key)
                if row is None:
                    return None
                entries.append((row, signs[i % 2]))
            return entries
        entries = []
        for fid, coeff in cell.faces:
            row = self._col_index.get(cell.dim - 1, {}).get(fid)
            if row is None:
                return None
            entries.append((row, f.coerce(coeff)))
        return entries

    # -- validation --------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Structural check; returns the (possibly empty) violation list."""
        if self._violations is not None:
            return list(self._violations)
        out: list[Violation] = []
        seen: set[str] = set()
        for cell in self.all_cells():
            if cell.id in seen:
                out.append(Violation("duplicate-id", f"cell id {cell.id!r} appears twice", (cell.id,)))
            seen.add(cell.id)
        structural_ok = not out
        for n in sorted(self._by_dim):
            masks = self.presence_table(n - 1).masks if n else []
            for cell, entries in zip(self._by_dim[n], self._faces(n)):
                if cell.vertices is not None and len(set(cell.vertices)) != n + 1:
                    out.append(
                        Violation(
                            "bad-simplex",
                            f"cell {cell.id!r} needs {n + 1} distinct vertices",
                            (cell.id,),
                        )
                    )
                    structural_ok = False
                    continue
                if entries is None:
                    out.append(
                        Violation("unknown-face", f"cell {cell.id!r} references a missing face", (cell.id,))
                    )
                    structural_ok = False
                    continue
                for row, _ in entries:
                    present = masks[row]
                    for b in cell.births:
                        if not present >> b & 1:
                            face = self._by_dim[n - 1][row]
                            out.append(
                                Violation(
                                    "birth-order",
                                    f"cell {cell.id!r} is born at {self.poset.labels[b]} "
                                    f"before its face {face.id!r}",
                                    (cell.id, face.id),
                                )
                            )
                            break
        if structural_ok:
            for n in sorted(self._by_dim):
                if n >= 1 and (n + 1) in self._by_dim:
                    prod = matmul(self.boundary_matrix(n), self.boundary_matrix(n + 1))
                    if any(prod.rows):
                        out.append(
                            Violation(
                                "boundary-squared",
                                f"boundary composed with boundary is non-zero in degree {n + 1}",
                            )
                        )
        self._violations = out
        return list(out)

    def require_valid(self) -> None:
        bad = self.validate()
        if bad:
            raise InvalidComplex("; ".join(str(v) for v in bad[:3]))

    # -- boundary and presence ----------------------------------------------

    def boundary_matrix(self, n: int) -> Matrix:
        """Boundary in degree n: rows are (n-1)-cells, columns are n-cells."""
        cache = self.memo["boundary"]
        if n in cache:
            return cache[n]
        cols = self.cells_of_dim(n)
        rows = self.ambient_dim(n - 1) if n >= 1 else 0
        entries = []
        for j, (cell, faces) in enumerate(zip(cols, self._faces(n))):
            if faces is None:
                raise InvalidComplex(f"cell {cell.id!r} references a missing face")
            entries.extend([(row, j, coeff) for row, coeff in faces])
        m = cache[n] = Matrix.from_entries(self.field, rows, len(cols), entries)
        return m

    def presence_table(self, n: int) -> PresenceTable:
        """Where the n-cells are present; built once per degree in one pass
        over the elements, or with no pass at all in a degree without cells."""
        table = self.memo["presence_table"].get(n)
        if table is None:
            p = self.poset
            if not self.ambient_dim(n):
                # One class, present nowhere, and every lower cover a twin.
                table = PresenceTable([], [0] * p.n, [0], list(p.lower_covers), [None])
                self.memo["presence_table"][n] = table
                return table
            size, up = p.n, p._up
            masks = [reduce(int.__or__, [up[b] for b in c.births]) for c in self.cells_of_dim(n)]
            # The masks as binary strings, element 0 last: element x's column
            # reads its present cells, cell 0 first, which is its row in
            # binary.  Classes are numbered by their lowest element.
            flat = "".join([format(mask, f"0{size}b") for mask in masks])
            index: dict[str, int] = {}
            classes = [index.setdefault(flat[i::size], len(index)) for i in range(size - 1, -1, -1)]
            members = [0] * len(index)
            for x, c in enumerate(classes):
                members[c] |= 1 << x
            twins = [covers & members[c] for covers, c in zip(p.lower_covers, classes)]
            rows = [int(row, 2) for row in index]
            table = PresenceTable(masks, classes, rows, twins, [None] * len(rows))
            self.memo["presence_table"][n] = table
        return table

    # -- per-point subspaces --------------------------------------------------

    def colimit_cycles(self, n: int) -> Subspace:
        """Kernel of the colimit boundary; the ambient for degree-n subobjects.

        Every cycle and pair memory is cut from it by a support, which is
        exact only when every boundary is a cycle, so a complex that fails
        validation raises :class:`InvalidComplex` here instead.
        """
        cache = self.memo["colimit"]
        sub = cache.get(n)
        if sub is None:
            self.require_valid()
            sub = cache[n] = self.canonical(kernel(self.boundary_matrix(n)))
        return sub

    def canonical(self, sub: Subspace) -> Subspace:
        """The complex's one object equal to ``sub``: ``sub`` itself the
        first time its value is seen.  Pivot tables are canonical, so table
        equality decides a hit.  The key is the ambient dimension, the
        dimension, the sum of the pivots and a probe index, which counts
        past entries of other values with the same sum."""
        cache = self.memo["canon"]
        table = sub.table
        key = (sub.ambient_dim, len(table), sum(table), 0)
        while (hit := cache.get(key)) is not None:
            if hit.table == table:
                return hit
            key = (*key[:3], key[3] + 1)
        cache[key] = sub
        return sub

    def zero(self, n: int) -> Subspace:
        """The zero subspace in degree n: one object, shared by the empty
        presence classes' boundaries and the empty blanket unions."""
        cache = self.memo["zero"]
        sub = cache.get(n)
        if sub is None:
            sub = cache[n] = self.canonical(Subspace.zero(self.field, self.ambient_dim(n)))
        return sub

    def cycles_on_support(self, n: int, keep: int) -> Subspace:
        """Cycles supported on the n-cells of ``keep``, a row of present
        cells as the presence table holds one: the colimit cycles
        restricted to those columns, once per support."""
        cache = self.memo["cycles"]
        key = (n, keep.to_bytes((keep.bit_length() + 7) // 8, "little"))
        sub = cache.get(key)
        if sub is None:
            z = self.colimit_cycles(n)
            sub = restrict(z, keep)
            sub = cache[key] = sub if sub is z else self.canonical(sub)
        return sub

    def cycles_at(self, n: int, x: int) -> Subspace:
        """Cycles present at element index ``x``, in colimit coordinates."""
        table = self.presence_table(n)
        return self.cycles_on_support(n, table.rows[table.classes[x]])

    def boundaries_at(self, n: int, x: int) -> Subspace:
        """Boundaries of (n+1)-cells present at element index ``x``, in
        colimit coordinates: the column space of the boundary on its
        presence class's (n+1)-cells, built once per class."""
        table = self.presence_table(n + 1)
        c = table.classes[x]
        sub = table.boundaries[c]
        if sub is None:
            keep = table.rows[c]
            sub = self.canonical(column_space(mask_columns(self.boundary_matrix(n + 1), keep))) if keep else self.zero(n)
            table.boundaries[c] = sub
        return sub


def _cell_from_spec(field: FieldSpec, poset: FinitePoset, spec: dict) -> Cell:
    try:
        cid = str(spec["id"])
        births_raw = spec["births"]
    except KeyError as exc:
        raise InvalidComplex(f"cell record missing {exc.args[0]!r}") from None
    if not isinstance(births_raw, (list, tuple)) or not births_raw:
        raise InvalidComplex(f"cell {cid!r} needs a non-empty birth list")
    births = tuple(sorted({named_element(poset, b) for b in births_raw}))
    if "vertices" in spec:
        if not isinstance(spec["vertices"], (list, tuple)):
            raise InvalidComplex(f"cell {cid!r} needs a vertex list")
        verts = tuple(str(v) for v in spec["vertices"])
        dim = as_int(spec.get("dim", len(verts) - 1))
        return Cell(cid, dim, births, vertices=verts)
    if "dim" not in spec:
        raise InvalidComplex(f"generic cell {cid!r} needs an explicit dim")
    # Coefficients are checked here so a bad one is a parse error.
    faces = tuple((str(f), field.coerce(c)) for f, c in spec.get("faces", ()))
    return Cell(cid, as_int(spec["dim"]), births, faces=faces)

