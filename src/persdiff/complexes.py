"""Multifiltered chain complexes over a finite poset.

The filtration is stored once as its colimit complex: each cell carries a
set of birth grades, and the complex at a poset point is spanned by the
cells born at or below that point.  Structure maps are inclusions by
construction, so the filtration is monic for free; validation checks that
faces are never born after their cofaces and that the boundary squares to
zero.

Diagrams and verification walk every degree from 0 to the largest cell
dimension, so cells of dimension above :data:`MAX_DIM` are refused when
they are built.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .fields import FieldSpec
from .linalg import (
    Matrix,
    Subspace,
    bit_transpose,
    column_space,
    embed,
    kernel,
    matmul,
    select_columns,
)
from .posets import FinitePoset, as_int

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
    one dict per named layer.  The per-point layer is keyed by degree,
    element index and kind, and reads a presence-class layer keyed by
    degree, kind and the tuple of cells present, so elements with the same
    cells present share one subspace object; the empty classes of a degree
    share its one zero with the empty blanket unions.  The layers over opens in
    :mod:`persdiff.memory` are keyed by the opens' mask bytes
    (``UpSet.key``) next to ints and bools, and its meet and join layers
    by the ``id``s of operand subspaces their entries hold; every other
    key is built from ints and bools.
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

    def _face_entries(self, cell: Cell) -> list[tuple[int, object]] | None:
        """(row index, coefficient) pairs of the boundary of one cell; None
        when a face does not resolve, as any face a generic 0-cell lists."""
        f = self.field
        if cell.vertices is not None:
            if cell.dim == 0:
                return []
            verts = sorted(cell.vertices)
            entries = []
            for i in range(len(verts)):
                face_key = (cell.dim - 1, frozenset(verts[:i] + verts[i + 1 :]))
                row = self._simplex_index.get(face_key)
                if row is None:
                    return None
                entries.append((row, f.coerce(1) if i % 2 == 0 else f.neg(f.coerce(1))))
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
        for cell in self.all_cells():
            if cell.vertices is not None:
                if len(set(cell.vertices)) != cell.dim + 1:
                    out.append(
                        Violation(
                            "bad-simplex",
                            f"cell {cell.id!r} needs {cell.dim + 1} distinct vertices",
                            (cell.id,),
                        )
                    )
                    structural_ok = False
                    continue
            entries = self._face_entries(cell)
            if entries is None:
                out.append(
                    Violation("unknown-face", f"cell {cell.id!r} references a missing face", (cell.id,))
                )
                structural_ok = False
                continue
            for row, _ in entries:
                face = self._by_dim[cell.dim - 1][row]
                present = self._presence(cell.dim - 1)[row]
                for b in cell.births:
                    if not present >> b & 1:
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
        for j, cell in enumerate(cols):
            faces = self._face_entries(cell)
            if faces is None:
                raise InvalidComplex(f"cell {cell.id!r} references a missing face")
            entries.extend([(row, j, coeff) for row, coeff in faces])
        m = cache[n] = Matrix.from_entries(self.field, rows, len(cols), entries)
        return m

    def _presence(self, n: int) -> list[int]:
        """Per n-cell, the mask of the elements at which it is present."""
        masks = self.memo["presence"].get(n)
        if masks is None:
            cells = self.cells_of_dim(n)
            masks = self.memo["presence"][n] = [self.poset.closure(c.births).bits for c in cells]
        return masks

    def cells_present(self, n: int, x) -> tuple[int, ...]:
        """Indices of n-cells with some birth grade at or below ``x``."""
        xi = self.poset.resolve(x)
        return tuple([j for j, mask in enumerate(self._presence(n)) if mask >> xi & 1])

    def presence_twins(self, n: int) -> list[int]:
        """Per element index, the mask of its lower covers at which the same
        n-cells are present.

        Degree-n cycles and degree-(n-1) boundaries at a point depend only
        on which n-cells are present there, so they agree at an element
        and at each of its twins.
        """
        cache = self.memo["twins"]
        twins = cache.get(n)
        if twins is None:
            p = self.poset
            # Per element, the n-cells present there as one int; the
            # transpose lists the highest element first.
            present = bit_transpose(self._presence(n), p.n)[::-1]
            twins = []
            for x, covers in enumerate(p.lower_covers):
                mask = 0
                while covers:
                    w = covers & -covers
                    if present[w.bit_length() - 1] == present[x]:
                        mask |= w
                    covers ^= w
                twins.append(mask)
            cache[n] = twins
        return twins

    # -- per-point subspaces --------------------------------------------------

    def colimit_cycles(self, n: int) -> Subspace:
        """Kernel of the colimit boundary; the ambient for degree-n subobjects."""
        cache = self.memo["colimit"]
        sub = cache.get(n)
        if sub is None:
            sub = cache[n] = kernel(self.boundary_matrix(n))
        return sub

    def zero(self, n: int) -> Subspace:
        """The zero subspace in degree n: one object, shared by the empty
        presence classes and the empty blanket unions."""
        cache = self.memo["zero"]
        sub = cache.get(n)
        if sub is None:
            sub = cache[n] = Subspace.zero(self.field, self.ambient_dim(n))
        return sub

    def cycles_at(self, n: int, x) -> Subspace:
        """Cycles present at a point, in colimit coordinates."""
        return self.point_subspace(n, self.poset.resolve(x), False)

    def boundaries_at(self, n: int, x) -> Subspace:
        """Boundaries of (n+1)-cells present at a point, in colimit coordinates."""
        return self.point_subspace(n, self.poset.resolve(x), True)

    def point_subspace(self, n: int, i: int, boundaries: bool) -> Subspace:
        """Degree-n cycles, or boundaries, present at element index ``i``.

        They depend only on the n-cells (or (n+1)-cells) present there, so
        every element with the same cells present gets the same object.
        """
        cache = self.memo["point"]
        key = (n, i, boundaries)
        sub = cache.get(key)
        if sub is None:
            degree = n + 1 if boundaries else n
            cols = self.cells_present(degree, i)
            shared = self.memo["presence_class"]
            class_key = (n, boundaries, cols)
            sub = shared.get(class_key)
            if sub is None:
                if not cols:
                    sub = self.zero(n)
                elif boundaries:
                    sub = column_space(select_columns(self.boundary_matrix(degree), cols))
                else:
                    sub = embed(kernel(select_columns(self.boundary_matrix(degree), cols)), cols, self.ambient_dim(n))
                shared[class_key] = sub
            cache[key] = sub
        return sub


def _cell_from_spec(field: FieldSpec, poset: FinitePoset, spec: dict) -> Cell:
    try:
        cid = str(spec["id"])
        births_raw = spec["births"]
    except KeyError as exc:
        raise InvalidComplex(f"cell record missing {exc.args[0]!r}") from None
    if not isinstance(births_raw, (list, tuple)) or not births_raw:
        raise InvalidComplex(f"cell {cid!r} needs a non-empty birth list")
    births = tuple(sorted({poset.resolve(b) for b in births_raw}))
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

