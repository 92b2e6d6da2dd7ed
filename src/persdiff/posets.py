"""Finite posets, their up-set topology, and blanket (cover) enumeration.

Opens are upward closed subsets; pairs of nested opens (birth containing
death) index where homology classes appear and where they get filled in.
A blanket of an open is the next open "one step earlier": a cover in the
inclusion order.  Two cover notions are implemented, selected by
:class:`BlanketMode`:

* ``FULL`` works in the whole up-set lattice; covers add exactly one
  element whose strict up-set already lies inside the open.
* ``PRINCIPAL`` restricts attention to principal up-sets and takes the
  inclusion-minimal principal up-sets strictly containing the open.

The order is a dense n x n boolean matrix, so posets larger than
:data:`MAX_ELEMENTS` are refused before any such matrix is allocated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product as _iter_product
from typing import Iterable, Sequence

import numpy as np

# Largest accepted element count: the order matrix costs n^2 bytes, and the
# transitivity check one n x n boolean product.
MAX_ELEMENTS = 4096
# Rows per block of a boolean product; bounds its float32 scratch.
_PRODUCT_ROWS = 512


class InvalidPoset(ValueError):
    pass


class UnknownElement(KeyError):
    pass


class InvalidPair(ValueError):
    """Birth open does not contain the death open."""


class BlanketMode(Enum):
    FULL = "full"
    PRINCIPAL = "principal"

    @classmethod
    def parse(cls, token: str) -> "BlanketMode":
        t = str(token).strip().lower()
        if t in ("full", "full-lattice"):
            return cls.FULL
        if t in ("principal", "principal-only"):
            return cls.PRINCIPAL
        raise ValueError(f"unknown blanket mode {token!r}")


@dataclass(frozen=True)
class UpSet:
    """An upward closed subset, stored as a frozenset of element indices."""

    members: frozenset

    def __len__(self):
        return len(self.members)

    def __contains__(self, i):
        return i in self.members

    @property
    def is_empty(self) -> bool:
        return not self.members

    def sorted_members(self) -> tuple:
        return tuple(sorted(self.members))


EMPTY_OPEN = UpSet(frozenset())


@dataclass(frozen=True)
class PairOpen:
    """Object of the restriction category of pairs: birth contains death."""

    birth: UpSet
    death: UpSet


@dataclass(frozen=True)
class GradedPair:
    """A pair of opens together with a blanket degree."""

    pair: PairOpen
    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be non-negative")

    def shift(self, m: int) -> "GradedPair":
        return GradedPair(self.pair, self.degree + m)


class FinitePoset:
    """Labelled finite poset with optional integer grade vectors.

    ``leq`` is a reflexive, antisymmetric, transitive boolean matrix over
    element indices.  When grade vectors are present, ``leq`` must agree
    with the coordinatewise product order.  Immutable after construction.
    """

    def __init__(self, labels: Sequence[str], leq, grades=None):
        labels = tuple(str(l) for l in labels)
        n = len(labels)
        _check_size(n)
        leq = np.array(leq, dtype=bool)
        if leq.shape != (n, n):
            raise InvalidPoset(f"leq must be {n}x{n}")
        if len(set(labels)) != n:
            raise InvalidPoset("duplicate element labels")
        if not leq.diagonal().all():
            raise InvalidPoset("leq is not reflexive")
        sym = leq & leq.T
        if np.any(sym & ~np.eye(n, dtype=bool)):
            raise InvalidPoset("leq is not antisymmetric")
        if np.any(_boolean_product(leq) & ~leq):
            raise InvalidPoset("leq is not transitive")
        if grades is not None:
            grades = tuple(tuple(int(g) for g in vec) for vec in grades)
            if len(grades) != n:
                raise InvalidPoset("one grade vector per element required")
            width = {len(v) for v in grades}
            if len(width) > 1:
                raise InvalidPoset("grade vectors have differing lengths")
            bad = np.argwhere(_product_order(grades) != leq)
            if len(bad):
                i, j = bad[0]
                raise InvalidPoset(
                    f"leq disagrees with the product order at ({labels[i]}, {labels[j]})"
                )
        self.labels = labels
        self.grades = grades
        self.n = n
        leq.setflags(write=False)
        self.leq = leq
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._grade_index = {grades[i]: i for i in range(n)} if grades else {}
        self._principal_cache: list[UpSet | None] = [None] * n
        self._blanket_cache: dict = {}
        self._pair_blanket_cache: dict = {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_covers(cls, labels: Sequence[str], covers: Iterable[tuple], grades=None) -> "FinitePoset":
        """Build from covering relations; the order is the transitive closure.

        Covers that form a cycle raise :class:`InvalidPoset`.
        """
        labels = tuple(str(l) for l in labels)
        n = len(labels)
        _check_size(n)
        index = {lab: i for i, lab in enumerate(labels)}
        above: list[set] = [set() for _ in range(n)]
        for lo, hi in covers:
            try:
                i, j = index[str(lo)], index[str(hi)]
            except KeyError as exc:
                raise UnknownElement(f"unknown element {exc.args[0]!r} in covers") from None
            if i != j:
                above[i].add(j)
        return cls(labels, _closure(above), grades=grades)

    @classmethod
    def grid(cls, shape: Sequence[int]) -> "FinitePoset":
        """Product order on a box of integer grade vectors, lex-ordered."""
        try:
            shape = tuple(int(s) for s in shape)
        except (TypeError, ValueError):
            raise InvalidPoset(f"bad grid shape {shape!r}") from None
        if not shape or any(s < 1 for s in shape):
            raise InvalidPoset(f"bad grid shape {shape!r}")
        _check_size(math.prod(shape))
        vectors = list(_iter_product(*(range(s) for s in shape)))
        labels = [",".join(str(c) for c in v) for v in vectors]
        return cls(labels, _product_order(vectors), grades=vectors)

    @classmethod
    def chain(cls, length: int) -> "FinitePoset":
        return cls.grid((length,))

    # -- lookups ---------------------------------------------------------

    def resolve(self, x) -> int:
        """Element index from an index, a label, or a grade vector."""
        if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
            i = int(x)
            if 0 <= i < self.n:
                return i
            raise UnknownElement(f"element index {i} out of range")
        if isinstance(x, str):
            if x in self._index:
                return self._index[x]
            raise UnknownElement(f"unknown element label {x!r}")
        if isinstance(x, (tuple, list)):
            key = tuple(int(c) for c in x)
            if key in self._grade_index:
                return self._grade_index[key]
            raise UnknownElement(f"no element with grade {key!r}")
        raise UnknownElement(f"cannot interpret element {x!r}")

    def element_key(self, i: int):
        """Deterministic sort key: the grade vector when present."""
        return self.grades[i] if self.grades else (i,)

    def is_chain(self) -> bool:
        return bool(np.all(self.leq | self.leq.T))

    def maximal_elements(self) -> tuple[int, ...]:
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        return tuple(i for i in range(self.n) if not strict[i].any())

    # -- opens -----------------------------------------------------------

    def up_set(self, members: Iterable) -> UpSet:
        """Validated up-set from an iterable of elements."""
        idx = frozenset(self.resolve(x) for x in members)
        u = UpSet(idx)
        if not is_up_closed(self, idx):
            raise InvalidPoset(f"{sorted(idx)} is not upward closed")
        return u

    def closure(self, members: Iterable) -> UpSet:
        """Smallest up-set containing the given elements."""
        out: set = set()
        for x in members:
            out.update(np.nonzero(self.leq[self.resolve(x)])[0].tolist())
        return UpSet(frozenset(out))

    def top(self) -> UpSet:
        return UpSet(frozenset(range(self.n)))


def _check_size(n: int) -> None:
    if n > MAX_ELEMENTS:
        raise InvalidPoset(f"poset has {n} elements; at most {MAX_ELEMENTS} are supported")


def _closure(above: list[set]) -> np.ndarray:
    """Reflexive transitive closure of an acyclic relation, as a boolean matrix.

    One pass in reverse topological order: each element's up-set is a
    Python int bitset, itself plus the union of the up-sets above it.
    """
    n = len(above)
    below_count = [0] * n
    for js in above:
        for j in js:
            below_count[j] += 1
    order = [i for i in range(n) if below_count[i] == 0]
    for i in order:
        for j in above[i]:
            below_count[j] -= 1
            if below_count[j] == 0:
                order.append(j)
    if len(order) < n:
        raise InvalidPoset("covers contain a cycle")
    up = [0] * n
    for i in reversed(order):
        bits = 1 << i
        for j in above[i]:
            bits |= up[j]
        up[i] = bits
    nbytes = (n + 7) // 8
    packed = b"".join(bits.to_bytes(nbytes, "little") for bits in up)
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(n, nbytes)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").astype(bool)


def _boolean_product(a: np.ndarray) -> np.ndarray:
    """``a @ a`` over the boolean semiring: is there a two-step path i -> j?

    Path counts are summed in float32 so the product runs in BLAS; numpy's
    own boolean matmul scans every inner product whose answer is false,
    which takes minutes near the size limit.  A count is at most
    n <= MAX_ELEMENTS < 2^24, so float32 holds it exactly and never wraps.
    """
    f = a.astype(np.float32)
    out = np.empty(a.shape, dtype=bool)
    for start in range(0, len(a), _PRODUCT_ROWS):
        np.greater(f[start : start + _PRODUCT_ROWS] @ f, 0, out=out[start : start + _PRODUCT_ROWS])
    return out


def _product_order(grades: Sequence[tuple]) -> np.ndarray:
    """Coordinatewise order of equal-length grade vectors, one axis at a time."""
    n = len(grades)
    width = len(grades[0]) if grades else 0
    try:
        g = np.array(grades, dtype=np.int64).reshape(n, width)
    except OverflowError:
        g = np.array(grades, dtype=object).reshape(n, width)
    leq = np.ones((n, n), dtype=bool)
    for axis in range(width):
        col = g[:, axis]
        leq &= col[:, None] <= col[None, :]
    return leq


def principal_up_set(p: FinitePoset, x) -> UpSet:
    """Smallest up-set containing ``x``."""
    i = p.resolve(x)
    cached = p._principal_cache[i]
    if cached is None:
        cached = UpSet(frozenset(np.nonzero(p.leq[i])[0].tolist()))
        p._principal_cache[i] = cached
    return cached


def is_up_closed(p: FinitePoset, members: Iterable) -> bool:
    s = set(members)
    for i in s:
        if not 0 <= i < p.n:
            raise UnknownElement(f"element index {i} out of range")
        for j in np.nonzero(p.leq[i])[0]:
            if int(j) not in s:
                return False
    return True


def min_elements(p: FinitePoset, u: UpSet) -> frozenset:
    """Elements of the open with nothing strictly below them in the open."""
    idx = np.fromiter(u.members, dtype=np.intp, count=len(u.members))
    below = p.leq[np.ix_(idx, idx)].sum(axis=0)
    return frozenset(idx[below == 1].tolist())


def _sort_opens(p: FinitePoset, opens: Iterable[UpSet]) -> list[UpSet]:
    return sorted(opens, key=lambda u: (len(u.members), u.sorted_members()))


def blankets_of_open(p: FinitePoset, u: UpSet, mode: BlanketMode = BlanketMode.FULL) -> list[UpSet]:
    """Blankets (covers) of an open; never contains the open itself."""
    key = (u.members, mode)
    cached = p._blanket_cache.get(key)
    if cached is not None:
        return list(cached)
    if mode is BlanketMode.FULL:
        out = []
        for m in range(p.n):
            if m not in u.members and principal_up_set(p, m).members - {m} <= u.members:
                out.append(UpSet(u.members | {m}))
    else:
        cands = [
            principal_up_set(p, i)
            for i in range(p.n)
            if u.members < principal_up_set(p, i).members
        ]
        out = [
            c
            for c in cands
            if not any(o.members < c.members for o in cands)
        ]
    out = _sort_opens(p, out)
    p._blanket_cache[key] = tuple(out)
    return out


def make_pair(p: FinitePoset, birth: UpSet, death: UpSet) -> PairOpen:
    """Validated pair of nested opens."""
    if not birth.members >= death.members:
        raise InvalidPair(
            f"birth open {describe_open(p, birth)} does not contain death open {describe_open(p, death)}"
        )
    return PairOpen(birth, death)


def describe_open(p: FinitePoset, u: UpSet) -> str:
    if u.is_empty:
        return "{}"
    mins = sorted(min_elements(p, u), key=p.element_key)
    if p.grades:
        inner = ",".join("(" + ",".join(str(c) for c in p.grades[i]) + ")" for i in mins)
    else:
        inner = ",".join(p.labels[i] for i in mins)
    return "{" + inner + "}"


def _pair_sort_key(p: FinitePoset, x: PairOpen):
    return (x.birth.sorted_members(), len(x.death.members), x.death.sorted_members())


def pair_blankets(p: FinitePoset, x: PairOpen, mode: BlanketMode = BlanketMode.FULL) -> list[PairOpen]:
    """Blankets of a pair: cover one coordinate, keep the other.

    Death-side covers must stay inside the birth open.  In PRINCIPAL mode
    a death-side cover equal to the birth open is dropped, so the blanket
    set of a principal pair consists of strict pairs only.
    """
    key = (x, mode)
    cached = p._pair_blanket_cache.get(key)
    if cached is not None:
        return list(cached)
    out = [PairOpen(w, x.death) for w in blankets_of_open(p, x.birth, mode)]
    for z in blankets_of_open(p, x.death, mode):
        if not z.members <= x.birth.members:
            continue
        if mode is BlanketMode.PRINCIPAL and z == x.birth:
            continue
        out.append(PairOpen(x.birth, z))
    out = sorted(set(out), key=lambda y: _pair_sort_key(p, y))
    p._pair_blanket_cache[key] = tuple(out)
    return out


def degree_blankets(p: FinitePoset, x: PairOpen, n: int, mode: BlanketMode = BlanketMode.FULL) -> frozenset:
    """Pairs reachable by exactly ``n`` blanket steps (degree-n blankets)."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    frontier: frozenset = frozenset([x])
    for _ in range(n):
        if not frontier:
            break
        nxt: set = set()
        for w in frontier:
            nxt.update(pair_blankets(p, w, mode))
        frontier = frozenset(nxt)
    return frontier


def enumerate_diagram_pairs(p: FinitePoset) -> list[PairOpen]:
    """Principal pairs reported in diagrams: strict pairs plus essentials.

    Ordering is deterministic: birth by grade (lexicographic), then death,
    with the empty death open last for each birth.
    """
    order = sorted(range(p.n), key=p.element_key)
    out = []
    for i in order:
        u = principal_up_set(p, i)
        for j in order:
            if i != j and j in u.members:
                out.append(PairOpen(u, principal_up_set(p, j)))
        out.append(PairOpen(u, EMPTY_OPEN))
    return out
