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

An open is an int bitmask over element indices (bit i is element i), and
each element's principal up-set and down-set are kept as masks, so subset
tests, closures, minimal elements and covers are bit operations.  Every
memo over opens is keyed by their mask bytes (:attr:`UpSet.key`), next to
ints and bools, so an equal open built anywhere finds the same entry.
Masks are never keys: Python hashes an int to its value mod 2^61 - 1, so
the up-sets 2^n - 2^i of an n-chain share about 61 hashes.

Sparse masks (antichains such as minimal elements, and the points that
covers add) are listed by walking their set bits, highest first, one
step per member (``_set_bits``); only dense member lists, such as whole
up-sets, are read off the mask's binary string (``_indices``).

The order itself is those masks and nothing else.  Grids build both kinds
from axis strides: the lex index of a grade vector g is the sum of
g_a * stride_a, so the elements whose axis-a coordinate lies at or above
(at or below) g_a form one pattern of bits spaced stride_a apart, and an
up-set (down-set) mask is the product of its axis patterns, which never
carries because the patterns occupy disjoint mixed-radix digits.  A grid
element's lower covers are the indices one stride below it on each axis
where its coordinate is positive.  Cover lists build the up-sets by
closure, and an explicit order matrix is read row by row into up-set
masks and checked to be a partial order; their down-sets are the
transpose.  Empty posets, and posets larger than :data:`MAX_ELEMENTS`,
are refused before any mask is built.
"""
from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce
from itertools import product as _iter_product
from typing import Iterable, NamedTuple, Sequence

from .linalg import bit_transpose

# Largest accepted element count: an explicit order matrix has n^2 entries
# to read and check, and a diagram has about n^2 / 2 principal pairs.
MAX_ELEMENTS = 4096
# Largest accepted set of degree-n blankets: the sets grow combinatorially
# with n (on an 8x8 grid, 17,129 pairs at 24 steps and 260,167 at 40), and
# each pair holds two opens.
MAX_BLANKET_PAIRS = 10_000
# Flag bytes 0 and 1 to the binary digits "0" and "1".
_BINARY = bytes.maketrans(b"\0\1", b"01")


class InvalidPoset(ValueError):
    pass


class UnknownElement(KeyError):
    # KeyError's own __str__ would print the message as a quoted repr.
    __str__ = Exception.__str__


class InvalidPair(ValueError):
    """Birth open does not contain the death open."""


class TooManyBlankets(ValueError):
    """A set of iterated blankets grew past :data:`MAX_BLANKET_PAIRS`."""


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


class UpSet:
    """An upward closed subset, stored as an int bitmask over element indices.

    Built from element indices, or from a mask as ``UpSet(bits=mask)``.
    ``key`` is the mask's little-endian bytes: the memo key for the open,
    and what it hashes, which spreads masks the int hash collides.
    """

    __slots__ = ("bits", "key")

    def __init__(self, members: Iterable[int] = (), bits: int = 0):
        for i in members:
            bits |= 1 << i
        self.bits = bits
        self.key = bits.to_bytes((bits.bit_length() + 7) // 8, "little")

    @property
    def members(self) -> frozenset:
        return frozenset(_indices(self.bits))

    def __eq__(self, other):
        return isinstance(other, UpSet) and self.bits == other.bits

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"UpSet(members={self.members!r})"

    @property
    def is_empty(self) -> bool:
        return not self.bits

    def sorted_members(self) -> tuple:
        return tuple(_indices(self.bits))


def _indices(bits: int) -> list[int]:
    """Positions of the set bits of a dense mask, ascending, read off its
    binary string."""
    return [i for i, digit in enumerate(bin(bits)[:1:-1]) if digit == "1"]


def _set_bits(bits: int) -> list[int]:
    """Positions of the set bits of a sparse mask, ascending: one step per
    set bit, so a few members of a wide mask cost a few steps, not a
    scan of every position."""
    out = []
    while bits:
        top = bits.bit_length() - 1
        out.append(top)
        bits ^= 1 << top
    out.reverse()
    return out


# Sorted-member lists compare like these strings: position i is "1" for
# a member and "2" for a non-member below the largest member.
_LEX = str.maketrans("0", "2")


def _lex_key(bits: int) -> str:
    return bin(bits)[:1:-1].translate(_LEX) if bits else ""


EMPTY_OPEN = UpSet()


class PairOpen(NamedTuple):
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


def as_int(x) -> int:
    """``x`` as an int; bools, floats and strings raise ``TypeError``."""
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


class FinitePoset:
    """Labelled finite poset with optional integer grade vectors.

    The order is kept as two masks per element index: bit j of ``_up[i]``
    is set when i <= j, and bit j of ``_down[i]`` when j <= i.  ``leq`` is
    an n x n boolean matrix, as nested sequences or a 2-D array, and must
    be reflexive, antisymmetric and transitive.  When grade vectors are
    present, the order must agree with the coordinatewise product order.
    Immutable after construction.
    """

    def __init__(self, labels: Sequence[str], leq, grades=None):
        labels = tuple(str(l) for l in labels)
        _check_size(len(labels))
        self._setup(labels, _order_masks(leq, len(labels)), grades, check_order=True)

    def _setup(self, labels: tuple | None, up: list[int], grades, down=None, check_order: bool = False) -> None:
        """Finish construction from the up-set masks.  ``check_order`` asks for
        the partial-order checks, which grids and cover closures pass by
        construction.  A grid also passes its down-set masks, built from its
        grade vectors like the up-sets, so its grades need no check, and no
        labels: they are written from the grades on first use."""
        n = len(up)
        if labels is not None:
            if len(set(labels)) != n:
                raise InvalidPoset("duplicate element labels")
            self.labels = labels
        from_grades = down is not None
        if not from_grades:
            # Reversing the rows, and then the columns, turns the low-bit-first
            # up-set masks into the highest-bit-first rows that bit_transpose reads.
            down = bit_transpose(up[::-1], n)[::-1]
        if check_order:
            if not all(up[i] >> i & 1 for i in range(n)):
                raise InvalidPoset("leq is not reflexive")
            if any(up[i] & down[i] != 1 << i for i in range(n)):
                raise InvalidPoset("leq is not antisymmetric")
            # With reflexivity, transitive means each up-set is the union of
            # the up-sets of its members.
            if any(reduce(operator.or_, map(up.__getitem__, _indices(bits))) != bits for bits in up):
                raise InvalidPoset("leq is not transitive")
        self.grades = grades if from_grades else _checked_grades(labels, up, grades)
        self.n = n
        self._up = up
        self._down = down
        self._grade_index = {g: i for i, g in enumerate(self.grades)} if self.grades else {}
        # Whether index order is grade order, as on grids, so that
        # ``diagram_order`` need not sort.
        self.grade_ordered = from_grades
        # Per element index, its principal up-set.
        self.principal = [UpSet(bits=bits) for bits in up]
        # Cover points, blankets and pair blankets: one dict per named layer.
        self.memo: defaultdict[str, dict] = defaultdict(dict)

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
        for cover in covers:
            if isinstance(cover, str):
                raise InvalidPoset(f"cover {cover!r} is not a pair of labels")
            lo, hi = cover
            try:
                i, j = index[str(lo)], index[str(hi)]
            except KeyError as exc:
                raise UnknownElement(f"unknown element {exc.args[0]!r} in covers") from None
            if i != j:
                above[i].add(j)
        p = cls.__new__(cls)
        p._setup(labels, _closure(above), grades)
        return p

    @classmethod
    def grid(cls, shape: Sequence[int]) -> "FinitePoset":
        """Product order on a box of integer grade vectors, lex-ordered."""
        try:
            shape = tuple(as_int(s) for s in shape)
        except TypeError:
            raise InvalidPoset(f"bad grid shape {shape!r}") from None
        if not shape or any(s < 1 for s in shape):
            raise InvalidPoset(f"bad grid shape {shape!r}")
        _check_size(math.prod(shape))
        vectors = tuple(_iter_product(*(range(s) for s in shape)))
        up, down, lower = _grid_masks(shape)
        p = cls.__new__(cls)
        p._setup(None, up, vectors, down)
        p.lower_covers = lower
        return p

    @classmethod
    def chain(cls, length: int) -> "FinitePoset":
        return cls.grid((length,))

    # -- lookups ---------------------------------------------------------

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Per element index, its label: a grid's are its grades, comma-joined.
        Other posets set theirs when they are built."""
        return tuple([",".join(map(str, v)) for v in self.grades])

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def resolve(self, x) -> int:
        """Element index from an index, a label, or a grade vector."""
        if isinstance(x, str):
            if x in self._index:
                return self._index[x]
            raise UnknownElement(f"unknown element label {x!r}")
        if isinstance(x, (tuple, list)):
            key = tuple(as_int(c) for c in x)
            if key in self._grade_index:
                return self._grade_index[key]
            raise UnknownElement(f"no element with grade {key!r}")
        try:
            i = as_int(x)
        except TypeError:
            raise UnknownElement(f"cannot interpret element {x!r}") from None
        if 0 <= i < self.n:
            return i
        raise UnknownElement(f"element index {i} out of range")

    def leq(self, i: int, j: int) -> bool:
        """Whether element index ``i`` lies at or below element index ``j``."""
        return bool(self._up[i] >> j & 1)

    def element_key(self, i: int):
        """Deterministic sort key: the grade vector when present."""
        return self.grades[i] if self.grades else (i,)

    @cached_property
    def lower_covers(self) -> tuple[int, ...]:
        """Per element index, the mask of the elements it covers: the
        maximal elements strictly below it.  ``grid`` sets it from its axis
        strides."""
        return tuple(_extremes(down ^ 1 << i, self._down, False) for i, down in enumerate(self._down))

    def is_chain(self) -> bool:
        everything = (1 << self.n) - 1
        return all(up | down == everything for up, down in zip(self._up, self._down))

    # -- opens -----------------------------------------------------------

    def closure(self, members: Iterable) -> UpSet:
        """Smallest up-set containing the given elements."""
        bits = 0
        for x in members:
            bits |= self._up[self.resolve(x)]
        return UpSet(bits=bits)

    def top(self) -> UpSet:
        return UpSet(bits=(1 << self.n) - 1)


def _check_size(n: int) -> None:
    if n < 1:
        raise InvalidPoset("poset has no elements")
    if n > MAX_ELEMENTS:
        raise InvalidPoset(f"poset has {n} elements; at most {MAX_ELEMENTS} are supported")


def _closure(above: list[set]) -> list[int]:
    """Up-set masks of the reflexive transitive closure of an acyclic relation.

    One pass in reverse topological order: each element's up-set is
    itself plus the union of the up-sets above it.
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
    return up


def _order_masks(leq, n: int) -> list[int]:
    """Rows of an n x n boolean matrix as masks: bit j of row i is ``leq[i][j]``."""
    try:
        rows = [bytes(map(bool, row)) for row in leq]
    except TypeError:
        rows = None
    if rows is None or len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidPoset(f"leq must be {n}x{n}")
    return [int(r[::-1].translate(_BINARY), 2) for r in rows]


def _product_masks(grades: Sequence[tuple], up: bool) -> list[int]:
    """Up-set masks (``up``) or down-set masks of the coordinatewise order on
    equal-length grade vectors: per axis, the elements at or above (at or
    below) each value are a suffix (prefix) union over the sorted values,
    and a mask is the AND over the axes."""
    n = len(grades)
    masks = [(1 << n) - 1] * n
    for axis in range(len(grades[0]) if grades else 0):
        reached: dict[int, int] = {}
        for i, g in enumerate(grades):
            reached[g[axis]] = reached.get(g[axis], 0) | 1 << i
        bits = 0
        for value in sorted(reached, reverse=up):
            reached[value] = bits = bits | reached[value]
        for i, g in enumerate(grades):
            masks[i] &= reached[g[axis]]
    return masks


def _grid_masks(shape: tuple[int, ...]) -> tuple[list[int], list[int], tuple[int, ...]]:
    """Up-set masks, down-set masks and lower-cover masks of the product
    order on a box of the given shape, its elements in lex order.

    On an axis of stride t and size s, the elements at or above value v
    (ignoring the other axes) are the bits w * t for v <= w < s; those at
    or below v the bits w * t for w <= v.  A mask is the product of one
    such pattern per axis: the patterns occupy disjoint mixed-radix
    digits, so the product never carries.  The lower covers of an element
    lie one stride below it on each axis where its coordinate is positive.
    """
    strides = [math.prod(shape[a + 1:]) for a in range(len(shape))]
    up, down = [1], [1]
    for size, t in zip(shape, strides):
        full = sum(1 << w * t for w in range(size))
        above = [full >> v * t << v * t for v in range(size)]
        below = [full & (1 << (v + 1) * t) - 1 for v in range(size)]
        # Lex order: earlier axes vary slowest.
        up = [m * pattern for m in up for pattern in above]
        down = [m * pattern for m in down for pattern in below]
    n = len(up)
    lower = [0] * n
    for size, t in zip(shape, strides):
        # Coordinate v > 0 on this axis: the last size - 1 strides of
        # every block of t * size indices.
        for start in range(t, n, t * size):
            for i in range(start, start + (size - 1) * t):
                lower[i] |= 1 << i - t
    return up, down, tuple(lower)


def _checked_grades(labels: tuple, up: list[int], grades) -> tuple | None:
    """Grade vectors as int tuples, required to give the order ``up``."""
    if grades is None:
        return None
    grades = tuple(tuple(as_int(g) for g in vec) for vec in grades)
    if len(grades) != len(up):
        raise InvalidPoset("one grade vector per element required")
    if len({len(v) for v in grades}) > 1:
        raise InvalidPoset("grade vectors have differing lengths")
    for i, (have, want) in enumerate(zip(up, _product_masks(grades, True))):
        if have != want:
            j = ((have ^ want) & -(have ^ want)).bit_length() - 1
            raise InvalidPoset(f"leq disagrees with the product order at ({labels[i]}, {labels[j]})")
    return grades


def principal_up_set(p: FinitePoset, x) -> UpSet:
    """Smallest up-set containing ``x`` (any form ``resolve`` reads)."""
    return p.principal[p.resolve(x)]


def named_element(p: FinitePoset, x) -> int:
    """Element index of an element named in a document or on the command
    line: a label, a grade vector, or a bare integer, which is the grade
    ``(x,)`` on a graded poset and the label ``str(x)`` on an ungraded one."""
    if not isinstance(x, bool) and hasattr(type(x), "__index__"):
        x = (x,) if p.grades else str(operator.index(x))
    return p.resolve(x)


def _extremes(bits: int, strict_side: list[int], lowest_first: bool) -> int:
    """Minimal elements of a mask (``strict_side`` the up-sets, lowest index
    first) or maximal ones (the down-sets, highest first), as a mask.

    A processed element covers its strict side; covered ones are skipped,
    so on grids and chains only the extremes themselves are processed.
    """
    covered, rest = 0, bits
    while rest:
        one = rest & -rest if lowest_first else 1 << (rest.bit_length() - 1)
        covered |= strict_side[one.bit_length() - 1] ^ one
        rest &= ~(covered | one)
    return bits & ~covered


def min_elements(p: FinitePoset, u: UpSet) -> frozenset:
    """Elements of the open with nothing strictly below them in the open."""
    bits = u.bits
    low = (bits & -bits).bit_length() - 1
    if bits and p._up[low] == bits:
        # A principal up-set: its lowest index is its one minimal element.
        return frozenset((low,))
    return frozenset(_set_bits(_extremes(bits, p._up, True)))


def blankets_of_open(p: FinitePoset, u: UpSet, mode: BlanketMode = BlanketMode.FULL) -> tuple[UpSet, ...]:
    """Blankets (covers) of an open, by size and then sorted members; never
    the open itself.  The tuple is the memoized one."""
    return _covers(p, u, mode)[0]


def cover_points(p: FinitePoset, u: UpSet, mode: BlanketMode = BlanketMode.FULL) -> tuple[int, ...]:
    """Per blanket of the open, in the order of :func:`blankets_of_open`,
    the element it adds (FULL) or is the principal up-set of (PRINCIPAL);
    worked out once per open and mode, without building the blankets."""
    key = (u.key, mode is BlanketMode.FULL)
    cache = p.memo["cover_points"]
    points = cache.get(key)
    if points is None:
        outside = (1 << p.n) - 1 & ~u.bits
        if mode is BlanketMode.FULL:
            # Add one maximal element of the complement: same sizes, and
            # ascending added elements are ascending sorted members.
            points = _set_bits(_extremes(outside, p._down, False))
        else:
            # up(i) contains u iff i lies below every minimal element of u,
            # strictly iff also i is not in u; the smallest come from maximal i.
            below = outside
            for m in _set_bits(_extremes(u.bits, p._up, True)):
                below &= p._down[m]
            tops = _set_bits(_extremes(below, p._down, False))
            points = sorted(tops, key=lambda i: (p._up[i].bit_count(), _lex_key(p._up[i])))
        points = cache[key] = tuple(points)
    return points


def _covers(p: FinitePoset, u: UpSet, mode: BlanketMode) -> tuple[tuple[UpSet, ...], tuple[int, ...]]:
    """The blankets of an open and their points, built once per open and mode."""
    key = (u.key, mode is BlanketMode.FULL)
    cache = p.memo["blankets"]
    hit = cache.get(key)
    if hit is None:
        points = cover_points(p, u, mode)
        if mode is BlanketMode.FULL:
            opens = [UpSet(bits=u.bits | 1 << m) for m in points]
        else:
            opens = [p.principal[i] for i in points]
        hit = cache[key] = (tuple(opens), points)
    return hit


def death_covers(p: FinitePoset, birth: UpSet, death: UpSet, mode: BlanketMode) -> list[tuple[UpSet, int]]:
    """The covers of the death open that give blankets of the pair, each
    with its :func:`cover_points` point, in cover order: those inside the
    birth open that, in PRINCIPAL mode, are not the birth open itself, so
    a principal pair's blankets are strict pairs only."""
    principal = mode is BlanketMode.PRINCIPAL
    return [
        (v, m) for v, m in zip(*_covers(p, death, mode))
        if not v.bits & ~birth.bits and not (principal and v.bits == birth.bits)
    ]


def make_pair(p: FinitePoset, birth: UpSet, death: UpSet) -> PairOpen:
    """Validated pair of nested opens."""
    if death.bits & ~birth.bits:
        raise InvalidPair(
            f"birth open {describe_open(p, birth)} does not contain death open {describe_open(p, death)}"
        )
    return PairOpen(birth, death)


def describe_open(p: FinitePoset, u: UpSet) -> str:
    mins = sorted(min_elements(p, u), key=p.element_key)
    if p.grades:
        inner = ",".join("(" + ",".join(str(c) for c in p.grades[i]) + ")" for i in mins)
    else:
        inner = ",".join(p.labels[i] for i in mins)
    return "{" + inner + "}"


def pair_blankets(p: FinitePoset, x: PairOpen, mode: BlanketMode = BlanketMode.FULL) -> list[PairOpen]:
    """Blankets of a pair: cover one coordinate, keep the other.

    The death-side covers are those of :func:`death_covers`.  Sorted by
    birth members, then death size and death members.

    The list is merged in that order rather than sorted.  Death-side
    blankets share the birth, and ``blankets_of_open`` already lists them
    by size and then members.  A birth-side cover W contains the birth,
    so its sorted members first differ from the birth's at the least
    added element: W sorts before the death-side block exactly when
    min(W \\ birth) < max(birth), and those W form a prefix of the
    birth-side covers in member order.  FULL covers come in that order
    (one element added, ascending); PRINCIPAL ones, listed by size first,
    are re-sorted by members.
    """
    birth, death = x
    key = (birth.key, death.key, mode is BlanketMode.FULL)
    cache = p.memo["pair_blankets"]
    out = cache.get(key)
    if out is None:
        grown = blankets_of_open(p, birth, mode)
        if mode is BlanketMode.PRINCIPAL:
            grown = sorted(grown, key=lambda w: _lex_key(w.bits))
        # The indices below the birth's largest element.
        below_top = (1 << max(birth.bits.bit_length() - 1, 0)) - 1
        cut = 0
        while cut < len(grown) and (grown[cut].bits ^ birth.bits) & below_top:
            cut += 1
        out = [PairOpen(w, death) for w in grown[:cut]]
        out += [PairOpen(birth, v) for v, _ in death_covers(p, birth, death, mode)]
        out += [PairOpen(w, death) for w in grown[cut:]]
        out = cache[key] = tuple(out)
    return list(out)


def degree_blankets(p: FinitePoset, x: PairOpen, n: int, mode: BlanketMode = BlanketMode.FULL) -> frozenset:
    """Pairs reachable by exactly ``n`` blanket steps (degree-n blankets).

    Raises :class:`TooManyBlankets` once a step reaches more than
    :data:`MAX_BLANKET_PAIRS` pairs.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    frontier = frozenset([x])
    for step in range(1, n + 1):
        if not frontier:
            break
        frontier = frozenset([y for w in frontier for y in pair_blankets(p, w, mode)])
        if len(frontier) > MAX_BLANKET_PAIRS:
            raise TooManyBlankets(
                f"{len(frontier)} pairs lie {step} blanket steps from the pair; "
                f"at most {MAX_BLANKET_PAIRS} are supported"
            )
    return frontier


def diagram_order(p: FinitePoset, bits: int) -> list[int]:
    """The elements of a mask in diagram order: by grade (lexicographic),
    else by index."""
    # A sparse mask is walked bit by bit, a dense one read off its string.
    members = _set_bits(bits) if bits.bit_count() << 3 < bits.bit_length() else _indices(bits)
    return sorted(members, key=p.grades.__getitem__) if p.grades and not p.grade_ordered else members


def diagram_pair_count(p: FinitePoset) -> int:
    """How many pairs :func:`enumerate_diagram_pairs` lists, without listing
    them: per birth, the rest of its up-set and the empty death open."""
    return sum([up.bit_count() for up in p._up])


def enumerate_diagram_pairs(p: FinitePoset) -> list[PairOpen]:
    """Principal pairs reported in diagrams: strict pairs plus essentials.

    Births and, for each birth, deaths come in diagram order, with the
    empty death open last for each birth.
    """
    out = []
    for i in diagram_order(p, p.top().bits):
        out += birth_pairs(p, i)
    return out


def birth_pairs(p: FinitePoset, i: int) -> list[PairOpen]:
    """The pairs of :func:`enumerate_diagram_pairs` with birth open up(i),
    in its order: the deaths in diagram order, then the empty open."""
    principal = p.principal
    u = principal[i]
    out = [PairOpen(u, principal[j]) for j in diagram_order(p, u.bits ^ 1 << i)]
    out.append(PairOpen(u, EMPTY_OPEN))
    return out
