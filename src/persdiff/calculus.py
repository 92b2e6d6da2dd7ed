"""Finite-difference calculus on integer commuting squares.

Objects of the arrow category of the integers are plain ints; morphisms
are commuting squares.  Any integer-valued functor out of a carrier with a
monoid action has a canonical derivative ``F(x) - F(x (+) d)`` under the
subtraction action, and its negative under the addition action.  The
blanket-shift action on graded pairs turns the rank of the blanket-union
memory into such a functor; its derivative at (0, 1) is the pair-group
rank.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Iterable

from .complexes import FilteredComplex
from .linalg import Subspace, contains, NotASubspace
from .memory import blanket_union
from .posets import BlanketMode, PairOpen

# Objects of the integer arrow category are the group elements themselves.
GroupObj = int


@dataclass(frozen=True)
class GroupSquare:
    """Commuting square of integers: src + bottom == top + dst."""

    src: int
    dst: int
    top: int
    bottom: int

    def __post_init__(self):
        if self.src + self.bottom != self.top + self.dst:
            raise ValueError(f"square does not commute: {self}")


def arr_zero() -> GroupSquare:
    return GroupSquare(0, 0, 0, 0)


def arr_add(s: GroupSquare, t: GroupSquare) -> GroupSquare:
    return GroupSquare(s.src + t.src, s.dst + t.dst, s.top + t.top, s.bottom + t.bottom)


def arr_sub(s: GroupSquare, t: GroupSquare) -> GroupSquare:
    return GroupSquare(s.src - t.src, s.dst - t.dst, s.top - t.top, s.bottom - t.bottom)


@dataclass(frozen=True)
class ChangeAction:
    """Monoid action presentation: ``act(x, d)``, ``add(d, e)``, unit ``zero``."""

    act: Callable[[Any, Any], Any]
    add: Callable[[Any, Any], Any]
    zero: Any


def integer_subtraction_action() -> ChangeAction:
    """The integers acting on themselves by subtraction."""
    return ChangeAction(act=operator.sub, add=operator.add, zero=0)


def integer_addition_action() -> ChangeAction:
    return ChangeAction(act=operator.add, add=operator.add, zero=0)


def square_subtraction_action() -> ChangeAction:
    """Integer squares acting on themselves by componentwise subtraction."""
    return ChangeAction(act=arr_sub, add=arr_add, zero=arr_zero())


class IntegerFunctor:
    """Functor from a poset-presented category into integer squares.

    Morphisms of the domain are ordered comparable pairs; a morphism maps
    to the inclusion-style square with zero top.
    """

    def __init__(self, on_object: Callable[[Any], int]):
        self.on_object = on_object

    def on_morphism(self, x, y) -> GroupSquare:
        a, b = self.on_object(x), self.on_object(y)
        return GroupSquare(a, b, 0, b - a)


def derivative_obj(F: IntegerFunctor, ca: ChangeAction, x, d) -> GroupObj:
    """Object part of the derivative: F(x) - F(x acted on by d)."""
    return F.on_object(x) - F.on_object(ca.act(x, d))


def derivative_mor(F: IntegerFunctor, ca: ChangeAction, m: tuple, dm: tuple) -> GroupSquare:
    """Morphism part: the square of F(m) minus the square of the shifted m."""
    (x, y), (dx, dy) = m, dm
    return arr_sub(F.on_morphism(x, y), F.on_morphism(ca.act(x, dx), ca.act(y, dy)))


@dataclass
class LawReport:
    """Outcome of sampling one equational law."""

    name: str
    checked: int = 0
    counterexamples: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def message(self) -> str:
        if self.ok:
            return f"ok {self.name}: {self.checked} samples"
        head = self.counterexamples[0]
        return f"FAIL {self.name}: {len(self.counterexamples)}/{self.checked} counterexamples, first {head!r}"


def check_cad1(f, df, dom: ChangeAction, cod: ChangeAction, samples: Iterable[tuple]) -> LawReport:
    """First derivative axiom: f(x (+) y) == f(x) (+) df(x, y)."""
    report = LawReport("cad1")
    for x, y in samples:
        report.checked += 1
        lhs = f(dom.act(x, y))
        rhs = cod.act(f(x), df(x, y))
        if lhs != rhs:
            report.counterexamples.append((x, y, lhs, rhs))
    return report


def check_cad2(f, df, dom: ChangeAction, cod: ChangeAction, samples: Iterable[tuple]) -> LawReport:
    """Second axiom: additivity up to an action in the first slot, unit to zero."""
    report = LawReport("cad2")
    seen = set()
    for x, y, z in samples:
        report.checked += 1
        lhs = df(x, dom.add(y, z))
        rhs = cod.add(df(x, y), df(dom.act(x, y), z))
        if lhs != rhs:
            report.counterexamples.append(("additivity", x, y, z, lhs, rhs))
        if x not in seen:
            seen.add(x)
            report.checked += 1
            if df(x, dom.zero) != cod.zero:
                report.counterexamples.append(("unit", x, df(x, dom.zero)))
    return report


def check_monotone(df, ordered_samples: Iterable[tuple]) -> LawReport:
    """Monotonicity of a derivative on comparable input pairs.

    Samples are ((x, y), (x2, y2)) with the first componentwise below the
    second; a counterexample is a strict decrease of df.
    """
    report = LawReport("derivative-monotone")
    for lo, hi in ordered_samples:
        report.checked += 1
        vlo, vhi = df(*lo), df(*hi)
        if vlo > vhi:
            report.counterexamples.append((lo, hi, vlo, vhi))
    return report


def rank_square(a: Subspace, b: Subspace) -> GroupSquare:
    """Square of an inclusion a <= b: left dim a, right dim b, bottom the quotient rank."""
    if not contains(b, a):
        raise NotASubspace("rank square needs the first operand inside the second")
    return GroupSquare(a.dim, b.dim, 0, b.dim - a.dim)


# -- the blanket-shift instance ------------------------------------------------


def degree_shift_action() -> ChangeAction:
    """Naturals shifting the degree coordinate of a graded pair."""
    return ChangeAction(act=lambda gp, m: gp.shift(m), add=operator.add, zero=0)


def union_rank(
    k: FilteredComplex,
    n: int,
    pair: PairOpen,
    d: int = 0,
    mode: BlanketMode = BlanketMode.FULL,
) -> GroupObj:
    """Dimension of the degree-d blanket union of the pair, in homological
    degree n."""
    return blanket_union(k, n, pair, d, mode).dim


def union_rank_functor(k: FilteredComplex, n: int, mode: BlanketMode = BlanketMode.FULL) -> IntegerFunctor:
    """The blanket-union rank in homological degree n as an integer functor
    on graded pairs, whose degree is the blanket degree."""
    return IntegerFunctor(lambda gp: union_rank(k, n, gp.pair, gp.degree, mode))


def union_rank_derivative(
    k: FilteredComplex,
    n: int,
    pair: PairOpen,
    d: int,
    m: int,
    mode: BlanketMode = BlanketMode.FULL,
) -> GroupObj:
    """Finite difference of the union rank in homological degree n between
    blanket degrees d and d + m."""
    return union_rank(k, n, pair, d, mode) - union_rank(k, n, pair, d + m, mode)


def pair_group_rank(
    k: FilteredComplex,
    n: int,
    pair: PairOpen,
    mode: BlanketMode = BlanketMode.FULL,
) -> int:
    """Multiplicity of the pair in the generalized persistence diagram, in
    homological degree n.

    The derivative of the union rank evaluated at (0, 1); agrees with the
    lifespan quotient rank.
    """
    return union_rank_derivative(k, n, pair, 0, 1, mode)
