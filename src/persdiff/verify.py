"""Self-verification: derivative axioms, rank identities, monotonicity.

Runs exact checks against a loaded complex and reports counterexamples.
The rank identity (pair-group rank against lifespan quotient rank) is
checked on every principal pair, walking births in diagram order through
the diagram walk's ``birth_memories``, with one memory per pair for both
blanket modes and one blanket union for both wherever the pair has the
same blankets in both.  That walk is the only one over all the principal
pairs: it asks each pair once whether its modes agree, which also gives
the blanket-mode note.  The other checks are sampled, from pairs drawn out
of a view of the principal pairs that lists only the births drawn.  All
sampling is seeded, so repeated runs are byte-identical.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field

from .calculus import (
    ChangeAction,
    LawReport,
    check_cad1,
    check_cad2,
    degree_shift_action,
    derivative_mor,
    derivative_obj,
    integer_subtraction_action,
    square_subtraction_action,
    union_rank_functor,
)
from .complexes import FilteredComplex
from .linalg import NotASubspace, contains, quotient_dim
from .memory import (
    birth_covers,
    birth_memories,
    blanket_union,
    boundaries_on_open,
    cover_union,
    cycles_on_open,
)
from .oracle import NotAChain, oracle_barcode
from .posets import (
    EMPTY_OPEN,
    BlanketMode,
    GradedPair,
    PairOpen,
    UpSet,
    birth_pairs,
    blankets_of_open,
    death_covers,
    describe_open,
    diagram_order,
    pair_blankets,
)


@dataclass
class VerifyReport:
    results: list[LawReport] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def as_text(self) -> str:
        lines = [r.message() for r in self.results]
        lines += [f"note: {n}" for n in self.notes]
        lines.append("verification " + ("PASSED" if self.ok else "FAILED"))
        return "\n".join(lines) + "\n"

    def as_json(self) -> dict:
        return {
            "format_version": 1,
            "kind": "verification",
            "ok": self.ok,
            "checks": [
                {
                    "name": r.name,
                    "samples": r.checked,
                    "counterexamples": [repr(c) for c in r.counterexamples],
                }
                for r in self.results
            ],
            "notes": list(self.notes),
        }


# The blanket mode of the derivative-axiom and extended-monotonicity checks.
_LAW_MODE = BlanketMode.FULL

# Largest accepted sample count: every sampled check draws lists of that
# many objects, and each costs rank computations.
MAX_SAMPLES = 10_000
# Largest accepted number of rank-identity checks (principal pairs times
# degrees times the two blanket modes).  The checks keep no per-pair memo
# entry and the sampled checks list no more than the births they draw:
# the 3-cell 1,024-chain's 2,099,200 (`verify --samples 10`) take about
# 1.0-1.3 s and 22 MiB on a 2-core VM, so the bound is on run time; the
# 2,048-chain's 8,392,704 are refused.
MAX_RANK_CHECKS = 2_500_000


class TooManyChecks(ValueError):
    """The rank identity would be checked more than :data:`MAX_RANK_CHECKS` times."""


class _DiagramPairs:
    """The pairs of :func:`enumerate_diagram_pairs`, in its order, as a
    sequence that holds no list of them all: ``rng.choice`` reads only its
    length and one index, so a draw picks the pair it picks from the list.
    An index finds its birth by the pair count before each birth.  A
    birth's pairs are listed when the birth is first drawn and kept.
    """

    def __init__(self, p):
        self.p = p
        self.births = diagram_order(p, p.top().bits)
        self.starts = []
        total = 0
        for i in self.births:
            self.starts.append(total)
            total += p._up[i].bit_count()
        self.size = total
        self.drawn = {}

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, j: int) -> PairOpen:
        if not 0 <= j < self.size:
            raise IndexError(j)
        at = bisect_right(self.starts, j) - 1
        pairs = self.drawn.get(at)
        if pairs is None:
            pairs = self.drawn[at] = birth_pairs(self.p, self.births[at])
        return pairs[j - self.starts[at]]


def _sample_graded_pairs(rng, pairs, count):
    return [GradedPair(rng.choice(pairs), rng.choice((0, 0, 1, 2))) for _ in range(count)]


def _blanket_walk(rng, p, pair, steps, mode):
    current = pair
    for _ in range(steps):
        options = pair_blankets(p, current, mode)
        if not options:
            break
        current = rng.choice(options)
    return current


def _blanket_agreement(p):
    """``agree(birth, death)``: whether the pair of opens has the same
    blankets in both modes.  ``_rank_identity`` asks it once per principal
    pair, both to share a union and to count the pairs for the note.

    A birth-side blanket (W, death) never equals a death-side one
    (birth, V), since W strictly contains the birth, so the blanket sets
    agree exactly when the birth open's covers agree and the covers of the
    death open that each mode keeps agree: FULL keeps those inside the
    birth open, PRINCIPAL also drops the birth open itself
    (``death_covers``).  When both modes give the death open the same
    covers, the kept ones differ exactly when the birth open is one of
    them.  Cover sets are compared once per open.

    Covers that agree add the same element in both modes, and come in the
    same order, so a pair with the same blankets has the same blanket
    memories, in the same order, in both modes."""
    cover_sets = {}

    def covers(u):
        full = {v.key for v in blankets_of_open(p, u, BlanketMode.FULL)}
        principal = {v.key for v in blankets_of_open(p, u, BlanketMode.PRINCIPAL)}
        cover_sets[u.key] = hit = (full == principal, full)
        return hit

    def kept(birth, death, mode):
        return {v.key for v, _ in death_covers(p, birth, death, mode)}

    def agree(birth, death):
        both, full = cover_sets.get(birth.key) or covers(birth)
        if not both:
            return False
        both, full = cover_sets.get(death.key) or covers(death)
        if both:
            return birth.key not in full
        return kept(birth, death, BlanketMode.FULL) == kept(birth, death, BlanketMode.PRINCIPAL)

    return agree


def _rank_identity(k: FilteredComplex, degrees: list[int], checks: int) -> tuple[LawReport, tuple]:
    """The pair-group rank against the lifespan quotient rank on every
    principal pair, in every degree and both blanket modes: ``checks``
    checks, walked one birth at a time in diagram order, as a report; and
    how many of the pairs have blankets that differ between the two modes,
    with the first of them (None if there is none).

    Each birth asks ``_blanket_agreement`` once per death, before its
    degrees.  Each pair's memory comes from ``birth_memories``, shared by
    both modes, which skips the pairs whose memory, and so union, is zero.
    The degree-1 union comes from ``cover_union`` over the birth's cover
    state in a mode, built at the birth's first pair that needs it.  A
    pair whose blankets are the same in both modes has the same blanket
    memories in both, so it gets one FULL union and one quotient, and a
    counterexample goes to both modes.  The derivative route is
    ``dim memory - dim union``, the value of ``pair_group_rank``; the
    quotient route is ``quotient_dim(memory, union)``, the value of
    ``lifespan_rank``.  Counterexamples keep the mode, degree, pair order.
    """
    p = k.poset
    principal = p.principal
    agree = _blanket_agreement(p)
    found = {(mode, n): [] for mode in BlanketMode for n in degrees}
    differ, first = 0, None
    for x in diagram_order(p, p.top().bits):
        birth = principal[x]
        deaths = diagram_order(p, birth.bits ^ 1 << x) + [None]
        same = {}
        for y in deaths:
            death = EMPTY_OPEN if y is None else principal[y]
            same[y] = agree(birth, death)
            if not same[y]:
                if not differ:
                    first = PairOpen(birth, death)
                differ += 1
        for n in degrees:
            states = {}
            for y, death, b, memory in birth_memories(k, n, x, deaths):
                for mode in (BlanketMode.FULL,) if same[y] else BlanketMode:
                    if mode not in states:
                        states[mode] = birth_covers(k, n, birth, mode)
                    union = cover_union(k, n, states[mode], death, b)
                    derivative_route = memory.dim - union.dim
                    try:
                        quotient_route = quotient_dim(memory, union)
                    except NotASubspace:
                        # The blanket union escapes the memory: the quotient
                        # has no rank, and the pair is a counterexample.
                        quotient_route = "union-not-in-memory"
                    if derivative_route != quotient_route:
                        row = (n, describe_open(p, birth), describe_open(p, death), derivative_route, quotient_route)
                        for out in BlanketMode if same[y] else (mode,):
                            found[out, n].append((out.value, *row))
    report = LawReport("pair-group-equals-lifespan-rank", checks)
    for mode in BlanketMode:
        for n in degrees:
            report.counterexamples += found[mode, n]
    return report, (differ, first)


def run_verification(
    k: FilteredComplex,
    samples: int = 50,
    seed: int = 0,
    include_oracle: bool = False,
) -> VerifyReport:
    k.require_valid()
    rng = random.Random(seed)
    p = k.poset
    degrees = list(range(max(k.max_dim, 0) + 1))
    pairs = _DiagramPairs(p)
    checks = len(pairs) * len(degrees) * len(BlanketMode)
    if checks > MAX_RANK_CHECKS:
        raise TooManyChecks(
            f"verify would check the rank identity {checks} times; at most {MAX_RANK_CHECKS} are supported"
        )
    report = VerifyReport()

    identity, (differ, first) = _rank_identity(k, degrees, checks)
    report.results.append(identity)

    # Derivative axioms for the union-rank functor, objects and morphisms.
    shift = degree_shift_action()
    int_cod = integer_subtraction_action()
    sq_cod = square_subtraction_action()
    mor_dom = ChangeAction(
        act=lambda m, dm: (shift.act(m[0], dm[0]), shift.act(m[1], dm[1])),
        add=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        zero=(0, 0),
    )
    for d in degrees:
        F = union_rank_functor(k, d, _LAW_MODE)
        objs = _sample_graded_pairs(rng, pairs, samples)
        one_two = [rng.choice((0, 1, 1, 2)) for _ in objs]
        cad1 = check_cad1(
            F.on_object,
            lambda x, m: derivative_obj(F, shift, x, m),
            shift,
            int_cod,
            [(x, m) for x, m in zip(objs, one_two)],
        )
        cad1.name = f"cad1-objects-d{d}"
        report.results.append(cad1)
        triples = [
            (x, rng.choice((0, 1, 2)), rng.choice((0, 1)))
            for x in _sample_graded_pairs(rng, pairs, samples)
        ]
        cad2 = check_cad2(
            F.on_object,
            lambda x, m: derivative_obj(F, shift, x, m),
            shift,
            int_cod,
            triples,
        )
        cad2.name = f"cad2-objects-d{d}"
        report.results.append(cad2)

        # Morphism level: comparable graded pairs via blanket walks.
        morphisms = []
        for _ in range(max(samples // 4, 4)):
            base = rng.choice(pairs)
            upper = _blanket_walk(rng, p, base, rng.choice((0, 1, 2)), _LAW_MODE)
            extra = rng.choice((0, 1))
            m_deg = rng.choice((0, 1))
            lo = GradedPair(upper, m_deg + extra)
            hi = GradedPair(base, m_deg)
            morphisms.append((lo, hi))
        dm_samples = [(rng.choice((1, 2)), rng.choice((0, 1))) for _ in morphisms]
        dm_samples = [(a + b, b) for a, b in dm_samples]  # first shift dominates
        cad1m = check_cad1(
            lambda m: F.on_morphism(*m),
            lambda m, dm: derivative_mor(F, shift, m, dm),
            mor_dom,
            sq_cod,
            list(zip(morphisms, dm_samples)),
        )
        cad1m.name = f"cad1-morphisms-d{d}"
        report.results.append(cad1m)
        cad2m = check_cad2(
            lambda m: F.on_morphism(*m),
            lambda m, dm: derivative_mor(F, shift, m, dm),
            mor_dom,
            sq_cod,
            [
                (m, dm, (rng.choice((0, 1)),) * 2)
                for m, dm in zip(morphisms, dm_samples)
            ],
        )
        cad2m.name = f"cad2-morphisms-d{d}"
        report.results.append(cad2m)

    # Presheaf monotonicity of cycles/boundaries over sampled nested opens.
    presheaf = LawReport("presheaf-monotonicity")
    up = p._up
    for _ in range(samples):
        bits = 0
        for i in rng.sample(range(p.n), rng.randint(0, max(p.n // 2, 1))):
            bits |= up[i]
        inner = UpSet(bits=bits)
        for i in rng.sample(range(p.n), rng.randint(0, min(2, p.n))):
            bits |= up[i]
        outer = UpSet(bits=bits)
        n = rng.choice(degrees)
        for kind, on_open in (("cycles", cycles_on_open), ("boundaries", boundaries_on_open)):
            presheaf.checked += 1
            if not contains(on_open(k, n, inner), on_open(k, n, outer)):
                presheaf.counterexamples.append((kind, n, sorted(outer.members), sorted(inner.members)))
    report.results.append(presheaf)

    # Extended functor monotonicity: union ranks grow along restriction.
    extended = LawReport("extended-functor-monotonicity")
    for _ in range(samples):
        base = rng.choice(pairs)
        m_deg = rng.choice((0, 1))
        steps = rng.choice((0, 1, 2))
        upper = _blanket_walk(rng, p, base, steps, _LAW_MODE)
        n_deg = m_deg + rng.choice((0, 1, 2))
        d = rng.choice(degrees)
        extended.checked += 1
        small = blanket_union(k, d, upper, n_deg, _LAW_MODE)
        big = blanket_union(k, d, base, m_deg, _LAW_MODE)
        if not contains(big, small):
            extended.counterexamples.append((d, describe_open(p, upper.birth), n_deg, describe_open(p, base.birth), m_deg))
    report.results.append(extended)

    # Blanket mode comparison is informational: the two cover notions may
    # disagree away from chains; the rank identity's walk found where.
    if differ:
        report.notes.append(
            f"blanket modes disagree on {differ}/{len(pairs)} enumerated pairs; "
            f"first at ({describe_open(p, first.birth)}, {describe_open(p, first.death)})"
        )
    else:
        report.notes.append("blanket modes agree on all enumerated pairs")

    if include_oracle:
        oracle_check = LawReport("oracle-barcode-agreement")
        try:
            from .diagrams import chain_diagram_counter

            expected = oracle_barcode(k)
            got = chain_diagram_counter(k)
            oracle_check.checked += 1
            if expected != got:
                missing = expected - got
                extra = got - expected
                oracle_check.counterexamples.append(
                    ("missing", dict(missing), "extra", dict(extra))
                )
        except NotAChain:
            report.notes.append("oracle comparison skipped: poset is not a chain")
        else:
            report.results.append(oracle_check)
    return report
