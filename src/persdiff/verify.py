"""Self-verification: derivative axioms, rank identities, monotonicity.

Runs exact checks against a loaded complex and reports counterexamples.
The rank identity (pair-group rank against lifespan quotient rank) is
checked on every principal pair, walking births in diagram order with one
memory per pair for both blanket modes and no per-pair memo entry; the
other checks are sampled.  All sampling is seeded, so repeated runs are
byte-identical.
"""
from __future__ import annotations

import random
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
    _cut,
    _support,
    birth_covers,
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
    blankets_of_open,
    death_covers,
    describe_open,
    diagram_order,
    diagram_pair_count,
    enumerate_diagram_pairs,
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
# entry, but the sampled checks list every principal pair: the 3-cell
# 1,024-chain's 2,099,200 (`verify --samples 10`) take about 2 s and
# 56 MiB on a 2-core VM, and the 2,048-chain's 8,392,704 are refused.
MAX_RANK_CHECKS = 2_500_000


class TooManyChecks(ValueError):
    """The rank identity would be checked more than :data:`MAX_RANK_CHECKS` times."""


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


def _blanket_mode_disagreements(p, pairs) -> list:
    """The pairs whose blankets differ between the two modes.

    A birth-side blanket (W, death) never equals a death-side one
    (birth, V), since W strictly contains the birth, so the blanket sets
    agree exactly when the birth open's covers agree and the covers of the
    death open that each mode keeps agree: FULL keeps those inside the
    birth open, PRINCIPAL also drops the birth open itself
    (``death_covers``).  When both modes give the death open the same
    covers, the kept ones differ exactly when the birth open is one of
    them.  Cover sets are compared once per open."""
    same = {}

    def covers(u):
        hit = same.get(u.key)
        if hit is None:
            full = {v.key for v in blankets_of_open(p, u, BlanketMode.FULL)}
            principal = {v.key for v in blankets_of_open(p, u, BlanketMode.PRINCIPAL)}
            hit = same[u.key] = (full == principal, full)
        return hit

    def kept(pair, mode):
        return {v.key for v, _ in death_covers(p, pair.birth, pair.death, mode)}

    differ = []
    for x in pairs:
        if not covers(x.birth)[0]:
            differ.append(x)
            continue
        agree, full = covers(x.death)
        if (x.birth.key in full) if agree else (kept(x, BlanketMode.FULL) != kept(x, BlanketMode.PRINCIPAL)):
            differ.append(x)
    return differ


def _rank_identity(k: FilteredComplex, degrees: list[int], checks: int) -> LawReport:
    """The pair-group rank against the lifespan quotient rank on every
    principal pair, in every degree and both blanket modes: ``checks``
    checks, walked one birth at a time in diagram order.

    A pair's memory is cut from the birth's support and cycles by the
    death's boundaries and shared by both modes; a zero memory has a zero
    union, and a birth without cycles has only zero memories.  Otherwise
    each mode's degree-1 union comes from ``cover_union`` over the birth's
    cover state, built once per mode.  The derivative route is
    ``dim memory - dim union``, the value of ``pair_group_rank``; the
    quotient route is ``quotient_dim(memory, union)``, the value of
    ``lifespan_rank``.  Counterexamples keep the mode, degree, pair order.
    """
    p = k.poset
    principal = p.principal
    found = {(mode, n): [] for mode in BlanketMode for n in degrees}
    for x in diagram_order(p, p.top().bits):
        birth = principal[x]
        deaths = diagram_order(p, birth.bits ^ 1 << x) + [None]
        for n in degrees:
            keep, z = _support(k, n, birth)
            if not z.dim:
                continue
            modes = [(mode, birth_covers(k, n, birth, mode), found[mode, n]) for mode in BlanketMode]
            for y in deaths:
                if y is None:
                    death, b, memory = EMPTY_OPEN, None, z
                else:
                    death, b = principal[y], k.boundaries_at(n, y)
                    memory = _cut(k, z, b, keep)
                if not memory.dim:
                    continue
                for mode, covers, out in modes:
                    union = cover_union(k, n, covers, death, b)
                    derivative_route = memory.dim - union.dim
                    try:
                        quotient_route = quotient_dim(memory, union)
                    except NotASubspace:
                        # The blanket union escapes the memory: the quotient
                        # has no rank, and the pair is a counterexample.
                        quotient_route = "union-not-in-memory"
                    if derivative_route != quotient_route:
                        out.append(
                            (
                                mode.value,
                                n,
                                describe_open(p, birth),
                                describe_open(p, death),
                                derivative_route,
                                quotient_route,
                            )
                        )
    report = LawReport("pair-group-equals-lifespan-rank", checks)
    for mode in BlanketMode:
        for n in degrees:
            report.counterexamples += found[mode, n]
    return report


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
    checks = diagram_pair_count(p) * len(degrees) * len(BlanketMode)
    if checks > MAX_RANK_CHECKS:
        raise TooManyChecks(
            f"verify would check the rank identity {checks} times; at most {MAX_RANK_CHECKS} are supported"
        )
    report = VerifyReport()
    pairs = enumerate_diagram_pairs(p)

    report.results.append(_rank_identity(k, degrees, checks))

    # Derivative axioms for the union-rank functor, objects and morphisms.
    shift = degree_shift_action()
    int_cod = integer_subtraction_action()
    sq_cod = square_subtraction_action()
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
        mor_dom = ChangeAction(
            act=lambda m, dm: (shift.act(m[0], dm[0]), shift.act(m[1], dm[1])),
            add=lambda a, b: (a[0] + b[0], a[1] + b[1]),
            zero=(0, 0),
        )
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
    for _ in range(samples):
        inner = p.closure(rng.sample(range(p.n), rng.randint(0, max(p.n // 2, 1))))
        extra = rng.sample(range(p.n), rng.randint(0, min(2, p.n)))
        outer = p.closure(sorted(inner.members) + extra)
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
    # disagree away from chains; report where.
    differ = _blanket_mode_disagreements(p, pairs)
    if differ:
        first = differ[0]
        report.notes.append(
            f"blanket modes disagree on {len(differ)}/{len(pairs)} enumerated pairs; "
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
