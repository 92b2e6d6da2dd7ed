"""Acceptance suite: one test per numbered criterion, zero tolerance.

Each test prints a single CRITERION line, so a verbose run doubles as the
acceptance report.
"""
import json
import random
import time
from collections import Counter
from itertools import product

import pytest

from persdiff.calculus import (
    GroupSquare,
    arr_add,
    arr_sub,
    arr_zero,
    check_cad1,
    check_cad2,
    check_monotone,
    degree_shift_action,
    derivative_obj,
    integer_addition_action,
    integer_subtraction_action,
    pair_group_rank,
    rank_square,
    union_rank_derivative,
    union_rank_functor,
)
from persdiff.cli import main
from persdiff.diagrams import chain_diagram_counter, compute_diagram
from persdiff.linalg import contains, join, meet
from persdiff.memory import blanket_union, boundaries_on_open, cycles_on_open, lifespan_rank
from persdiff.oracle import oracle_barcode
from persdiff.posets import (
    BlanketMode,
    GradedPair,
    enumerate_diagram_pairs,
    make_pair,
    pair_blankets,
    principal_up_set,
)
from persdiff.verify import run_verification

from conftest import build_triangle, corner_grid_poset, offset_grid_poset
from corpus import acceptance_corpus, random_chain_filtration
from test_calculus import plateau_map, translation_by, translation_derivative


def report(number, ok, detail):
    print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus(seed=1729, count=200)


def test_criterion_1_derivative_recovers_lifespan_rank(corpus):
    """pair_group_rank == lifespan_rank on every pair, degree <= 2, exactly."""
    start = time.time()
    mismatches = 0
    checked = 0
    for k in corpus:
        pairs = enumerate_diagram_pairs(k.poset)
        for n in range(3):
            for pair in pairs:
                checked += 1
                if pair_group_rank(k, n, pair) != lifespan_rank(k, n, pair):
                    mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and len(corpus) >= 200 and elapsed < 60.0
    report(
        1,
        ok,
        f"{checked} pair/degree checks on {len(corpus)} filtrations, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_derivative_axioms(corpus):
    """CAD axioms exact on the corpus; the worked scalar fixtures behave."""
    rng = random.Random(271828)
    shift = degree_shift_action()
    cod = integer_subtraction_action()
    bad = 0
    sampled = 0
    for k in corpus:
        pairs = enumerate_diagram_pairs(k.poset)
        degrees = range(min(k.max_dim, 2) + 1) if k.max_dim >= 0 else (0,)
        triples = [
            (
                GradedPair(rng.choice(pairs), rng.choice((0, 0, 1, 2))),
                rng.choice((0, 1, 2)),
                rng.choice((0, 1)),
            )
            for _ in range(50)
        ]
        sampled += len(triples)
        for d in degrees:
            F = union_rank_functor(k, d)
            df = lambda x, m: derivative_obj(F, shift, x, m)
            r1 = check_cad1(F.on_object, df, shift, cod, [(x, m1) for x, m1, _ in triples])
            r2 = check_cad2(F.on_object, df, shift, cod, triples)
            bad += len(r1.counterexamples) + len(r2.counterexamples)

    # Translation by a constant: the second projection is its derivative.
    add = integer_addition_action()
    t_samples = [(a, b) for a in range(8) for b in range(4)]
    t_triples = [(a, b, c) for a in range(6) for b in range(3) for c in range(3)]
    for k_shift in (1, 3):
        f = translation_by(k_shift)
        if not check_cad1(f, translation_derivative, add, add, t_samples).ok:
            bad += 1
        if not check_cad2(f, translation_derivative, add, add, t_triples).ok:
            bad += 1

    # Monotone map with a plateau: axioms hold as plain functions, but the
    # derivative fails monotonicity at the documented witness.
    g = plateau_map(5, 8)
    dg = lambda x, y: g(x + y) - g(x)
    if not check_cad1(g, dg, add, add, [(a, b) for a in range(12) for b in range(3)]).ok:
        bad += 1
    if not check_cad2(g, dg, add, add, t_triples).ok:
        bad += 1
    witness_ok = dg(3, 1) == 1 and dg(4, 1) == 0
    mono = check_monotone(dg, [((3, 1), (4, 1))])
    ok = bad == 0 and witness_ok and not mono.ok
    report(
        2,
        ok,
        f"{sampled} sampled triples, {bad} counterexamples; plateau witness "
        f"dg(3,1)=1 > 0=dg(4,1): {witness_ok}",
    )


def test_criterion_3_oracle_equivalence():
    """Diagram multiplicities equal the reduction oracle on random chains."""
    rng = random.Random(31415)
    mismatched = 0
    count = 100
    for _ in range(count):
        k = random_chain_filtration(rng, grades=rng.randint(2, 6))
        assert k.validate() == []
        expected = Counter(
            {key: m for key, m in oracle_barcode(k).items() if key[0] <= 2}
        )
        got = chain_diagram_counter(k, degrees=range(3))
        if expected != got:
            mismatched += 1
    report(3, mismatched == 0, f"{count} chain filtrations, {mismatched} diagram mismatches")


def test_pruned_assembly_equals_full_enumeration(corpus):
    """Skipping zero-memory pairs changes no multiplicity, in either mode."""
    rng = random.Random(2718)
    chains = [random_chain_filtration(rng, grades=rng.randint(2, 6)) for _ in range(50)]
    for mode in BlanketMode:
        for k in corpus:
            pairs = enumerate_diagram_pairs(k.poset)
            degrees = range(max(k.max_dim, 0) + 1)
            got = [e.multiplicity for e in compute_diagram(k, mode=mode, include_zero=True)]
            want = [pair_group_rank(k, n, pair, mode) for n in degrees for pair in pairs]
            assert got == want
        for k in chains:
            want = Counter()
            for n in range(max(k.max_dim, 0) + 1):
                for pair in enumerate_diagram_pairs(k.poset):
                    mult = pair_group_rank(k, n, pair, mode)
                    if mult:
                        birth = min(pair.birth.members, key=k.poset.element_key)
                        death = min(pair.death.members, key=k.poset.element_key, default=None)
                        want[(n, birth, death)] += mult
            assert chain_diagram_counter(k, mode=mode) == want


def test_criterion_4_triangle_fixture():
    """The filled triangle's barcode from both computation routes."""
    k = build_triangle()
    p = k.poset
    want = {
        (0, 0, 1): 2,
        (0, 0, None): 1,
        (1, 1, 2): 1,
    }
    via_quotient = {}
    via_derivative = {}
    for n in range(3):
        for pair in enumerate_diagram_pairs(p):
            birth = min(pair.birth.members)
            death = None if pair.death.is_empty else min(pair.death.members)
            q = lifespan_rank(k, n, pair)
            d = union_rank_derivative(k, n, pair, 0, 1)
            if q:
                via_quotient[(n, birth, death)] = q
            if d:
                via_derivative[(n, birth, death)] = d
    ok = via_quotient == want and via_derivative == want
    report(4, ok, f"quotient route {via_quotient}, derivative route {via_derivative}")


def test_criterion_5_blanket_examples():
    """The worked plane-grid blanket sets, and the mode gap in the report."""
    corner = corner_grid_poset()
    pair = make_pair(corner, principal_up_set(corner, "r0"), principal_up_set(corner, "r1"))
    got_full = {
        (frozenset(x.birth.members), frozenset(x.death.members))
        for x in pair_blankets(corner, pair, BlanketMode.FULL)
    }
    want_full = {
        (
            frozenset(principal_up_set(corner, b).members),
            frozenset(principal_up_set(corner, d).members),
        )
        for b, d in (("k0", "r1"), ("r0", "k1"), ("k2", "r1"))
    }

    offset = offset_grid_poset()
    pair2 = make_pair(offset, principal_up_set(offset, "x0"), principal_up_set(offset, "x1"))
    got_principal = {
        (frozenset(x.birth.members), frozenset(x.death.members))
        for x in pair_blankets(offset, pair2, BlanketMode.PRINCIPAL)
    }
    want_principal = {
        (
            frozenset(principal_up_set(offset, b).members),
            frozenset(principal_up_set(offset, d).members),
        )
        for b, d in (("y0", "x1"), ("y2", "x1"))
    }

    # The full-lattice covers differ there, and verify documents the gap.
    full_differs = {
        (frozenset(x.birth.members), frozenset(x.death.members))
        for x in pair_blankets(offset, pair2, BlanketMode.FULL)
    } != got_principal
    from persdiff.complexes import FilteredComplex
    from persdiff.fields import FieldSpec

    vk = FilteredComplex.build(FieldSpec.gf(2), offset, [])
    verify_report = run_verification(vk, samples=5, seed=0)
    documented = any("modes disagree" in note for note in verify_report.notes)

    ok = got_full == want_full and got_principal == want_principal and full_differs and documented
    report(
        5,
        ok,
        f"corner-grid full set match: {got_full == want_full}; "
        f"offset-grid principal set match: {got_principal == want_principal}; "
        f"mode gap documented: {documented}",
    )


def test_criterion_6_structural_suites(corpus):
    """Monotonicity, modular law, square functoriality, monoid laws."""
    rng = random.Random(1618)
    failures = []

    for k in corpus[::10]:
        p = k.poset
        degrees = range(max(k.max_dim, 0) + 1)
        # Presheaf monotonicity over sampled nested opens.
        for _ in range(5):
            inner = p.closure(rng.sample(range(p.n), rng.randint(0, p.n // 2)))
            outer = p.closure(sorted(inner.members) + rng.sample(range(p.n), 2))
            n = rng.choice(list(degrees))
            if not contains(cycles_on_open(k, n, inner), cycles_on_open(k, n, outer)):
                failures.append(("presheaf-cycles", k, n))
            if not contains(boundaries_on_open(k, n, inner), boundaries_on_open(k, n, outer)):
                failures.append(("presheaf-boundaries", k, n))
        # Extended functor monotonicity over blanket walks.
        pairs = enumerate_diagram_pairs(p)
        for _ in range(5):
            base = rng.choice(pairs)
            walked = base
            for _ in range(rng.randint(0, 2)):
                options = pair_blankets(p, walked)
                if not options:
                    break
                walked = rng.choice(options)
            m = rng.randint(0, 1)
            n_deg = m + rng.randint(0, 2)
            d = rng.choice(list(degrees))
            if not contains(blanket_union(k, d, base, m), blanket_union(k, d, walked, n_deg)):
                failures.append(("extended-monotonicity", d))
        # Modular law and rank-square functoriality on subspaces drawn from
        # the complex.
        for _ in range(5):
            n = rng.choice(list(degrees))
            xs = rng.sample(range(p.n), min(3, p.n))
            subs = [k.cycles_at(n, x) for x in xs] + [k.boundaries_at(n, x) for x in xs]
            a, b = rng.choice(subs), rng.choice(subs)
            if join(a, b).dim + meet(a, b).dim != a.dim + b.dim:
                failures.append(("modular-law", n))
        x, y = sorted(rng.sample(range(p.n), min(2, p.n)))
        if p.leq(x, y):
            n = rng.choice(list(degrees))
            a, b, c = k.cycles_at(n, x), k.cycles_at(n, y), k.colimit_cycles(n)
            if rank_square(a, c).bottom != rank_square(a, b).bottom + rank_square(b, c).bottom:
                failures.append(("rank-square", n))

    # Monoid and subtraction-action laws on sampled squares.
    def rnd_square():
        a, b, f = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)
        return GroupSquare(a, b, f, f + b - a)

    squares = [rnd_square() for _ in range(12)]
    for s, t, u in product(squares[:5], repeat=3):
        if arr_add(arr_add(s, t), u) != arr_add(s, arr_add(t, u)):
            failures.append(("assoc",))
        if arr_sub(arr_sub(s, u), t) != arr_sub(s, arr_add(t, u)):
            failures.append(("action",))
    for s in squares:
        if arr_add(s, arr_zero()) != s or arr_sub(s, arr_zero()) != s:
            failures.append(("unit",))

    report(6, not failures, f"{len(failures)} failures: {failures[:3]}")


def test_criterion_7_determinism(tmp_path, capsys):
    """Identical seeds give byte-identical JSON and CSV outputs."""
    from pathlib import Path

    data = Path(__file__).parent / "data"
    fixtures = []
    triangle_doc = json.loads((data / "triangle.json").read_text())
    two_param_doc = json.loads((data / "two_param.json").read_text())
    for name, doc in (("triangle", triangle_doc), ("grid", two_param_doc)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        fixtures.append(str(path))

    identical = True
    for path in fixtures:
        for argv in (
            ["diagram", path],
            ["diagram", path, "--csv"],
            ["verify", path, "--samples", "10", "--seed", "9", "--json"],
        ):
            main(argv)
            first = capsys.readouterr().out
            main(argv)
            second = capsys.readouterr().out
            identical = identical and first == second and len(first) > 0
    report(7, identical, f"{len(fixtures) * 3} command invocations compared")
