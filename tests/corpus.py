"""Seeded random tame filtrations shared by property and acceptance tests."""
from itertools import combinations

from persdiff.complexes import FilteredComplex
from persdiff.fields import FieldSpec
from persdiff.posets import FinitePoset, PairOpen, UpSet


def random_nested_pairs(rng, p):
    """Two valid pairs of opens, the second containing the first componentwise."""
    birth_in = p.closure(rng.sample(range(p.n), rng.randint(0, p.n)))
    death_in = UpSet(
        birth_in.members & p.closure(rng.sample(range(p.n), rng.randint(0, p.n))).members
    )
    birth_out = UpSet(
        birth_in.members | p.closure(rng.sample(range(p.n), rng.randint(0, 2))).members
    )
    grown = rng.sample(sorted(birth_out.members), min(len(birth_out.members), rng.randint(0, 2)))
    death_out = UpSet(death_in.members | p.closure(grown).members)
    return PairOpen(birth_in, death_in), PairOpen(birth_out, death_out)


def _fresh_grade(rng, shape):
    return tuple(rng.randrange(s) for s in shape)


def _grade_at_least(rng, lo, shape):
    return tuple(rng.randrange(l, s) for l, s in zip(lo, shape))


def _dominating_birth(rng, face_births, shape, bump=0.5):
    # One chosen birth per face; the componentwise max dominates them all.
    chosen = [rng.choice(bs) for bs in face_births]
    lo = tuple(max(c) for c in zip(*chosen))
    if rng.random() < bump:
        lo = _grade_at_least(rng, lo, shape)
    return lo


def random_filtration(
    rng,
    shape=(3, 3),
    field=None,
    max_vertices=7,
    edge_prob=0.5,
    tri_prob=0.5,
    tet_prob=0.3,
    multi_prob=0.15,
    max_cells=30,
):
    """Random multifiltered clique-ish complex on a grid poset.

    Births of higher cells dominate one birth of every face, so the result
    always validates; same-grade births (and hence born-dead classes) are
    common on purpose.
    """
    field = field or FieldSpec.gf(2)
    poset = FinitePoset.grid(shape)
    specs = []
    births: dict[str, list[tuple]] = {}

    def add(cid, verts, face_ids):
        face_births = [births[f] for f in face_ids]
        if face_births:
            first = _dominating_birth(rng, face_births, shape)
        else:
            first = _fresh_grade(rng, shape)
        cell_births = [first]
        if rng.random() < multi_prob:
            second = (
                _dominating_birth(rng, face_births, shape)
                if face_births
                else _fresh_grade(rng, shape)
            )
            if second != first:
                cell_births.append(second)
        births[cid] = cell_births
        specs.append(
            {"id": cid, "vertices": list(verts), "births": [list(b) for b in cell_births]}
        )

    n_vertices = rng.randint(3, max_vertices)
    vernames = [f"v{i}" for i in range(n_vertices)]
    for v in vernames:
        add(v, [v], [])

    edge_set = set()
    for u, v in combinations(vernames, 2):
        if len(specs) >= max_cells:
            break
        if rng.random() < edge_prob:
            add(f"{u}-{v}", [u, v], [u, v])
            edge_set.add(frozenset((u, v)))

    tri_set = set()
    for a, b, c in combinations(vernames, 3):
        if len(specs) >= max_cells:
            break
        needed = {frozenset((a, b)), frozenset((a, c)), frozenset((b, c))}
        if needed <= edge_set and rng.random() < tri_prob:
            add(f"{a}-{b}-{c}", [a, b, c], [f"{a}-{b}", f"{a}-{c}", f"{b}-{c}"])
            tri_set.add(frozenset((a, b, c)))

    for quad in combinations(vernames, 4):
        if len(specs) >= max_cells:
            break
        faces = list(combinations(quad, 3))
        if all(frozenset(t) in tri_set for t in faces) and rng.random() < tet_prob:
            add("-".join(quad), list(quad), ["-".join(t) for t in faces])

    return FilteredComplex.build(field, poset, specs)


def random_chain_filtration(rng, grades=6, field=None, max_cells=25):
    """Random 1-parameter filtration for oracle comparisons."""
    return random_filtration(
        rng,
        shape=(grades,),
        field=field,
        max_vertices=6,
        edge_prob=0.55,
        tri_prob=0.55,
        tet_prob=0.4,
        max_cells=max_cells,
    )


ACCEPTANCE_SHAPES = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)]


def acceptance_corpus(seed=1729, count=200):
    """The shared grid corpus: shapes up to 4x4, GF(2) and GF(5)."""
    import random

    rng = random.Random(seed)
    fields = [FieldSpec.gf(2), FieldSpec.gf(5)]
    out = []
    for i in range(count):
        shape = ACCEPTANCE_SHAPES[i % len(ACCEPTANCE_SHAPES)]
        field = fields[i % 2]
        out.append(random_filtration(rng, shape=shape, field=field))
    return out
