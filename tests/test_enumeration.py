from __future__ import annotations

from itertools import combinations

import pytest

from walkup import homology, lemmas, recognition
from walkup.core import PreconditionError, SimplicialComplex, _iter_bits, from_facets
from walkup.enumeration import (
    _census_task,
    _ClosureSearch,
    _seed_stars,
    enumerate_neighbourly_9_manifolds,
    enumerate_two_spheres,
)
from walkup.isomorphism import canonical_form

KNOWN_SPHERE_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14}
# (nodes, completions, isomorph rejections): the closure search visits exactly
# this tree; a search that prunes differently must re-derive it on purpose
KNOWN_SEARCH_TREES = {
    4: (2, 1, 0), 5: (6, 2, 0), 6: (23, 6, 2), 7: (129, 22, 10), 8: (1042, 100, 60),
}


def _vertex_splits(K: SimplicialComplex):
    """All spheres obtained by splitting one vertex of K (inverse edge
    contraction): the independent generation oracle for the 2-sphere census.

    Every triangulated 2-sphere on n >= 5 vertices arises from one on n-1
    vertices this way, so splitting the full (n-1)-census and deduplicating
    must reproduce the n-census.
    """
    results = []
    for v in K.labels:
        link = K.link([v])
        cycle = [link.labels[0]]
        while len(cycle) < link.vertex_count:
            neighbours = link.link([cycle[-1]]).labels
            cycle.append(
                next(w for w in neighbours if w not in cycle[-2:] and w not in cycle)
            )
        m = len(cycle)
        fresh = "w"
        for i in range(m):
            for j in range(i + 1, m):
                arc_a = cycle[i : j + 1]
                arc_b = cycle[j:] + cycle[: i + 1]
                kept = [f for f in K.facets() if v not in f]
                new = [{v, arc_a[k], arc_a[k + 1]} for k in range(len(arc_a) - 1)]
                new += [{fresh, arc_b[k], arc_b[k + 1]} for k in range(len(arc_b) - 1)]
                new += [{v, fresh, cycle[i]}, {v, fresh, cycle[j]}]
                results.append(from_facets(kept + [set(f) for f in new]))
    return results


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_two_sphere_census_counts(n):
    result = enumerate_two_spheres(n)
    assert result.counts == {"two_sphere": KNOWN_SPHERE_COUNTS[n]}
    nodes, completions, rejections = KNOWN_SEARCH_TREES[n]
    assert result.stats == {
        "nodes": nodes, "completions": completions, "isomorph_rejections": rejections
    }
    for K in result.complexes:
        assert K.vertex_count == n
        assert recognition.is_two_sphere(K)
    digests = [canonical_form(K).bytes for K in result.complexes]
    assert len(set(digests)) == len(digests)
    assert digests == sorted(digests)


def test_two_sphere_census_range():
    with pytest.raises(PreconditionError):
        enumerate_two_spheres(3)
    with pytest.raises(PreconditionError):
        enumerate_two_spheres(9)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_census_agrees_with_splitting_oracle(n):
    previous = enumerate_two_spheres(n - 1).complexes
    generated = set()
    for K in previous:
        for split in _vertex_splits(K):
            assert split.vertex_count == n
            assert recognition.is_two_sphere(split)
            generated.add(canonical_form(split).bytes)
    census = {canonical_form(K).bytes for K in enumerate_two_spheres(n).complexes}
    assert generated == census


def test_eight_vertex_census_distinct_without_canonical_forms():
    """The 14 classes separate by cheap invariants except one pair, which an
    exhaustive permutation search shows non-isomorphic; so the census count
    does not hinge on the canonical-form engine."""
    from itertools import permutations

    census = enumerate_two_spheres(8).complexes

    def invariant(K):
        degs = tuple(sorted(K.degree([v]) for v in K.labels))
        # an edge's degree: the vertices of the union of its facets, less 2
        return degs, tuple(sorted(u.bit_count() - 2 for u in K.stars(2)[1].values()))

    groups: dict[tuple, list[int]] = {}
    for i, K in enumerate(census):
        groups.setdefault(invariant(K), []).append(i)
    ties = [g for g in groups.values() if len(g) > 1]
    assert len(groups) == 13 and ties == [[3, 6]]

    a, b = census[3], census[6]
    target = set(b.facet_masks)
    for perm in permutations(range(8)):
        mapped = set()
        for fm in a.facet_masks:
            m = 0
            for bit in range(8):
                if fm >> bit & 1:
                    m |= 1 << perm[bit]
            mapped.add(m)
        assert mapped != target


def test_seven_vertex_census_matches_catalog(catalog):
    census = {canonical_form(K).bytes for K in enumerate_two_spheres(7).complexes}
    expected = {canonical_form(catalog[f"S{i}"]).bytes for i in range(5, 10)}
    assert census == expected


def test_census_two_spheres_alpha_formula():
    for n in (5, 6, 7, 8):
        for K in enumerate_two_spheres(n).complexes:
            assert lemmas.alpha(K) == lemmas.alpha_formula(n)


def test_closure_search_rejects_a_seal_below_min_seal():
    """The boundary of the 4-simplex on vertices 0..4: its fourth facet through
    vertex 0 closes vertex 0's star with four facets.  With min_seal = 5 that
    facet is refused and the state is left as it was; with 4 it is accepted."""
    facets = (0b01111, 0b10111, 0b11011, 0b11101, 0b11110)
    search = _ClosureSearch(d=3, max_vertices=9)
    search.min_seal = 5
    for f in facets[:3]:
        assert search.try_add(f)
    before = (search.facets, search.present, search.open, search.cn, search.used)
    assert not search.try_add(facets[3])
    assert (search.facets, search.present, search.open, search.cn, search.used) == before
    assert search.degree_prunes == 1

    search = _ClosureSearch(d=3, max_vertices=9)
    search.min_seal = 4
    assert all(search.try_add(f) for f in facets)
    assert search.open == 0 and search.degree_prunes == 0


def _seal_in_suspension(S: SimplicialComplex, anchor: int, sealer: int):
    """The suspension of a 7-vertex 2-sphere S (ids 0..6) with apexes 7 and 8,
    ids `anchor` and 0 swapped: vertex 0's star is pinned, with min_seal 10
    and min_type as the censuses set them, then the star of `sealer` (an id
    before the swap) is added but for its last facet.  Returns the search,
    that facet, which seals `sealer` with 10 facets, and `sealer`'s new id."""
    swap = {0: anchor, anchor: 0}
    facets = [
        sum(1 << swap.get(b, b) for b in _iter_bits(apex | m))
        for apex in (1 << 7, 1 << 8)
        for m in S.facet_masks
    ]
    sealer = swap.get(sealer, sealer)
    search = _ClosureSearch(d=3, max_vertices=9)
    search.pin(f for f in facets if f & 1)
    rest = [f for f in facets if not f & 1 and f >> sealer & 1]
    assert all(search.try_add(f) for f in rest[:-1])
    return search, rest[-1], sealer


def test_closure_search_rejects_a_seal_below_the_anchor_link_type():
    """In the suspension of a 7-vertex 2-sphere, the apexes and the vertices of
    degree 5 all have 10 facets.  An apex whose link has degrees 3445555 seals
    below an anchor whose link is the pentagonal bipyramid (degrees 4444455):
    it is refused, counted in key_prunes, and the state is left as it was.  A
    larger type (the roles swapped) and an equal one are accepted."""
    spheres = {
        tuple(sorted(S.degree([v]) for v in S.labels)): S
        for S in enumerate_two_spheres(7).complexes
    }
    small, bipyramid = spheres[(3, 4, 4, 4, 5, 5, 5)], spheres[(4, 4, 4, 4, 4, 5, 5)]
    five = next(i for i, v in enumerate(small.labels) if small.degree([v]) == 5)

    search, last, b = _seal_in_suspension(small, anchor=five, sealer=7)
    assert search.min_type == (10, (0, 4, 4, 4, 4, 4, 5, 5))
    assert search._link_type(b, search.facets | 1 << last) == (10, (0, 3, 4, 4, 4, 5, 5, 5))
    before = (search.facets, search.present, search.open, search.cn, search.used)
    assert not search.try_add(last)
    assert (search.facets, search.present, search.open, search.cn, search.used) == before
    assert search.key_prunes == 1 and search.degree_prunes == 0

    search, last, b = _seal_in_suspension(small, anchor=7, sealer=five)
    assert search.min_type == (10, (0, 3, 4, 4, 4, 5, 5, 5))
    assert search.try_add(last) and search.key_prunes == 0
    assert search._link_type(b, search.facets) == (10, (0, 4, 4, 4, 4, 4, 5, 5))

    apex = next(i for i, v in enumerate(bipyramid.labels) if bipyramid.degree([v]) == 5)
    search, last, b = _seal_in_suspension(bipyramid, anchor=7, sealer=apex)
    assert search.try_add(last) and search.key_prunes == 0
    assert search._link_type(b, search.facets) == search.min_type


def test_closure_search_refuses_a_pair_link_of_two_triangles():
    """The facets 01ab for the edges ab of two triangles on 234 and 567, the
    path 5-6-7 first, so that the pair {0, 1} stays open until the last one:
    that one would seal it with a disconnected link, so it is refused and the
    state is left as it was.  The same pair sealed with a hexagon is accepted."""

    def star(edges):
        return [0b11 | 1 << a | 1 << b for a, b in edges]

    search = _ClosureSearch(d=3, max_vertices=9)
    two_triangles = star([(5, 6), (6, 7), (2, 3), (3, 4), (2, 4), (5, 7)])
    for f in two_triangles[:5]:
        assert search.try_add(f)
    before = (search.facets, search.present, search.open, search.cn, search.used)
    assert not search.try_add(two_triangles[5])
    assert (search.facets, search.present, search.open, search.cn, search.used) == before

    search = _ClosureSearch(d=3, max_vertices=9)
    assert all(search.try_add(f) for f in star([(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 2)]))
    assert all(r & 0b11 != 0b11 for r in _iter_bits(search.open))


def _ridge_word(search: _ClosureSearch, ridges: int) -> int:
    """The word of a face set of ridges, rebuilt from the ridges alone: one
    n-bit field per (d-1)-face in increasing mask order, n the search's
    vertex bound, with bit v of the field of e set when e + {v} is in the set."""
    n = search.max_vertices
    bases = [m for m in range(1 << n) if m.bit_count() == search.d - 1]
    word = 0
    for ridge in _iter_bits(ridges):
        for x in _iter_bits(ridge):
            word |= 1 << (n * bases.index(ridge ^ (1 << x)) + x)
    return word


def _dead_and_full(search: _ClosureSearch) -> tuple[int, int]:
    """The vertex masks of the dead vertices (sealed, or with 12 facets, n - 1
    in d = 2) and of those with `ridge_cap` ridges, counted from the pool.
    The search keeps only the sealed ones: the ridge cap seals a vertex at
    that facet count, which `_check_state` confirms by comparing the two."""
    vertex_cap = 12 if search.d == 3 else search.max_vertices - 1
    facets = list(_iter_bits(search.facets))
    open_ = list(_iter_bits(search.open))
    present = list(_iter_bits(search.present))
    dead = full = 0
    for b in range(9):
        count = sum(f >> b & 1 for f in facets)
        sealed = count and not any(r >> b & 1 for r in open_)
        if sealed or count == vertex_cap:
            dead |= 1 << b
        if sum(r >> b & 1 for r in present) == search.ridge_cap:
            full |= 1 << b
    return dead, full


def _basic_keeps(search: _ClosureSearch, ridge: int) -> int:
    """The vertices `try_add` may be offered for an open ridge: allowed,
    outside it, not making a present facet, and closing no closed ridge."""
    closed = search.present & ~search.open
    kept = 0
    for v in range(min(search.used + 1, search.max_vertices)):
        fmask = ridge | 1 << v
        if ridge >> v & 1 or search.facets >> fmask & 1 or search.table[fmask][1] & closed:
            continue
        kept |= 1 << v
    return kept


def _filter_keeps(search: _ClosureSearch, ridge: int) -> int:
    """The vertices the per-vertex filter keeps for an open ridge: the basic
    ones that are not dead and add no ridge at a vertex of the ridge that
    has `ridge_cap` ridges."""
    dead, full = _dead_and_full(search)
    kept = 0
    for v in _iter_bits(_basic_keeps(search, ridge) & ~dead):
        fmask = ridge | 1 << v
        ridges = [fmask ^ (1 << x) for x in _iter_bits(fmask)]
        if not any(r & ridge & full for r in ridges if not search.present >> r & 1):
            kept |= 1 << v
    return kept


def _check_state(search: _ClosureSearch) -> None:
    """The bounds the ridge cap implies hold: at most 12 facets at a vertex
    (n - 1 in d = 2), at most 7 at a pair, and, in d = 3, no open ridge in a
    pool of `max_facets` facets.  `cn`, `pw`, `dead` and `rfull` match their
    rebuilds; no open ridge holds a dead vertex; each open ridge's candidate
    mask is what the per-vertex filter keeps, plus possibly the vertex of the
    facet holding the ridge; and `_choose` takes the first ridge with at
    most one candidate, or else the least ridge with fewest."""
    facets = list(_iter_bits(search.facets))
    vertex_cap = 12 if search.d == 3 else search.max_vertices - 1
    assert all(sum(f >> b & 1 for f in facets) <= vertex_cap for b in range(9))
    pairs = [1 << a | 1 << b for a, b in combinations(range(9), 2)]
    assert all(sum(f & p == p for f in facets) <= 7 for p in pairs)
    if search.d == 3 and len(facets) >= search.max_facets:
        assert search.open == 0
    assert search.cn == _ridge_word(search, search.present & ~search.open)
    assert search.pw == _ridge_word(search, search.present)
    assert (search.dead, search.rfull) == _dead_and_full(search)
    allowed = ((1 << min(search.used + 1, search.max_vertices)) - 1) & ~search.dead
    masks = {}
    for ridge in _iter_bits(search.open):
        blocked = ridge
        for s in search.shifts[ridge]:
            blocked |= search.cn >> s
        assert not ridge & search.dead
        mask = allowed & ~blocked
        for y, s in zip(_iter_bits(ridge), search.shifts[ridge]):
            if ridge & ~(1 << y) & search.rfull:
                mask &= search.pw >> s
        (holder,) = [v for v in range(9) if search.facets >> (ridge | 1 << v) & 1]
        assert mask & ~(1 << holder) == _filter_keeps(search, ridge)
        masks[ridge] = mask
    if masks:
        at_most_one = [r for r in sorted(masks) if masks[r].bit_count() <= 1]
        expected = at_most_one[0] if at_most_one else min(masks, key=lambda r: (masks[r].bit_count(), r))
        assert search._choose() == (expected, masks[expected])


def _check_drops(search: _ClosureSearch) -> int:
    """Offer `try_add` every basic vertex the filter drops, on every open
    ridge: each must be refused with the state left as it was.  Returns the
    number of drops."""
    drops = 0
    for ridge in _iter_bits(search.open):
        for v in _iter_bits(_basic_keeps(search, ridge) & ~_filter_keeps(search, ridge)):
            before = (search.facets, search.present, search.open, search.cn, search.pw,
                      search.dead, search.rfull, search.used)
            assert not search.try_add(ridge | 1 << v)
            assert before == (search.facets, search.present, search.open, search.cn, search.pw,
                              search.dead, search.rfull, search.used)
            drops += 1
    return drops


def _seeded_walk(
    search: _ClosureSearch, seed: int, steps: int, check=_check_state
) -> tuple[int, int, int]:
    """Random try_add/undo steps above the initial pool, offering the basic
    vertices, and checking the state after every one; returns the counts of
    accepted, refused and undone adds."""
    import random

    rng = random.Random(seed)
    depth = accepted = refused = undone = 0
    check(search)
    for _ in range(steps):
        full = search.facets.bit_count() >= search.max_facets
        kept = {r: _basic_keeps(search, r) for r in _iter_bits(search.open)} if not full else {}
        choices = [(r, v) for r, k in kept.items() for v in _iter_bits(k)]
        if depth and (not choices or rng.random() < 0.3):
            search.undo()
            depth -= 1
            undone += 1
        elif choices:
            ridge, v = rng.choice(choices)
            if search.try_add(ridge | 1 << v):
                depth += 1
                accepted += 1
            else:
                refused += 1
        check(search)
    return accepted, refused, undone


@pytest.mark.parametrize("seed", [0, 1])
def test_closed_neighbour_word_follows_try_add_and_undo(seed):
    link = enumerate_two_spheres(8).complexes[seed * 7]
    search = _ClosureSearch(d=3, max_vertices=9)
    search.min_seal = 12
    for fm in link.facet_masks:
        assert search.try_add(1 | fm << 1)
    accepted, refused, undone = _seeded_walk(search, seed, 300)
    assert accepted > 30 and refused > 5 and undone > 30

    search = _ClosureSearch(d=2, max_vertices=8)
    assert search.try_add(0b111)
    accepted, refused, undone = _seeded_walk(search, seed, 300)
    assert accepted > 30 and undone > 30


@pytest.mark.parametrize("seed", [0, 1])
def test_filter_drops_only_what_try_add_refuses(seed):
    """On the seeded walks, every vertex the dead-vertex and ridge-cap rules
    take out of a ridge's candidates is refused by `try_add`."""
    drops = []
    link = enumerate_two_spheres(8).complexes[seed * 7]
    search = _ClosureSearch(d=3, max_vertices=9)
    search.min_seal = 12
    for fm in link.facet_masks:
        assert search.try_add(1 | fm << 1)
    _seeded_walk(search, seed, 150, check=lambda s: drops.append(_check_drops(s)))

    search = _ClosureSearch(d=2, max_vertices=8)
    assert search.try_add(0b111)
    _seeded_walk(search, seed, 150, check=lambda s: drops.append(-_check_drops(s)))
    assert sum(d for d in drops if d > 0) > 50 and sum(d for d in drops if d < 0) < -50


def test_facet_budget_cuts_no_branch_in_d3():
    """27 facets on 9 vertices seal every vertex, so in the searches of the
    neighbourly census every node holding `max_facets` facets is a
    completion, a state the seeded walks never reach."""
    full = []

    class Watched(_ClosureSearch):
        def run(self, on_complete):
            if self.facets.bit_count() >= self.max_facets:
                full.append(self.open)
            super().run(on_complete)

    for link in enumerate_two_spheres(8).complexes:
        search = Watched(d=3, max_vertices=9)
        search.pin(1 | fm << 1 for fm in link.facet_masks)
        search.run(lambda s: None)
    assert full and not any(full)


def _link_type(L: SimplicialComplex) -> tuple[int, tuple[int, ...]]:
    """The link type of a vertex of a 9-vertex 3-manifold, from its link L
    alone: L's triangle count and the sorted triangle counts at the vertices
    of L, with a 0 for each of the 8 other vertices off L."""
    degrees = [sum(m >> w & 1 for m in L.facet_masks) for w in range(L.vertex_count)]
    return len(L.facet_masks), tuple(sorted(degrees + [0] * (8 - L.vertex_count)))


def _mass(complexes) -> int:
    """The labelled copies a vertex-anchored census reaches: the sum over
    classes M of |Aut(lk v)| / |Aut(M)| over the vertices v of least link
    type, each term an integer."""
    from fractions import Fraction

    from walkup.isomorphism import automorphism_group

    total = 0
    for K in complexes:
        typed = [(_link_type(L), L) for L in (K.link([v]) for v in K.labels)]
        least = min(t for t, _ in typed)
        term = Fraction(
            sum(automorphism_group(L).order for t, L in typed if t == least),
            automorphism_group(K).order,
        )
        assert term.denominator == 1
        total += int(term)
    return total


@pytest.mark.slow
@pytest.mark.full_census
def test_full_census_restricts_to_neighbourly_census(full_census, neighbourly_census):
    full = full_census
    assert full.stats == {
        "nodes": 118352, "completions": 14536, "isomorph_rejections": 12955,
        "degree_prunes": 9161, "key_prunes": 4520,
    }
    for K in full.complexes:
        assert recognition.is_combinatorial_3_manifold(K)
    neighbourly = {
        canonical_form(K).bytes
        for K in full.complexes
        if recognition.is_neighbourly(K)
    }
    direct = {canonical_form(K).bytes for K in neighbourly_census.complexes}
    assert neighbourly == direct

    # the mass formula extends to the full census: every class is found once
    # per labelled copy with the link of a least-link-type vertex pinned to a
    # canonical seed
    observed = full.counts["total"] + full.stats["isomorph_rejections"]
    assert _mass(full.complexes) == observed == 14252


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_sphere_census_mass_formula(n):
    """Exhaustiveness cross-check by orbit counting: the census pins vertex
    0's link to the cycle 1..k for each least degree k, so the valid n-vertex
    completions must number the sum over classes of (least-degree vertices)
    * 2k / |Aut|: the labelled copies with a least-degree vertex as 0, its
    link cycle as 1..k in one of 2k ways, and the rest in first-use order."""
    from fractions import Fraction

    from walkup.isomorphism import automorphism_group

    result = enumerate_two_spheres(n)
    observed = result.counts["two_sphere"] + result.stats["isomorph_rejections"]
    predicted = 0
    for K in result.complexes:
        degrees = [K.degree([v]) for v in K.labels]
        k = min(degrees)
        predicted += Fraction(degrees.count(k) * 2 * k, automorphism_group(K).order)
    assert predicted == observed == {4: 1, 5: 1, 6: 4, 7: 15, 8: 74}[n]


@pytest.mark.slow
def test_neighbourly_census_mass_formula(neighbourly_census):
    """Each class must be found once per labelled copy with the link of a
    least-link-type vertex pinned to a canonical seed."""
    result = neighbourly_census
    observed = result.counts["total"] + result.stats["isomorph_rejections"]
    assert _mass(result.complexes) == observed == 127


@pytest.mark.slow
def test_neighbourly_census(k39, neighbourly_census):
    result = neighbourly_census
    assert result.counts == {"total": 51, "sphere": 50, "non_sphere": 1}
    assert result.stats == {
        "nodes": 10140, "completions": 127, "isomorph_rejections": 76,
        "degree_prunes": 1685, "key_prunes": 1388,
    }
    non_spheres = [
        K
        for K in result.complexes
        if homology.homology(K) != homology.THREE_SPHERE_PROFILE
    ]
    assert len(non_spheres) == 1
    assert canonical_form(non_spheres[0]).bytes == canonical_form(k39).bytes

    for K in result.complexes:
        assert recognition.is_combinatorial_3_manifold(K)
        assert recognition.is_neighbourly(K)


@pytest.mark.slow
def test_neighbourly_census_worker_pool(neighbourly_census):
    """Two worker processes give the serial census's counts, stats and
    sorted representatives."""
    pooled = enumerate_neighbourly_9_manifolds(threads=2)
    assert pooled.counts == neighbourly_census.counts
    assert pooled.stats == neighbourly_census.stats
    assert pooled.complexes == neighbourly_census.complexes


@pytest.mark.slow
def test_neighbourly_census_base_order_invariance(neighbourly_census):
    base = neighbourly_census
    shuffled = enumerate_neighbourly_9_manifolds(label_seed=12345)
    assert shuffled.stats["nodes"] == 11241
    for key in ("completions", "isomorph_rejections"):
        assert shuffled.stats[key] == base.stats[key]
    assert base.counts == shuffled.counts
    assert [K.facet_masks for K in base.complexes] == [
        K.facet_masks for K in shuffled.complexes
    ]


@pytest.mark.slow
def test_census_labelling_changes_only_the_tree():
    """Task by task, the labelling the neighbourly census pins each 8-vertex
    seed with finds the same classes, completions and isomorph rejections as
    the seed's own labels, and its 14 searches visit fewer nodes in all."""
    seeds = enumerate_two_spheres(8).complexes
    stars = _seed_stars((8,), None)
    assert len(stars) == len(seeds) == 14
    nodes = {"identity": 0, "census": 0}
    for seed, star in zip(seeds, stars):
        # the pinned link is the seed with its labels 0..7 permuted onto 1..8
        link = SimplicialComplex(tuple(sorted(f >> 1 for f in star)), seed.labels)
        assert all(f & 1 and f.bit_count() == 4 for f in star) and len(star) == len(seed.facet_masks)
        assert canonical_form(link).bytes == canonical_form(seed).bytes
        found, stats = _census_task((3, 9, tuple(1 | fm << 1 for fm in seed.facet_masks)))
        pinned_found, pinned_stats = _census_task((3, 9, star))
        assert pinned_found.keys() == found.keys()
        for key in ("completions", "isomorph_rejections"):
            assert pinned_stats[key] == stats[key]
        nodes["identity"] += stats["nodes"]
        nodes["census"] += pinned_stats["nodes"]
    assert nodes["census"] < nodes["identity"] == 21314


@pytest.mark.slow
def test_neighbourly_census_ledger_identity(k39, neighbourly_census):
    """The inclusion-exclusion identity (a facet's six edge degrees sum to 28
    plus the number of facets disjoint from it) holds for every census
    member; the 29/28 dichotomy together with the complement dichotomy
    singles out the non-sphere (spheres may have facets with several disjoint
    partners or collapsible complements)."""
    result = neighbourly_census
    dichotomy_passers = []
    for K in result.complexes:
        assert K.f_vector() == (9, 36, 54, 27)  # 36 edges, 6 * 27 = 162 edge-facet incidences
        for facet in K.facets():
            total = sum(K.degree(e) for e in combinations(facet, 2))
            assert total == 28 + sum(1 for other in K.facets() if facet.isdisjoint(other))
        if (
            lemmas.verify_facet_degree_dichotomy(K).ok
            and lemmas.verify_complement_dichotomy(K).ok
        ):
            dichotomy_passers.append(K)
    assert [canonical_form(K).bytes for K in dichotomy_passers] == [
        canonical_form(k39).bytes
    ]
