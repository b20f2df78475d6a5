from __future__ import annotations

import pytest

from walkup import homology, lemmas, recognition
from walkup.core import PreconditionError, SimplicialComplex, from_facets
from walkup.enumeration import (
    enumerate_neighbourly_9_manifolds,
    enumerate_all_9_manifolds,
    enumerate_two_spheres,
)
from walkup.isomorphism import canonical_form

KNOWN_SPHERE_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14}
# (nodes, completions, isomorph rejections): the closure search visits exactly
# this tree; a search that prunes differently must re-derive it on purpose
KNOWN_SEARCH_TREES = {4: (4, 1, 0), 5: (14, 4, 2), 6: (61, 17, 11), 7: (397, 86, 63), 8: (4330, 518, 385)}


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
        return degs, tuple(sorted(K.edge_degree_histogram().items()))

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


def test_full_census_requires_opt_in():
    with pytest.raises(PreconditionError):
        enumerate_all_9_manifolds()


@pytest.mark.full_census
@pytest.mark.skipif(
    not __import__("os").environ.get("WALKUP_FULL_CENSUS"),
    reason="full census (about a minute); set WALKUP_FULL_CENSUS=1 to run",
)
def test_full_census_restricts_to_neighbourly_census(neighbourly_census):
    full = enumerate_all_9_manifolds(confirm=True)
    assert full.stats == {"nodes": 452257, "completions": 47376, "isomorph_rejections": 45260}
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
    # per labelled copy with some vertex's link pinned to a canonical seed
    from fractions import Fraction

    from walkup.isomorphism import automorphism_group

    observed = full.counts["total"] + full.stats["isomorph_rejections"]
    predicted = sum(
        Fraction(
            sum(automorphism_group(K.link([v])).order for v in K.labels),
            automorphism_group(K).order,
        )
        for K in full.complexes
    )
    assert predicted == observed


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_sphere_census_mass_formula(n):
    """Exhaustiveness cross-check by orbit counting: the number of valid
    n-vertex completions found with the pinned first facet must equal
    sum over classes of f2 * 3! / |Aut|, the number of labelled copies
    carrying {0,1,2} as a facet with vertices in first-use order."""
    from fractions import Fraction

    from walkup.isomorphism import automorphism_group

    result = enumerate_two_spheres(n)
    observed = result.counts["two_sphere"] + result.stats["isomorph_rejections"]
    predicted = sum(
        Fraction((2 * n - 4) * 6, automorphism_group(K).order)
        for K in result.complexes
    )
    assert predicted == observed


@pytest.mark.slow
def test_neighbourly_census_mass_formula(neighbourly_census):
    """Each class must be found once per labelled copy with a pinned canonical
    vertex link: sum over vertices of |Aut(link)| divided by |Aut(M)|."""
    from fractions import Fraction

    from walkup.isomorphism import automorphism_group

    result = neighbourly_census
    observed = result.counts["total"] + result.stats["isomorph_rejections"]
    predicted = Fraction(0)
    for K in result.complexes:
        term = Fraction(
            sum(automorphism_group(K.link([v])).order for v in K.labels),
            automorphism_group(K).order,
        )
        assert term.denominator == 1
        predicted += term
    assert predicted == observed == 639


@pytest.mark.slow
def test_neighbourly_census(k39, neighbourly_census):
    result = neighbourly_census
    assert result.counts == {"total": 51, "sphere": 50, "non_sphere": 1}
    assert result.stats == {"nodes": 171859, "completions": 11981, "isomorph_rejections": 588}
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
def test_neighbourly_census_base_order_invariance(neighbourly_census):
    base = neighbourly_census
    shuffled = enumerate_neighbourly_9_manifolds(label_seed=12345)
    assert shuffled.stats["nodes"] == 98909
    assert base.counts == shuffled.counts
    assert [K.facet_masks for K in base.complexes] == [
        K.facet_masks for K in shuffled.complexes
    ]


@pytest.mark.slow
def test_neighbourly_census_ledger_identity(k39, neighbourly_census):
    """The inclusion-exclusion identity holds for every census member; the
    full 29/28 dichotomy singles out the non-sphere (spheres may have facets
    with several disjoint partners or collapsible complements)."""
    result = neighbourly_census
    dichotomy_passers = []
    for K in result.complexes:
        ledger = lemmas.facet_degree_ledger(K)
        assert ledger.identity_holds
        assert lemmas.degree_equation_check(K).ok
        if ledger.dichotomy_holds and lemmas.verify_complement_dichotomy(K).ok:
            dichotomy_passers.append(K)
    assert [canonical_form(K).bytes for K in dichotomy_passers] == [
        canonical_form(k39).bytes
    ]
