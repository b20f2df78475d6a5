from __future__ import annotations

import random
import re
from collections import Counter
from itertools import combinations

import pytest

from walkup import bistellar, constructions, lemmas
from walkup.core import PreconditionError, _label_key, from_facets
from walkup.isomorphism import automorphism_group, normalize_object
from walkup.lemmas import (
    GoodVertex,
    alpha,
    alpha_formula,
    candidate_graph,
    coclique_case_check,
    coclique_census,
    good_vertices,
    load_coclique_cases,
    verify_complement_dichotomy,
    verify_disjoint_facet_links,
    verify_facet_degree_dichotomy,
    verify_good_vertex_links,
)


def test_candidate_graph_five_vertices(catalog):
    graph = candidate_graph(catalog["S2"])
    assert graph.node_count == 3
    expected = {
        frozenset({"x", "y", "a", "b"}),
        frozenset({"x", "y", "a", "c"}),
        frozenset({"x", "y", "b", "c"}),
    }
    assert set(graph.nodes) == expected
    assert all(not neigh for neigh in graph.adjacency)  # pairwise non-adjacent


def test_candidate_graph_matches_published_nodes(catalog):
    """The shipped node tables pin down the catalog labelings exactly."""
    cases = load_coclique_cases()
    for name in ("S3", "S5", "S6", "S7", "S8", "S9"):
        graph = candidate_graph(catalog[name])
        published = {
            frozenset(v) for v in cases[name]["nodes"].values()
        }
        assert set(graph.nodes) == published, name


def test_candidate_graph_needs_a_sphere(torus7):
    with pytest.raises(PreconditionError):
        candidate_graph(torus7)


def test_census_vertex_range(catalog):
    with pytest.raises(PreconditionError):
        coclique_census(catalog["S1"])  # four vertices
    with pytest.raises(PreconditionError):
        coclique_census(catalog["calS"])  # eight vertices


def test_alpha_values(catalog):
    assert alpha(catalog["S2"]) == 3 == alpha_formula(5)
    assert alpha(catalog["S3"]) == 12 == alpha_formula(6)
    assert alpha(catalog["S4"]) == 12
    for name in ("S5", "S6", "S7", "S8", "S9"):
        assert alpha(catalog[name]) == 25
    assert alpha(catalog["calS"]) == alpha_formula(8) == 42
    with pytest.raises(PreconditionError):
        alpha(constructions.standard_sphere(2))
    with pytest.raises(PreconditionError):
        alpha_formula(4)


def test_alpha_flip_invariance(catalog):
    rng = random.Random(8)
    for name in ("S2", "S4", "S7", "calT"):
        K = catalog[name]
        value = alpha(K)
        for _ in range(25):
            moves = bistellar.proper_moves(K)
            K = bistellar.apply_move(K, rng.choice(moves))
            assert alpha(K) == value


def test_census_orbit_sizes_divide_group_order(catalog):
    from walkup.isomorphism import orbits

    for name in ("S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9"):
        X = catalog[name]
        group = automorphism_group(X)
        census = coclique_census(X)
        for fams in census.by_size.values():
            for orb in orbits(group, fams):
                assert group.order % len(orb.members) == 0


def test_census_counts_published_and_actual(catalog):
    """Covering maximal-coclique orbit counts per size.

    The published S5 and S9 lists each repeat one orbit (C2/C3 and C6/C7
    are equivalent under the published automorphism groups), so the actual
    counts fall short of the published ones by exactly one.
    """
    actual = {
        "S3": {5: 2, 6: 3, 7: 1},
        "S4": {4: 2},
        "S5": {5: 3, 6: 10},
        "S6": {5: 1, 6: 11},
        "S7": {5: 0, 6: 3},
        "S8": {5: 0, 6: 10},
        "S9": {5: 0, 6: 12},
    }
    for name, expected in actual.items():
        census = coclique_census(catalog[name])
        for size, count in expected.items():
            assert census.covering_orbit_count(size) == count, (name, size)


def test_published_duplicates_are_orbit_equivalent(catalog):
    cases = load_coclique_cases()
    duplicates = [
        ("S5", ("C2", "C3"), {"1": "3", "3": "1", "4": "5", "5": "4"}),  # (1 3)(4 5)
        ("S9", ("C6", "C7"), {"2": "3", "3": "2", "5": "6", "6": "5"}),  # (2 3)(5 6)
    ]
    for name, (first, second), witness in duplicates:
        spec = cases[name]
        group = automorphism_group(catalog[name])
        rep_a = lemmas.orbits(group, [normalize_object(spec["cases"][first])])[0].representative
        rep_b = lemmas.orbits(group, [normalize_object(spec["cases"][second])])[0].representative
        assert rep_a == rep_b, name

        # the explicit witness, by plain set mapping, independent of automorphism_group
        image = lambda sets: {frozenset(witness.get(v, v) for v in s) for s in sets}  # noqa: E731
        facets = set(catalog[name].facets())
        assert image(facets) == facets, name
        assert image(spec["cases"][first]) == {frozenset(s) for s in spec["cases"][second]}, name


def test_case_checks_clean_spheres():
    for name in ("S2", "S3", "S4", "S6", "S7", "S8"):
        report = coclique_case_check(name)
        assert report.ok, (name, report.violations)


def test_case_checks_report_published_miscounts():
    for name, dup in [("S5", ["C2", "C3"]), ("S9", ["C6", "C7"])]:
        report = coclique_case_check(name)
        assert not report.ok
        assert report.facts["duplicate_published_cases"] == [dup]
        assert len(report.violations) == 1
        assert "lie in one orbit" in report.violations[0]


def test_s2_unique_global_coclique(catalog):
    census = coclique_census(catalog["S2"])
    families = [f for fams in census.by_size.values() for f in fams]
    assert len(families) == 1
    assert families[0] == normalize_object(
        [["x", "y", "a", "b"], ["x", "y", "a", "c"], ["x", "y", "b", "c"]]
    )


def test_facet_degree_ledger(k39):
    """18 facets of k39 have one disjoint partner and sum 29, the other 9
    none and sum 28.  A neighbourly sphere breaks the dichotomy, and each
    violation still obeys the identity sum = 28 + partners."""
    report = verify_facet_degree_dichotomy(k39)
    assert report.ok and report.violations == ()
    assert report.facts == {"facets_with_partner": 18, "facets_without_partner": 9}

    sphere, _ = bistellar.neighbourly_reduction(bistellar.random_three_sphere(0))
    report = verify_facet_degree_dichotomy(sphere)
    assert not report.ok
    assert report.facts == {"facets_with_partner": 11, "facets_without_partner": 2}
    assert len(report.violations) == 14
    for v in report.violations:
        total, partners = map(int, re.fullmatch(
            r"facet [0-9,]+: sum (\d+), (\d+) disjoint partners", v
        ).groups())
        assert total == 28 + partners and partners > 1


def test_degree_equations(k39):
    """k39's edge degrees: 36 edges, 6 * 27 = 162 edge-facet incidences."""
    hist = Counter(u.bit_count() - 2 for u in k39.stars(2)[1].values())
    assert hist == {3: 9, 4: 9, 5: 9, 6: 9}
    assert sum(hist.values()) == 36 == k39.f_vector()[1]
    assert sum(d * c for d, c in hist.items()) == 162 == 6 * k39.f_vector()[3]


def test_all_28_ledger_arithmetic():
    """If every facet's edge-degree sum were 28 (no disjoint pairs) and all
    edge degrees were 3, 4 or 5, the counting equations
        e3 + e4 + e5 = 36,  3 e3 + 4 e4 + 5 e5 = 162,  3 e3 + 4 e4 = 27
    would force the histogram (e3, e4, e5) = (9, 0, 27)."""
    from fractions import Fraction

    rows = [
        ([1, 1, 1], 36),
        ([3, 4, 5], 162),
        ([3, 4, 0], 27),
    ]
    mat = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in rows]
    for c in range(3):
        pivot = next(r for r in range(c, 3) if mat[r][c])
        mat[c], mat[pivot] = mat[pivot], mat[c]
        mat[c] = [x / mat[c][c] for x in mat[c]]
        for r in range(3):
            if r != c and mat[r][c]:
                mat[r] = [a - mat[r][c] * b for a, b in zip(mat[r], mat[c])]
    assert [row[3] for row in mat] == [9, 0, 27]


def test_ledger_preconditions(m10, c37):
    with pytest.raises(PreconditionError):
        verify_facet_degree_dichotomy(m10)  # ten vertices
    with pytest.raises(PreconditionError):
        verify_facet_degree_dichotomy(c37)  # seven vertices


def test_complement_dichotomy(k39):
    report = verify_complement_dichotomy(k39)
    assert report.ok
    assert report.facts["fvector_counts"] == {
        "(5, 10, 7, 1)": 18,
        "(5, 10, 6, 0)": 9,
    }


def test_disjoint_facet_links(k39):
    report = verify_disjoint_facet_links(k39)
    assert report.ok
    assert report.facts["disjoint_pairs"] == 9


def test_disjoint_facet_links_failure_modes(k39):
    # swapping one facet destroys pseudomanifoldness, so the doctored complex
    # trips the precondition rather than reaching the link check
    facets = k39.facets()
    removed = frozenset({"1", "2", "4", "5"})
    replaced = frozenset({"1", "2", "4", "6"})
    doctored = from_facets([f for f in facets if f != removed] + [replaced])
    with pytest.raises(PreconditionError):
        verify_disjoint_facet_links(doctored)

    # a genuine neighbourly 9-vertex sphere can violate the conclusion, and
    # the report names the offending pairs
    sphere, _ = bistellar.neighbourly_reduction(bistellar.random_three_sphere(0))
    report = verify_disjoint_facet_links(sphere)
    assert not report.ok
    assert any("is not a triangle plus a vertex" in v for v in report.violations)


def test_good_vertices(k39):
    goods = good_vertices(k39)
    assert [g.vertex for g in goods] == [str(i) for i in range(1, 10)]
    assert sum(len(g.partitions) for g in goods) == 9
    for g in goods:
        for sigma1, sigma2 in g.partitions:
            assert sigma1.isdisjoint(sigma2)
            assert sigma1 | sigma2 | {g.vertex} == set(k39.labels)


def _reference_disjoint_facet_links(K):
    """Lemma 4.2's report and the good vertices on frozensets: the pairs by
    set disjointness in facet order, the leftover vertex by set difference,
    and the induced link on sigma as the maximal non-empty sets among
    (f - {x}) & sigma over the facets f through x."""
    facets = K.facets()
    violations, by_vertex, pairs = [], {}, 0
    for i, sigma1 in enumerate(facets):
        for sigma2 in facets[i + 1 :]:
            if sigma1 & sigma2:
                continue
            pairs += 1
            (x,) = set(K.labels) - sigma1 - sigma2
            by_vertex.setdefault(x, []).append((sigma1, sigma2))
            for sigma in (sigma1, sigma2):
                cut = {(f - {x}) & sigma for f in facets if x in f}
                induced = {a for a in cut if a and not any(a < b for b in cut)}
                edges = {a for a in induced if len(a) == 2}
                points = [a for a in induced if len(a) == 1]
                rim = frozenset().union(*edges)
                triangle = {frozenset(e) for e in combinations(rim, 2)}
                if not (
                    len(rim) == 3 and edges == triangle and len(points) == 1
                    and not points[0] & rim and len(induced) == 4
                ):
                    label = ",".join(sorted(sigma, key=_label_key))
                    violations.append(
                        f"lk({x}) induced on {label} is not a triangle plus a vertex"
                    )
    report = {
        "name": "lemma4.2",
        "ok": not violations,
        "facts": {"disjoint_pairs": pairs},
        "violations": violations,
    }
    goods = [GoodVertex(v, tuple(by_vertex[v])) for v in sorted(by_vertex, key=_label_key)]
    return report, goods


def test_disjoint_facet_links_match_the_frozenset_reference(k39, kernel_pool):
    """Lemma 4.2 and `good_vertices` read the disjoint facet pairs and the
    induced links off masks; a plain set computation gives the same reports,
    violations in order, and the same good vertices."""
    pool = [k39] + [K for name, K in kernel_pool if name.startswith("reduced9:")]
    assert len(pool) == 21
    failing = 0
    for K in pool:
        report, goods = _reference_disjoint_facet_links(K)
        assert verify_disjoint_facet_links(K).as_dict() == report
        assert good_vertices(K) == goods
        failing += not report["ok"]
    assert failing > 0  # the pool exercises the violation path too


def test_good_vertex_links(k39, catalog):
    report = verify_good_vertex_links(k39)
    assert report.ok
    from walkup.isomorphism import are_isomorphic

    for g in good_vertices(k39):
        ok, _ = are_isomorphic(k39.link([g.vertex]), catalog["calS"])
        assert ok
        ok_t, _ = are_isomorphic(k39.link([g.vertex]), catalog["calT"])
        assert not ok_t
