"""Acceptance criteria, one test per criterion, each with its runtime budget.

Every test prints one `[acceptance] criterion N: PASS/FAIL` line.  Criterion 5
holds the published coclique orbit counts verbatim beside an errata table:
the published S5 and S9 case lists each name one orbit twice (`C2`/`C3` and
`C6`/`C7`, swapped by `(1 3)(4 5)` and `(2 3)(5 6)` of the published groups),
so the true counts are the published ones less one.  The witnesses are
checked by plain set mapping, independently of `walkup.isomorphism`.
`walkup verify lemma3.1 --complex S5|S9` verifies the published claim
verbatim and so still exits 2, naming the duplicate pair.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from walkup import bistellar, constructions, enumeration, homology, lemmas, recognition
from walkup.cli import run
from walkup.isomorphism import automorphism_group, canonical_form, orbits


@contextmanager
def criterion(number: int, budget_seconds: float, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL ({description})")
        raise
    elapsed = time.monotonic() - start
    print(
        f"[acceptance] criterion {number}: PASS ({description}; "
        f"{elapsed:.1f}s of {budget_seconds:.0f}s budget)"
    )
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_01_f_vector_and_euler():
    with criterion(1, 1.0, "info k39 reports f=(9,36,54,27), chi=0"):
        outcome = run(["info", "k39"])
        assert outcome.exit_code == 0
        assert outcome.report["data"]["f_vector"] == [9, 36, 54, 27]
        assert outcome.report["data"]["euler_characteristic"] == 0


def test_criterion_02_no_two_moves():
    with criterion(2, 1.0, "no 2-moves on k39; edge {1,5} blocked by beta"):
        listed = run(["moves", "list", "--complex", "k39", "--type", "2"])
        assert listed.exit_code == 0
        assert listed.report["data"]["moves"] == []
        explained = run(["moves", "explain", "--complex", "k39", "--alpha", "1,5"])
        assert explained.report["data"]["status"] == "beta is a face"
        assert explained.report["data"]["beta"] == ["2", "3", "4"]


def test_criterion_03_degree_three_edges(k39):
    with criterion(3, 5.0, "nine degree-3 edges in one orbit; |Aut| = 18"):
        expected = {
            frozenset(pair)
            for pair in [
                ("1", "5"), ("5", "9"), ("9", "4"), ("4", "8"), ("8", "3"),
                ("3", "7"), ("7", "2"), ("2", "6"), ("6", "1"),
            ]
        }
        deg3 = {e for e in k39.faces(1) if k39.degree(e) == 3}
        assert deg3 == expected
        group = automorphism_group(k39)
        assert group.order == 18
        classes = orbits(group, sorted(deg3, key=sorted))
        assert len(classes) == 1 and len(classes[0].members) == 9


def test_criterion_04_alpha_invariant():
    with criterion(4, 30.0, "alpha = 3,12,25,42 for k = 5..8, flip invariant"):
        expected = {5: 3, 6: 12, 7: 25, 8: 42}
        rng = random.Random(2024)
        for k, value in expected.items():
            assert lemmas.alpha_formula(k) == value
            for X in enumeration.enumerate_two_spheres(k).complexes:
                assert lemmas.alpha(X) == value
                for _ in range(50):
                    X = bistellar.apply_move(X, rng.choice(bistellar.proper_moves(X)))
                    assert X.vertex_count == k
                    assert lemmas.alpha(X) == value


# Published duplicates: (sphere, size) -> [(case, duplicate case, witness)],
# the witness a vertex permutation mapping the first case onto the second.
COCLIQUE_ERRATA = {
    ("S5", 6): [("C2", "C3", {"1": "3", "3": "1", "4": "5", "5": "4"})],  # (1 3)(4 5)
    ("S9", 6): [("C6", "C7", {"2": "3", "3": "2", "5": "6", "6": "5"})],  # (2 3)(5 6)
}


def _image(mapping: dict[str, str], sets) -> set[frozenset[str]]:
    return {frozenset(mapping.get(v, v) for v in s) for s in sets}


def _generated_group(generators, labels) -> set[tuple[str, ...]]:
    """Every product of the generators, each as its images of `labels`."""
    position = {v: i for i, v in enumerate(labels)}
    images = [tuple(g.get(v, v) for v in labels) for g in generators]
    identity = tuple(labels)
    group, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for g in images:
            q = tuple(g[position[v]] for v in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def test_criterion_05_coclique_census():
    published = {
        "S2": {3: 1},
        "S3": {5: 2, 6: 3, 7: 1},  # six orbits in all
        "S4": {4: 2},
        "S5": {6: 11, 5: 3},
        "S6": {6: 11, 5: 1},
        "S7": {6: 3, 5: 0},
        "S8": {6: 10, 5: 0},
        "S9": {6: 13, 5: 0},
    }
    with criterion(5, 60.0, "coclique counts as published, less the C2/C3, C6/C7 duplicates"):
        cases = lemmas.load_coclique_cases()
        for (name, size), pairs in COCLIQUE_ERRATA.items():
            X = constructions.get_complex(name)
            spec = cases[name]
            labels = sorted(X.labels)
            group = _generated_group(spec["aut_generators"], labels)
            for first, second, witness in pairs:
                assert _image(witness, X.facets()) == set(X.facets()), (name, witness)
                assert tuple(witness.get(v, v) for v in labels) in group, (name, witness)
                assert len(spec["cases"][first]) == size
                target = {frozenset(s) for s in spec["cases"][second]}
                assert _image(witness, spec["cases"][first]) == target, (name, first, second)

        for name, by_size in published.items():
            report = lemmas.coclique_case_check(name)
            census = lemmas.coclique_census(constructions.get_complex(name))
            errata = {
                size: pairs for (sphere, size), pairs in COCLIQUE_ERRATA.items()
                if sphere == name
            }
            for size, count in by_size.items():
                expected = count - len(errata.get(size, []))
                assert census.covering_orbit_count(size) == expected, (name, size)
            duplicates = sorted(
                [first, second] for pairs in errata.values() for first, second, _ in pairs
            )
            assert report.facts["duplicate_published_cases"] == duplicates, name
            # the only violations are the published count lines the errata explain
            count_lines = [v for v in report.violations if "lie in one orbit" in v]
            assert len(count_lines) == len(errata), (name, report.violations)
            assert len(report.violations) == len(count_lines), (name, report.violations)


def test_criterion_06_automorphism_orders(catalog):
    with criterion(6, 10.0, "Aut orders 4, 20, 4, 6, 2, 6 for the labelings"):
        expected = {"S3": 4, "S5": 20, "S6": 4, "S7": 6, "S8": 2, "S9": 6}
        for name, order in expected.items():
            assert automorphism_group(catalog[name]).order == order, name


def test_criterion_07_lemma_verifications(k39):
    with criterion(7, 30.0, "complement dichotomy, disjoint links, good-vertex links"):
        assert lemmas.verify_complement_dichotomy(k39).ok
        assert lemmas.verify_disjoint_facet_links(k39).ok
        assert lemmas.verify_good_vertex_links(k39).ok


def test_criterion_08_edge_degree_dichotomy(k39):
    with criterion(8, 1.0, "facet edge-degree sums are 29 with partner, 28 without"):
        report = lemmas.verify_facet_degree_dichotomy(k39)
        assert report.ok
        assert report.facts == {"facets_with_partner": 18, "facets_without_partner": 9}


def test_criterion_09_homology(catalog, k39, c37, m10):
    with criterion(9, 5.0, "homology of k39, c37, m10 and Euler-Poincare"):
        profile = homology.homology(k39)
        assert profile.betti == (1, 1, 0, 0) and profile.torsion[2] == (2,)
        assert homology.homology(c37) == homology.THREE_SPHERE_PROFILE
        assert homology.homology(m10) == homology.THREE_SPHERE_PROFILE
        for K in list(catalog.values()) + [k39, c37, m10]:
            hp = homology.homology(K)
            chi = sum((-1) ** i * b for i, b in enumerate(hp.betti))
            assert chi == K.euler_characteristic()


def test_criterion_10_reduction_at_scale():
    with criterion(10, 120.0, "200 seeded spheres reduce in exactly 36 - f1 <= 10 moves"):
        for seed in range(200):
            K = bistellar.random_three_sphere(seed)
            f1 = len(K.faces_masks(1))
            degrees = {v: K.degree([v]) for v in K.labels}
            reduced, moves = bistellar.neighbourly_reduction(K)
            assert len(moves) == 36 - f1
            assert len(moves) <= 10
            assert recognition.is_neighbourly(reduced)
            after = {v: reduced.degree([v]) for v in reduced.labels}
            assert all(after[v] >= degrees[v] for v in degrees)


def test_criterion_11_ten_vertex_negative_control(m10):
    with criterion(11, 10.0, "m10 is a certified sphere; no 1-move raises deg(6)"):
        assert recognition.is_combinatorial_3_manifold(m10)
        certified, _ = recognition.certify_sphere_via_complement(m10)
        assert certified
        degrees = {v: m10.degree([v]) for v in m10.labels}
        assert min(degrees.values()) == 6
        assert degrees["6"] == 6
        assert bistellar.degree_raising_moves(m10, "6") == []


def test_criterion_12_two_sphere_census(catalog):
    with criterion(12, 60.0, "2-sphere census counts 1,1,2,5 matching S1..S9"):
        expected_classes = {
            4: ["S1"],
            5: ["S2"],
            6: ["S3", "S4"],
            7: ["S5", "S6", "S7", "S8", "S9"],
        }
        for n, names in expected_classes.items():
            result = enumeration.enumerate_two_spheres(n)
            assert result.counts["two_sphere"] == len(names)
            census = {canonical_form(K).bytes for K in result.complexes}
            assert census == {canonical_form(catalog[x]).bytes for x in names}


@pytest.mark.slow
def test_criterion_13_unique_non_sphere(k39):
    with criterion(13, 1800.0, "census: the unique neighbourly non-sphere is k39"):
        result = enumeration.enumerate_neighbourly_9_manifolds()
        assert result.counts["non_sphere"] == 1
        non_sphere = next(
            K
            for K in result.complexes
            if homology.homology(K) != homology.THREE_SPHERE_PROFILE
        )
        assert canonical_form(non_sphere).bytes == canonical_form(k39).bytes


@pytest.mark.slow
@pytest.mark.full_census
def test_criterion_14_full_census(k39, full_census):
    with criterion(14, 12 * 3600.0, "full census: 1297 manifolds, one non-sphere"):
        result = full_census
        assert result.counts["total"] == 1297
        assert result.counts["non_sphere"] == 1
        non_sphere = next(
            K
            for K in result.complexes
            if homology.homology(K) != homology.THREE_SPHERE_PROFILE
        )
        assert canonical_form(non_sphere).bytes == canonical_form(k39).bytes
