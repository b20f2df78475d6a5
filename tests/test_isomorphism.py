from __future__ import annotations

import hashlib
import math
import random
from itertools import permutations, product

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from walkup import constructions
from walkup.bistellar import random_three_sphere
from walkup.core import PreconditionError, from_facets
from walkup.isomorphism import (
    automorphism_group,
    are_isomorphic,
    canonical_form,
    orbits,
)


def _incidence_aut_count(K) -> int:
    """|Aut(K)| by networkx: the automorphisms of the vertex-facet incidence
    graph that map vertices to vertices.  Facets are distinct vertex sets, so
    such an automorphism is determined by what it does to the vertices."""
    G = nx.Graph()
    G.add_nodes_from((("v", v) for v in K.labels), side=0)
    for i, f in enumerate(K.facets()):
        G.add_node(("f", i), side=1)
        G.add_edges_from((("v", v), ("f", i)) for v in f)
    matcher = GraphMatcher(G, G, node_match=lambda a, b: a["side"] == b["side"])
    return sum(1 for _ in matcher.isomorphisms_iter())


def _cross_polytope(d: int):
    """The boundary of the d-dimensional cross-polytope: one vertex of each of
    d antipodal pairs per facet."""
    return from_facets([[f"{i}{'+-'[s]}" for i, s in enumerate(signs)] for signs in product((0, 1), repeat=d)])


@pytest.fixture(scope="module")
def aut_pool(two_sphere_census, neighbourly_census, rp2):
    """(name, complex, networkx |Aut|) for the 2-sphere census n = 4..8, the
    51 neighbourly classes, walkup_complex(2..6), seeded random 3-spheres,
    RP^2 and the one-point suspension of k27."""
    named = [(f"two-sphere {i}", K) for i, K in enumerate(two_sphere_census)]
    named += [(f"neighbourly {i}", K) for i, K in enumerate(neighbourly_census.complexes)]
    named += [(f"walkup_complex({d})", constructions.walkup_complex(d)) for d in range(2, 7)]
    named += [(f"random_three_sphere({s})", random_three_sphere(s)) for s in range(6)]
    named += [("rp2", rp2), ("k27+suspension", constructions.walkup_complex(2).one_point_suspension("1", "s"))]
    return [(name, K, _incidence_aut_count(K)) for name, K in named]


def test_incidence_oracle_on_known_groups(aut_pool):
    known = {name: order for name, _, order in aut_pool}
    assert known["walkup_complex(2)"] == 42
    assert known["walkup_complex(3)"] == 18
    assert known["rp2"] == 60
    assert known["k27+suspension"] == 12
    assert len(aut_pool) == 23 + 51 + 5 + 6 + 2


def test_aut_order_matches_networkx(aut_pool):
    for name, K, order in aut_pool:
        assert automorphism_group(K).order == order, name


@settings(max_examples=8)
@given(st.data())
def test_relabelling_keeps_aut_order_and_canonical_bytes(aut_pool, data):
    for name, K, order in aut_pool:
        image = data.draw(st.permutations(K.labels))
        L = K.relabel(dict(zip(K.labels, image)))
        assert automorphism_group(L).order == order, name
        assert canonical_form(L).bytes == canonical_form(K).bytes, name


@pytest.mark.parametrize("d", range(2, 9))
def test_cross_polytope_orders(d):
    assert automorphism_group(_cross_polytope(d)).order == 2**d * math.factorial(d)


def _census_digest(complexes) -> str:
    return hashlib.sha256(b"".join(sorted(canonical_form(K).bytes for K in complexes))).hexdigest()[:16]


def test_canonical_bytes_locked(two_sphere_census, neighbourly_census):
    """The sorted canonical bytes of both censuses are fixed: a faster or
    differently pruned search must find the same least encodings."""
    assert _census_digest(two_sphere_census) == "f0483b943d22522c"
    assert _census_digest(neighbourly_census.complexes) == "e2b653212cbcc1e4"


def _random_relabel(K, rng):
    perm = list(K.labels)
    rng.shuffle(perm)
    return K.relabel(dict(zip(K.labels, perm)))


def test_canonical_form_invariance(catalog, k39, c37, m10):
    rng = random.Random(0)
    pool = list(catalog.values()) + [k39, c37, m10]
    checked = 0
    while checked < 500:
        K = pool[checked % len(pool)]
        base = canonical_form(K).bytes
        assert canonical_form(_random_relabel(K, rng)).bytes == base
        checked += 1


def test_non_isomorphic_pairs_differ(catalog, k39):
    rng = random.Random(1)
    pool = list(catalog.values()) + [k39]
    seen = 0
    while seen < 100:
        a, b = rng.sample(pool, 2)
        if a.f_vector() == b.f_vector():
            continue
        assert canonical_form(a).bytes != canonical_form(b).bytes
        seen += 1


def test_catalog_pairwise_distinct(catalog):
    digests = {name: canonical_form(K).bytes for name, K in catalog.items()}
    assert len(set(digests.values())) == len(digests)


def test_are_isomorphic_witness(catalog):
    rng = random.Random(2)
    for K in (catalog["S3"], catalog["S8"], catalog["calS"]):
        L = _random_relabel(K, rng)
        ok, witness = are_isomorphic(K, L)
        assert ok
        mapped = {frozenset(witness[v] for v in f) for f in K.facets()}
        assert mapped == set(L.facets())


def test_are_isomorphic_rejects_a_corrupted_witness(k39, monkeypatch):
    """The witness is checked on facet masks: one wrong relabelling entry
    must raise, not pass unnoticed."""
    from walkup import isomorphism
    from walkup.isomorphism import CanonicalForm

    L = _random_relabel(k39, random.Random(3))
    assert are_isomorphic(k39, L)[0]
    real = isomorphism.canonical_form

    def corrupted(X):
        cf = real(X)
        if X is not k39:
            return cf
        relabeling = dict(cf.relabeling)
        relabeling["1"] = relabeling["2"]  # two vertices onto one
        return CanonicalForm(cf.bytes, relabeling)

    monkeypatch.setattr(isomorphism, "canonical_form", corrupted)
    with pytest.raises(AssertionError, match="invalid witness"):
        are_isomorphic(k39, L)


def test_s3_equals_suspension(catalog):
    sus = constructions.cycle(5).relabel({"5": "x"}).one_point_suspension("x", "y")
    assert canonical_form(sus) == canonical_form(catalog["S3"])


def test_s7_s8_not_isomorphic(catalog):
    ok, witness = are_isomorphic(catalog["S7"], catalog["S8"])
    assert not ok and witness is None


def test_identity_witness(k39):
    ok, witness = are_isomorphic(k39, k39)
    assert ok
    mapped = {frozenset(witness[v] for v in f) for f in k39.facets()}
    assert mapped == set(k39.facets())


def test_automorphism_orders(catalog, k39):
    assert automorphism_group(k39).order == 18
    expected = {"S1": 24, "S3": 4, "S5": 20, "S6": 4, "S7": 6, "S8": 2, "S9": 6}
    for name, order in expected.items():
        assert automorphism_group(catalog[name]).order == order, name
    for d in (2, 3):
        sphere = constructions.standard_sphere(d)
        import math

        assert automorphism_group(sphere).order == math.factorial(d + 2)


def test_automorphism_group_against_brute_force(catalog):
    for K in (catalog["S3"], catalog["S4"], catalog["S9"]):
        facets = set(K.facet_masks)
        n = K.vertex_count
        brute = 0
        for perm in permutations(range(n)):
            mapped = set()
            for fm in facets:
                m = 0
                for b in range(n):
                    if fm >> b & 1:
                        m |= 1 << perm[b]
                mapped.add(m)
            if mapped == facets:
                brute += 1
        assert automorphism_group(K).order == brute


def test_generators_preserve_facets(catalog, k39):
    for K in (catalog["S5"], k39):
        group = automorphism_group(K)
        for gen in group.generator_maps():
            mapped = {frozenset(gen[v] for v in f) for f in K.facets()}
            assert mapped == set(K.facets())
        assert group.order == _incidence_aut_count(K)


def test_orbit_partition(k39):
    group = automorphism_group(k39)
    deg3 = [e for e in k39.faces(1) if k39.degree(e) == 3]
    classes = orbits(group, deg3)
    assert len(classes) == 1
    assert len(classes[0].members) == 9

    all_edges = orbits(group, k39.faces(1))
    assert sorted(len(c.members) for c in all_edges) == [9, 9, 9, 9]
    for cls in all_edges:
        assert group.order % len(cls.members) == 0  # orbit-stabilizer


def test_singleton_group_orbits():
    from walkup.isomorphism import PermutationGroup

    trivial = PermutationGroup(("a", "b", "c"), (), 1)
    objs = [frozenset({"a"}), frozenset({"b"}), frozenset({"c"})]
    classes = orbits(trivial, objs)
    assert len(classes) == 3
    assert all(len(c.members) == 1 for c in classes)

    K = from_facets([{"a", "b"}, {"b", "c"}])
    with pytest.raises(PreconditionError):
        orbits(automorphism_group(K), [frozenset({"z"})])


def test_brute_force_isomorphism_oracle(catalog):
    """Exhaustive permutation search agrees with the canonical-form decision."""
    rng = random.Random(3)
    pool = [catalog["S3"], catalog["S4"], catalog["S7"], catalog["S9"]]
    for a in pool:
        for b in pool:
            expected = False
            perm_target = set(b.facet_masks)
            if a.vertex_count == b.vertex_count:
                n = a.vertex_count
                for perm in permutations(range(n)):
                    mapped = set()
                    for fm in a.facet_masks:
                        m = 0
                        for bit in range(n):
                            if fm >> bit & 1:
                                m |= 1 << perm[bit]
                        mapped.add(m)
                    if mapped == perm_target:
                        expected = True
                        break
            assert are_isomorphic(a, b)[0] == expected


def _fresh(K):
    """An equal complex with no search kept on it."""
    return K.relabel({})


def _full_answer(K, L):
    """(ok, witness) from the two full canonical forms."""
    cf_k, cf_l = canonical_form(K), canonical_form(_fresh(L))
    if cf_k.bytes != cf_l.bytes:
        return False, None
    inverse_l = {cid: lab for lab, cid in cf_l.relabeling.items()}
    return True, {lab: inverse_l[cid] for lab, cid in cf_k.relabeling.items()}


@pytest.fixture(scope="module")
def iso_pairs(neighbourly_census, two_sphere_census, rp2, k39):
    """(K, L) pairs: two relabellings of every neighbourly class, of rp2, k39
    and the one-point suspension of k27, and both orders of every pair of
    distinct census classes with equal f-vectors among the neighbourly
    classes (consecutive ones) and the 2-spheres on 6..8 vertices."""
    rng = random.Random(20)
    k27s = constructions.walkup_complex(2).one_point_suspension("1", "s")
    named = list(neighbourly_census.complexes) + [rp2, k39, k27s]
    pairs = [(K, _random_relabel(K, rng)) for K in named for _ in range(2)]
    classes = list(neighbourly_census.complexes)
    distinct = list(zip(classes, classes[1:]))
    spheres = [K for K in two_sphere_census if K.vertex_count >= 6]
    distinct += [(a, b) for i, a in enumerate(spheres) for b in spheres[i + 1:] if a.vertex_count == b.vertex_count]
    for a, b in distinct:
        pairs += [(a, _random_relabel(b, rng)), (b, _random_relabel(a, rng))]
    return pairs


def test_are_isomorphic_matches_the_full_canonical_forms(iso_pairs):
    """The early-exit search gives the answer and the witness the two full
    canonical forms give, with L's least encoding below, at and above K's."""
    below = at = above = 0
    for K, L in iso_pairs:
        assert are_isomorphic(K, _fresh(L)) == _full_answer(K, L)
        enc_k, enc_l = canonical_form(K).bytes, canonical_form(_fresh(L)).bytes
        below += enc_l < enc_k
        at += enc_l == enc_k
        above += enc_l > enc_k
    assert at == 2 * 54 and below > 50 and above > 50


def test_early_exit_visits_no_more_nodes_than_the_full_search(iso_pairs, monkeypatch):
    """Counted in `_least_encoding` calls, one per node: the search on L that
    stops early makes no more than a full `_search(L)`, and fewer in all."""
    from walkup import isomorphism

    calls = [0]
    real = isomorphism._least_encoding

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(isomorphism, "_least_encoding", counted)
    early_total = full_total = 0
    for K, L in iso_pairs:
        canonical_form(K)
        calls[0] = 0
        isomorphism._search(_fresh(L))
        full = calls[0]
        calls[0] = 0
        are_isomorphic(K, _fresh(L))
        assert calls[0] <= full
        early_total += calls[0]
        full_total += full
    assert early_total < full_total


def test_only_a_full_search_is_kept(iso_pairs):
    """L keeps its search only when no leaf reached K's least encoding, and
    then it is the full search; a kept search answers the next call."""
    from walkup import isomorphism

    kept = 0
    for K, L in iso_pairs:
        X = _fresh(L)
        ok, witness = are_isomorphic(K, X)
        if canonical_form(_fresh(L)).bytes <= canonical_form(K).bytes:
            assert X._search_cache is None
        else:
            assert X._search_cache == isomorphism._search(_fresh(L))
            assert are_isomorphic(K, X) == (ok, witness) == (False, None)
            kept += 1
    assert kept > 50
