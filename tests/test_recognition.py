from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest

from walkup import constructions, homology, recognition
from walkup.core import PreconditionError, from_facets


def test_pseudomanifold_basics(k39, c37, m10):
    for K in (k39, c37, m10):
        assert recognition.is_pseudomanifold(K)
    tri_join = constructions.cycle(3).join(
        constructions.cycle(3).relabel({"1": "4", "2": "5", "3": "6"})
    )
    assert recognition.is_pseudomanifold(tri_join)


def test_pseudomanifold_witness_after_facet_removal(k39):
    removed = k39.facets()[0]
    K = from_facets([f for f in k39.facets() if f != removed])
    witness = recognition.pseudomanifold_witness(K)
    assert witness is not None
    assert witness < removed and len(witness) == 3


def _ref_unreached(K):
    """The first facet not reached from the first one through facets that
    share a ridge, by a pairwise scan over frozensets."""
    facets = K.facets()
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j, g in enumerate(facets):
            if j not in seen and len(facets[i] & g) == K.dim:
                seen.add(j)
                stack.append(j)
    return next((f for j, f in enumerate(facets) if j not in seen), None)


def test_unreached_facet_matches_a_reference(kernel_pool, torus7):
    """Strong connectivity: facets that share only a vertex or an edge of a
    3-complex are not adjacent, and the witness is the first unreached facet."""
    tetrahedron = [set(t) for t in combinations("abcd", 3)]
    sphere3 = constructions.standard_sphere(3)
    pool = [K for _, K in kernel_pool if K.is_pure] + [
        torus7,
        from_facets(tetrahedron + [set(t) for t in combinations("defg", 3)]),  # wedged at d
        from_facets(tetrahedron + [set(t) for t in combinations("wxyz", 3)]),  # disjoint
        from_facets(sphere3.facets() + sphere3.relabel({"1": "a", "2": "b", "3": "c"}).facets()),  # at an edge
    ]
    unreached = 0
    for K in pool:
        lost = recognition._unreached_facet(K)
        assert (lost and K.face_labels(lost)) == _ref_unreached(K), K
        unreached += lost is not None
    assert unreached == 3


def test_two_sphere_catalog(catalog, k39):
    for name, K in catalog.items():
        assert recognition.is_two_sphere(K), name
    for v in k39.labels:
        link = k39.link([v])
        assert link.vertex_count == 8
        assert recognition.is_two_sphere(link)


def test_two_skeleton_of_s35_is_not_a_sphere():
    skeleton = from_facets(
        [set(c) for c in combinations(["1", "2", "3", "4", "5"], 3)]
    )
    assert not recognition.is_two_sphere(skeleton)
    with pytest.raises(PreconditionError):
        recognition.is_two_sphere(constructions.standard_sphere(3))


def test_torus_is_closed_but_not_sphere(torus7):
    assert recognition.closed_surface_witness(torus7) is None
    assert not recognition.is_two_sphere(torus7)


def test_three_manifold_checks(k39, c37, m10):
    assert recognition.is_combinatorial_3_manifold(k39)
    assert recognition.is_combinatorial_3_manifold(c37)
    assert recognition.is_combinatorial_3_manifold(m10)
    # the join of two triangle boundaries is the 6-vertex 3-sphere: links are
    # joins of a point pair with a triangle, which are 2-spheres
    tri_join = constructions.cycle(3).join(
        constructions.cycle(3).relabel({"1": "4", "2": "5", "3": "6"})
    )
    assert recognition.is_combinatorial_3_manifold(tri_join)
    assert homology.homology(tri_join) == homology.THREE_SPHERE_PROFILE


def test_neighbourly(k39, m10, c37):
    assert recognition.is_neighbourly(k39)
    assert len(k39.faces(1)) == 36
    assert recognition.is_neighbourly(c37)
    assert recognition.is_neighbourly(constructions.standard_sphere(3))
    assert not recognition.is_neighbourly(m10)
    witness = recognition.non_neighbourly_witness(m10)
    assert witness is not None and len(witness) == 2
    assert not m10.has_face(witness)


def test_singular_vertices(k39, c37, m10, torus7):
    for K in (k39, c37, m10, constructions.standard_sphere(3)):
        assert list(recognition._singular(K)) == []
    sus = torus7.one_point_suspension("1", "z")
    assert list(recognition._singular(sus)) == ["1", "z"]


def test_collapsible_fixtures():
    # the unique complexes with these f-vectors, built from 5 vertices
    all_tetra = [set(c) for c in combinations(["1", "2", "3", "4", "5"], 4)]
    for kept, fvec in [(4, (5, 10, 10, 4)), (3, (5, 10, 9, 3))]:
        K = from_facets(all_tetra[:kept])
        assert K.f_vector() == fvec
        ok, seq = recognition.is_collapsible(K)
        assert ok and seq
    K = from_facets([{"1", "2", "3", "4"}, {"1", "2", "3", "5"}, {"1", "4", "5"}])
    assert K.f_vector() == (5, 10, 8, 2)
    assert recognition.is_collapsible(K)[0]

    solid = from_facets([{"1", "2", "3", "4"}])
    assert recognition.is_collapsible(solid)[0]

    assert not recognition.is_collapsible(constructions.standard_sphere(2))[0]

    with pytest.raises(PreconditionError):
        recognition.is_collapsible(constructions.standard_sphere(7))


def test_collapse_sequence_replays():
    K = from_facets([{"1", "2", "3", "4"}, {"1", "2", "3", "5"}, {"1", "4", "5"}])
    ok, seq = recognition.is_collapsible(K)
    assert ok
    faces = set()
    for i in range(K.dim + 1):
        faces.update(K.faces(i))
    for free, coface in seq:
        supers = [f for f in faces if free < f]
        assert supers == [coface]
        assert len(coface) == len(free) + 1
        faces.discard(free)
        faces.discard(coface)
    assert len(faces) == 1 and len(next(iter(faces))) == 1


def _pairwise_collapse(K):
    """`is_collapsible` with its coface table built by a scan over all pairs
    of faces: the same faces in the same order, and the same search."""
    faces = [m for i in range(K.dim + 1) for m in K.faces_masks(i)]
    supers = [sum(1 << si for si, s in enumerate(faces) if s != t and s & t == t) for t in faces]
    if sum((-1) ** (m.bit_count() - 1) for m in faces) != 1:
        return False, None
    sequence, dead = [], set()

    def search(state):
        if state.bit_count() == 1:
            return True
        if state in dead:
            return False
        for ti in range(len(faces)):
            live = supers[ti] & state
            if state >> ti & 1 and live.bit_count() == 1:
                sequence.append((ti, live.bit_length() - 1))
                if search(state & ~(1 << ti) & ~live):
                    return True
                sequence.pop()
        dead.add(state)
        return False

    if not search((1 << len(faces)) - 1):
        return False, None
    return True, [(K.face_labels(faces[t]), K.face_labels(faces[s])) for t, s in sequence]


def test_collapse_matches_the_pairwise_coface_scan(k39, c37, m10):
    """Every facet complement of c37 and m10 (all collapsible) and of k39
    (none is) gets the same answer and the same collapse sequence as with a
    coface table from the pairwise scan."""
    for K, expected in ((c37, True), (m10, True), (k39, False)):
        for fm in K.facet_masks:
            complement = K.simplicial_complement(K.face_labels(fm))
            result = recognition.is_collapsible(complement)
            assert result == _pairwise_collapse(complement)
            assert result[0] is expected


def test_certificates(k39, c37, m10):
    certified, facet = recognition.certify_sphere_via_complement(c37)
    assert certified and facet is not None
    certified, facet = recognition.certify_sphere_via_complement(m10)
    assert certified
    certified, facet = recognition.certify_sphere_via_complement(k39)
    assert not certified and facet is None
    certified, _ = recognition.certify_sphere_via_complement(
        constructions.standard_sphere(3)
    )
    assert certified
    with pytest.raises(PreconditionError):
        recognition.certify_sphere_via_complement(constructions.standard_sphere(2))


def test_certificate_implies_sphere_homology(c37, m10):
    for K in (c37, m10):
        certified, _ = recognition.certify_sphere_via_complement(K)
        assert certified
        assert homology.homology(K) == homology.THREE_SPHERE_PROFILE


def test_recognition_report_witnesses(k39, torus7, m10):
    report = recognition.recognition_report(k39)
    assert report.is_pseudomanifold and report.is_three_manifold
    assert report.is_neighbourly and not report.is_two_sphere
    assert report.witness_for("is_two_sphere") is not None

    report = recognition.recognition_report(torus7)
    assert report.is_closed_surface and not report.is_two_sphere

    report = recognition.recognition_report(m10)
    assert not report.is_neighbourly
    assert report.witness_for("is_neighbourly") is not None

    impure = from_facets([{"1", "2", "3"}, {"3", "4"}])
    report = recognition.recognition_report(impure)
    assert not report.is_pure
    assert report.witness_for("is_pure") == frozenset({"3", "4"})

    # every false field must carry a witness, down to degenerate inputs
    points = from_facets([{"a"}, {"b"}])
    report = recognition.recognition_report(points)
    assert report.is_pure
    for prop, value in report.as_dict().items():
        if value is False:
            assert report.witness_for(prop) is not None, prop


# -- an independent reference: plain frozensets and networkx, no masks ---------


def _ref_two_sphere(T):
    """A closed connected surface with Euler characteristic 2: every edge in
    two triangles, every vertex link one cycle, the 1-skeleton connected."""
    if not T or any(len(t) != 3 for t in T):
        return False
    edges = {frozenset(e) for t in T for e in combinations(t, 2)}
    if any(sum(e < t for t in T) != 2 for e in edges):
        return False
    vertices = frozenset().union(*T)
    for v in vertices:
        cycle = nx.Graph([tuple(t - {v}) for t in T if v in t])
        if not nx.is_connected(cycle) or any(d != 2 for _, d in cycle.degree()):
            return False
    if not nx.is_connected(nx.Graph([tuple(e) for e in edges])):
        return False
    return len(vertices) - len(edges) + len(T) == 2


def _ref_singular(K):
    F = [frozenset(f) for f in K.facets()]
    return [v for v in K.labels if not _ref_two_sphere({f - {v} for f in F if v in f})]


def _ref_non_neighbourly(K):
    size = K.dim // 2 + 1
    F = [frozenset(f) for f in K.facets()]
    return next(
        (frozenset(c) for c in combinations(K.labels, size) if not any(set(c) <= f for f in F)),
        None,
    )


def test_recognition_reports_are_frozen(k39, torus7, rp2):
    """`recognition_report(K).as_dict()`, every value and every witness in
    order, equals the recorded report for each named complex, the torus,
    RP^2, and complexes with each kind of surface defect: a missing facet
    (an edge in one triangle), two disjoint or pinched tetrahedron
    boundaries (a disconnected whole or vertex link) and a non-pure one."""
    expected = json.loads((Path(__file__).parent / "recognition_reports.json").read_text())
    pool = dict(constructions.named_complexes(), torus7=torus7, rp2=rp2)
    pool["k39-facet"] = from_facets(k39.facets()[1:])
    pool["k27-facet"] = from_facets(constructions.walkup_complex(2).facets()[1:])
    tet = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
    pool["two-tetrahedra"] = from_facets(tet + [[v + 4 for v in f] for f in tet])
    pool["pinched-tetrahedra"] = from_facets(tet + [[v + 3 for v in f] for f in tet])
    pool["non-pure"] = from_facets(tet + [[4, 5]])
    assert {name: recognition.recognition_report(K).as_dict() for name, K in pool.items()} == expected


def test_three_manifold_recognition_matches_a_reference(kernel_pool):
    pool = [(name, K) for name, K in kernel_pool if K.dim == 3]
    for name, K in pool:
        singular = _ref_singular(K)
        assert recognition.is_combinatorial_3_manifold(K) == (not singular), name
        report = recognition.recognition_report(K)
        assert report.is_three_manifold == (not singular), name
        assert report.witness_for("is_three_manifold") == (
            frozenset(singular[:1]) if singular else None
        ), name
        assert list(recognition._singular(K)) == singular, name
        assert report.witness_for("is_neighbourly") == _ref_non_neighbourly(K), name
        assert report.is_neighbourly == recognition.is_neighbourly(K) == (
            _ref_non_neighbourly(K) is None
        ), name
    names = {name for name, K in pool if _ref_singular(K)}
    assert names == {"k27+suspension", "k27*S0", "non-pure"}


def test_every_predicate_equals_its_report_field(kernel_pool, k39, torus7):
    """A predicate reads the same witness as the report, so the two agree on
    every complex, down to the empty link of a facet and two points.  Out of
    its domain a predicate refuses, and the report field is False."""
    predicates = {
        "is_pseudomanifold": recognition.is_pseudomanifold,
        "is_two_sphere": recognition.is_two_sphere,
        "is_three_manifold": recognition.is_combinatorial_3_manifold,
        "is_neighbourly": recognition.is_neighbourly,
    }
    empty = k39.link(k39.facets()[0])
    pool = kernel_pool + [
        ("k39 lk facet", empty),
        ("two points", from_facets([{"a"}, {"b"}])),
        ("cycle:5", constructions.cycle(5)),
        ("torus7", torus7),
        ("k39", k39),
    ]
    for name, K in pool:
        report = recognition.recognition_report(K)
        assert report.is_pure == K.is_pure, name
        for prop, predicate in predicates.items():
            try:
                value = predicate(K)
            except PreconditionError:
                value = False
            assert value == getattr(report, prop), (name, prop)
            assert (report.witness_for(prop) is None) == value, (name, prop)
    assert recognition.recognition_report(empty).witness_for("is_neighbourly") == frozenset()


def test_surface_recognition_matches_a_reference(kernel_pool, torus7, catalog):
    surfaces = [("torus7", torus7), ("k27", constructions.walkup_complex(2))]
    surfaces += list(catalog.items())
    pool = dict(kernel_pool)
    for name in (
        "random9:0", "reduced9:2", "random9:5", "reduced9:7", "random9:10",
        "reduced9:12", "random9:15", "reduced9:17", "k39", "non-pure",
    ):
        surfaces += [(f"{name} lk {v}", pool[name].link([v])) for v in pool[name].labels[:3]]
    tetrahedron = [set(t) for t in combinations("abcd", 3)]
    # a 2-sphere and a torus side by side: every vertex link is a cycle and chi = 2
    apart = from_facets(tetrahedron + torus7.facets())
    # a 2-sphere with a fin, a triangle on its edge ab: chi = 2 and every
    # vertex link is connected, but ab lies in three triangles
    fin = from_facets(tetrahedron + [{"a", "b", "e"}])
    surfaces += [("apart", apart), ("fin", fin)]
    # two octahedra glued at two opposite vertices a and A: every edge lies in
    # two triangles, it is connected and chi = 2, but the links of a and A
    # are two 4-cycles each
    pinched = from_facets(
        [{x, y, z} for x in "aA" for y in "bB" for z in "cC"]
        + [{x, y, z} for x in "aA" for y in "dD" for z in "eE"]
    )
    surfaces.append(("pinched", pinched))
    spheres = 0
    for name, K in surfaces:
        T = {frozenset(f) for f in K.facets()}
        if K.dim == 2:
            assert recognition.is_two_sphere(K) == _ref_two_sphere(T), name
            spheres += _ref_two_sphere(T)
        report = recognition.recognition_report(K)
        assert report.is_two_sphere == (K.dim == 2 and _ref_two_sphere(T)), name
        if report.is_closed_surface:
            assert K.dim == 2 and (report.is_two_sphere == (K.euler_characteristic() == 2))
    for K in (apart, fin, pinched):
        assert not recognition.is_two_sphere(K) and K.euler_characteristic() == 2
    assert recognition.closed_surface_witness(pinched) == frozenset({"A"})  # labels: A < a
    assert spheres >= len(catalog)
