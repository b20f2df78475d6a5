from __future__ import annotations

import hashlib
from collections import Counter

import networkx as nx
import pytest

from walkup import constructions, recognition
from walkup.core import PreconditionError
from walkup.isomorphism import are_isomorphic, canonical_form

C37_FACETS = [
    ("1", "2", "3", "4"), ("1", "2", "3", "7"), ("1", "2", "4", "5"),
    ("1", "2", "5", "6"), ("1", "2", "6", "7"), ("1", "3", "4", "7"),
    ("1", "4", "5", "7"), ("1", "5", "6", "7"), ("2", "3", "4", "5"),
    ("2", "3", "5", "6"), ("2", "3", "6", "7"), ("3", "4", "5", "6"),
    ("3", "4", "6", "7"), ("4", "5", "6", "7"),
]


def test_standard_sphere():
    s0 = constructions.standard_sphere(0)
    assert s0.f_vector() == (2,)
    s3 = constructions.standard_sphere(3)
    assert s3.f_vector() == (5, 10, 10, 5)
    with pytest.raises(PreconditionError):
        constructions.standard_sphere(14)


def test_standard_sphere_2_matches_catalog(catalog):
    ok, _ = are_isomorphic(constructions.standard_sphere(2), catalog["S1"])
    assert ok


def test_cycle():
    tri = constructions.cycle(3)
    assert tri.f_vector() == (3, 3)
    for n in (5, 9):
        assert constructions.cycle(n).f_vector() == (n, n)
    with pytest.raises(PreconditionError):
        constructions.cycle(2)


def test_walkup_complex_small_dims(k39):
    assert k39.f_vector() == (9, 36, 54, 27)
    assert k39.has_face(["1", "2", "4", "5"])  # 5-path 1..5 minus interior 3
    k27 = constructions.walkup_complex(2)
    assert k27.f_vector() == (7, 21, 14)
    assert k27.euler_characteristic() == 0
    with pytest.raises(PreconditionError):
        constructions.walkup_complex(1)
    with pytest.raises(PreconditionError):
        constructions.walkup_complex(7)


def test_walkup_vertex_links_pass_recognition(k39):
    k27 = constructions.walkup_complex(2)
    for v in k27.labels:
        # a single cycle: only edges, every vertex of degree 2, connected
        link = k27.link([v])
        cycle = nx.Graph([tuple(edge) for edge in link.facets()])
        assert all(len(edge) == 2 for edge in link.facets())
        assert len(cycle) == link.vertex_count >= 3
        assert all(d == 2 for _, d in cycle.degree()) and nx.is_connected(cycle)
    assert recognition.is_combinatorial_3_manifold(k39)


def test_c37_facets(c37):
    assert sorted(tuple(sorted(f, key=int)) for f in c37.facets()) == C37_FACETS
    assert c37.has_face(["1", "2", "3", "4"])  # one even component of size 4
    assert c37.has_face(["1", "2", "4", "5"])  # two components of size 2
    assert len(c37.facet_masks) == 14


def test_c37_is_neighbourly_certified_sphere(c37):
    assert recognition.is_neighbourly(c37)
    assert recognition.is_combinatorial_3_manifold(c37)
    certified, _ = recognition.certify_sphere_via_complement(c37)
    assert certified


def test_connected_sum(m10):
    assert m10.vertex_count == 10
    assert recognition.is_combinatorial_3_manifold(m10)
    degrees = {v: m10.degree([v]) for v in m10.labels}
    assert min(degrees.values()) == 6
    assert degrees["6"] == 6
    non_neighbours = {
        w for w in m10.labels if w != "6" and not m10.has_face(["6", w])
    }
    assert non_neighbours == {"5'", "6'", "7'"}


def test_sphere_catalog_shape(catalog):
    assert len(catalog) == 11
    assert set(catalog) == {f"S{i}" for i in range(1, 10)} | {"calS", "calT"}
    for name, K in catalog.items():
        assert recognition.is_two_sphere(K), name
    assert catalog["calS"].vertex_count == 8
    assert catalog["calT"].vertex_count == 8


def test_catalog_s5_is_join(catalog):
    from walkup.core import from_facets

    rebuilt = from_facets([{"x"}, {"y"}]).join(constructions.cycle(5))
    assert rebuilt == catalog["S5"]


def test_catalog_suspensions(catalog):
    # S3 and S6 are one-point suspensions of the 5- and 6-cycles.
    for name, n in [("S3", 5), ("S6", 6)]:
        cyc = constructions.cycle(n)
        sus = cyc.relabel({str(n): "x"}).one_point_suspension("x", "y")
        ok, _ = are_isomorphic(sus, catalog[name])
        assert ok, name


def test_cal_spheres_arise_by_starring(catalog):
    """calS and calT come from S3 / S4 by starring a vertex in each of two
    disjoint triangles; collapsing their two degree-3 vertices recovers the
    base spheres."""
    from walkup.bistellar import BistellarMove, apply_move

    for name, base in [("calS", "S3"), ("calT", "S4")]:
        K = catalog[name]
        low = [v for v in K.labels if K.degree([v]) == 3]
        assert len(low) == 2, name
        assert not K.has_face(low), "the two starred vertices must not be adjacent"
        stars = []
        for v in low:
            link = K.link([v])
            beta = frozenset(link.labels)
            stars.append(beta)
            K = apply_move(K, BistellarMove(frozenset({v}), beta, 2))
        assert stars[0].isdisjoint(stars[1]), "starred triangles must be disjoint"
        ok, _ = are_isomorphic(K, catalog[base])
        assert ok, name


def test_cal_spheres_distinct(catalog):
    assert canonical_form(catalog["calS"]) != canonical_form(catalog["calT"])


def test_get_complex_names(k39):
    assert constructions.get_complex("K39") == k39
    with pytest.raises(PreconditionError):
        constructions.get_complex("nosuch")


# SHA-256 of (token, labels, facet masks) over every plain name and a sample of
# each kind: a builder or a lookup that changes any label or facet shows here.
_RESOLVED_DIGEST = "dc075dd6c58d72e312e2a89fa35c66d8e1773a345032bf10fcc7ea91f8292aad"


def test_every_name_and_kind_resolves_as_pinned():
    names = ["S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9", "calS", "calT",
             "k39", "k27", "c37", "m10"]
    kinds = ["sphere:0", "sphere:3", "cycle:3", "cycle:9", "walkup:2", "walkup:4",
             "random9:5", "random9:-3"]
    assert sorted(constructions.NAMED) == sorted(names)
    assert set(constructions.KINDS) == {"sphere", "cycle", "walkup", "random9"}
    digest = hashlib.sha256()
    for token in names + kinds:
        K = constructions.get_complex(token)
        if ":" not in token:
            for variant in (token.upper(), token.lower(), token.swapcase()):
                assert constructions.get_complex(variant) == K, variant
        digest.update(repr((token, K.labels, K.facet_masks)).encode())
    assert digest.hexdigest() == _RESOLVED_DIGEST


def test_one_lookup_builds_one_complex(monkeypatch):
    calls = Counter()
    for name in ("walkup_complex", "connected_sum_c37"):
        def counted(*args, _real=getattr(constructions, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(constructions, name, counted)
    assert constructions.get_complex("calS").vertex_count == 8
    assert calls == {}
    assert constructions.get_complex("K39").vertex_count == 9
    assert calls == {"walkup_complex": 1}
