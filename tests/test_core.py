from __future__ import annotations

import json
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from walkup import constructions
from walkup.core import (
    PreconditionError,
    _antichain,
    _components,
    from_facets,
    from_json,
    from_text,
    to_json_obj,
    to_text,
)

# The 27 facets of the 9-vertex Walkup complex, written out directly from the
# definition: for every 5-path of consecutive vertices on the 9-cycle, drop
# one interior vertex.
K39_FACETS = [
    ("1", "2", "3", "5"), ("1", "2", "3", "8"), ("1", "2", "4", "5"),
    ("1", "2", "4", "9"), ("1", "2", "7", "8"), ("1", "2", "7", "9"),
    ("1", "3", "4", "5"), ("1", "3", "4", "9"), ("1", "3", "8", "9"),
    ("1", "6", "7", "8"), ("1", "6", "7", "9"), ("1", "6", "8", "9"),
    ("2", "3", "4", "6"), ("2", "3", "4", "9"), ("2", "3", "5", "6"),
    ("2", "3", "8", "9"), ("2", "4", "5", "6"), ("2", "7", "8", "9"),
    ("3", "4", "5", "7"), ("3", "4", "6", "7"), ("3", "5", "6", "7"),
    ("4", "5", "6", "8"), ("4", "5", "7", "8"), ("4", "6", "7", "8"),
    ("5", "6", "7", "9"), ("5", "6", "8", "9"), ("5", "7", "8", "9"),
]


def test_from_facets_duplicate_collapse():
    K = from_facets([{"a", "b", "c"}, {"a", "b", "c"}])
    assert K.facets() == [frozenset({"a", "b", "c"})]


def test_from_facets_antichain_reduction():
    K = from_facets([{"a", "b"}, {"a", "b", "c"}])
    assert K.facets() == [frozenset({"a", "b", "c"})]


def test_from_facets_k39(k39):
    assert k39.dim == 3
    assert k39.vertex_count == 9
    assert sorted(tuple(sorted(f, key=int)) for f in k39.facets()) == K39_FACETS


def test_from_facets_errors():
    with pytest.raises(PreconditionError):
        from_facets([])
    with pytest.raises(PreconditionError):
        from_facets([set()])
    with pytest.raises(PreconditionError):
        from_facets([set(str(i) for i in range(17))])


def test_faces_counts(k39):
    s35 = constructions.standard_sphere(3)
    assert len(s35.faces(1)) == 10
    assert len(k39.faces(2)) == 54
    tri = from_facets([{"a", "b", "c"}])
    assert tri.faces(2) == [frozenset({"a", "b", "c"})]
    with pytest.raises(PreconditionError):
        k39.faces(4)


def test_f_vector_and_euler(k39):
    assert k39.f_vector() == (9, 36, 54, 27)
    assert k39.euler_characteristic() == 0
    for d in (2, 3, 4):
        sphere = constructions.standard_sphere(d)
        expected = tuple(
            len(list(combinations(range(d + 2), i + 1))) for i in range(d + 1)
        )
        assert sphere.f_vector() == expected
        assert sphere.euler_characteristic() == (2 if d % 2 == 0 else 0)


def test_euler_identity_recomputed_from_faces(catalog, k39, c37, m10):
    for K in list(catalog.values()) + [k39, c37, m10]:
        chi = sum((-1) ** i * len(K.faces(i)) for i in range(K.dim + 1))
        assert chi == K.euler_characteristic()


def test_downward_closure(catalog, k39):
    for K in [catalog["S5"], catalog["calS"], k39]:
        for i in range(1, K.dim + 1):
            lower = set(K.faces(i - 1))
            for face in K.faces(i):
                for v in face:
                    assert face - {v} in lower


def test_link_examples(k39):
    s24 = constructions.standard_sphere(2).relabel({"1": "a", "2": "b", "3": "c", "4": "d"})
    link = s24.link(["a"])
    assert link.vertex_count == 3 and link.dim == 1
    assert len(link.facet_masks) == 3

    lk15 = k39.link(["1", "5"])
    assert set(lk15.labels) == {"2", "3", "4"}
    assert lk15.f_vector() == (3, 3)

    with pytest.raises(PreconditionError):
        k39.link(["1", "6", "2"])


def test_link_of_facet_is_empty():
    tri = from_facets([{"a", "b", "c"}])
    link = tri.link(["a", "b", "c"])
    assert link.facet_masks == () and link.vertex_count == 0


def test_suspension_links_recover_base(catalog):
    rng = random.Random(1)
    samples = [constructions.cycle(n) for n in (4, 5, 7)] + [
        catalog["S2"], catalog["S7"]
    ]
    from walkup.isomorphism import are_isomorphic

    for K in samples:
        u = rng.choice(K.labels)
        sus = K.one_point_suspension(u, "zz")
        assert sus.vertex_count == K.vertex_count + 1
        for apex in (u, "zz"):
            ok, _ = are_isomorphic(sus.link([apex]), K)
            assert ok


def test_complement_examples(k39):
    comp = k39.simplicial_complement(["4", "6", "7", "8"])
    assert comp.vertex_count == 5
    assert sum(1 for m in comp.facet_masks if m.bit_count() == 4) <= 1

    with pytest.raises(PreconditionError):
        from_facets([{"a", "b"}]).simplicial_complement(["a", "b"])


def test_join_examples(catalog):
    s02 = from_facets([{"x"}, {"y"}])
    joined = s02.join(constructions.cycle(3).relabel({"1": "a", "2": "b", "3": "c"}))
    from walkup.isomorphism import are_isomorphic

    ok, _ = are_isomorphic(joined, catalog["S2"])
    assert ok
    with pytest.raises(PreconditionError):
        s02.join(from_facets([{"x", "q"}]))


def test_join_associative_up_to_isomorphism():
    from walkup.isomorphism import are_isomorphic

    a = from_facets([{"a"}, {"b"}])
    b = from_facets([{"c"}, {"d"}])
    c = constructions.cycle(3).relabel({"1": "p", "2": "q", "3": "r"})
    left = a.join(b).join(c)
    right = a.join(b.join(c))
    ok, _ = are_isomorphic(left, right)
    assert ok


def test_degree_and_histogram(k39):
    assert k39.degree(["1", "5"]) == 3
    deg3 = [e for e in k39.faces(1) if k39.degree(e) == 3]
    assert len(deg3) == 9
    # computed by brute force over all 36 edges before freezing
    hist = Counter(k39.degree(e) for e in k39.faces(1))
    assert hist == {3: 9, 4: 9, 5: 9, 6: 9}


def test_link_degree_identity(catalog, k39):
    rng = random.Random(2)
    for K in [catalog["S5"], catalog["calT"], k39]:
        faces = [f for i in range(K.dim + 1) for f in K.faces(i)]
        for face in rng.sample(faces, min(100, len(faces))):
            assert K.degree(face) == K.link(face).vertex_count


def test_text_round_trip(catalog, k39, m10):
    for K in [catalog["S4"], k39, m10]:
        text = to_text(K)
        assert to_text(from_text(text)) == text
        as_json = json.dumps(to_json_obj(K))
        assert json.dumps(to_json_obj(from_json(as_json))) == as_json


def test_text_round_trip_random_complexes():
    rng = random.Random(11)
    labels = [str(i) for i in range(1, 10)] + ["x", "y", "5'"]
    for _ in range(50):
        k = rng.randint(1, 5)
        facets = [
            set(rng.sample(labels, rng.randint(1, 5))) for _ in range(k)
        ]
        K = from_facets(facets)
        text = to_text(K)
        again = from_text(text)
        assert again == K
        assert to_text(again) == text


def test_text_comments_and_errors():
    K = from_text("# a comment\na b c\n")
    assert K.facets() == [frozenset({"a", "b", "c"})]
    with pytest.raises(PreconditionError):
        from_text("# only a comment\n")


def test_labels_preserved_through_primes(m10):
    assert "5'" in m10.labels and "7'" in m10.labels
    assert m10.vertex_count == 10


def test_label_and_argument_errors():
    with pytest.raises(PreconditionError):
        from_facets([{"a b", "c"}])  # whitespace in a label
    with pytest.raises(PreconditionError):
        from_facets([{"#x", "y"}])  # '#' collides with the comment syntax
    tri = from_facets([{"a", "b", "c"}])
    with pytest.raises(PreconditionError):
        tri.mask_of(["a", "z"])
    with pytest.raises(PreconditionError):
        tri.relabel({"a": "b"})  # collides with an existing label
    with pytest.raises(PreconditionError):
        tri.one_point_suspension("z", "w")
    with pytest.raises(PreconditionError):
        tri.one_point_suspension("a", "b")


def test_join_vertex_budget():
    left = from_facets([set(str(i) for i in range(1, 9))])
    right = from_facets([set(f"v{i}" for i in range(1, 10))])
    with pytest.raises(PreconditionError):
        left.join(right)  # 17 vertices would not fit a machine word


@given(st.lists(st.integers(min_value=0, max_value=255), max_size=40))
def test_antichain_matches_a_pairwise_filter(masks):
    """Mixed-size masks over at most 8 vertices, against the plain rule: keep
    each distinct mask that no other distinct mask contains."""
    distinct = set(masks)
    expected = sorted(m for m in distinct if not any(k != m and k & m == m for k in distinct))
    assert _antichain(masks) == expected


@given(st.lists(st.sets(st.integers(0, 15), min_size=1, max_size=3), max_size=12))
@example([])
def test_components_match_networkx(faces):
    """`_components` against `networkx` on the graph with one node per face
    and an edge between faces sharing a vertex; no faces, no components."""
    import networkx as nx

    masks = [sum(1 << v for v in face) for face in faces]
    graph = nx.Graph()
    graph.add_nodes_from(range(len(masks)))
    graph.add_edges_from((i, j) for i, j in combinations(range(len(masks)), 2) if masks[i] & masks[j])
    assert _components(masks) == nx.number_connected_components(graph)


@given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=5), min_size=1, max_size=10))
def test_star_table_matches_a_subset_oracle(facet_sets):
    """`stars(k)`, `faces_masks(i)`, `degree(face)` for every face and
    `has_face_mask(m)` for every mask m below 2**n agree with the faces as
    frozensets of the facets' subsets."""
    K = from_facets(facet_sets)
    n = K.vertex_count
    facets = [frozenset(K._index[str(v)] for v in f) for f in K.facets()]
    faces = {frozenset(c) for f in facets for k in range(1, len(f) + 1) for c in combinations(f, k)}
    mask = lambda face: sum(1 << v for v in face)  # noqa: E731
    for k in range(n + 2):
        count, union = K.stars(k)
        through = {face: [f for f in facets if face <= f] for face in faces if len(face) == k}
        assert count == {mask(a): len(fs) for a, fs in through.items()}
        assert union == {mask(a): mask(frozenset().union(*fs)) for a, fs in through.items()}
        assert K.stars(k) is K.stars(k)
    for i in range(K.dim + 1):
        assert K.faces_masks(i) == tuple(sorted(mask(a) for a in faces if len(a) == i + 1))
    assert K.f_vector() == tuple(sum(len(a) == i + 1 for a in faces) for i in range(K.dim + 1))
    for a in faces:
        # the degree is the size of the union of the facets through a, less a
        union = frozenset().union(*(f for f in facets if a <= f))
        assert K.degree([K.labels[v] for v in a]) == len(union - a)
    for m in range(1 << n):
        assert K.has_face_mask(m) == (frozenset(v for v in range(n) if m >> v & 1) in faces)


# -- the input readers on arbitrary input --------------------------------------

# Labels as the readers meet them: small and large integers, short words, and
# the characters a label may not hold (whitespace, '#', nothing at all).
_LABELS = st.integers(-3, 20) | st.integers() | st.sampled_from(
    ["a", "5'", "", " ", "a b", "#", "x#", "\t"]
)
_FACET_LISTS = st.lists(st.lists(_LABELS, max_size=5), max_size=6)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | _LABELS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


def _read_or_refuse(reader, text):
    """`reader(text)` returns a complex that survives the canonical text
    round trip, or raises PreconditionError; any other exception fails."""
    try:
        K = reader(text)
    except PreconditionError:
        return
    assert from_text(to_text(K)) == K


@given(st.text() | _FACET_LISTS.map(lambda F: "\n".join(" ".join(map(str, f)) for f in F)))
def test_readers_accept_or_refuse_arbitrary_text(text):
    _read_or_refuse(from_text, text)
    _read_or_refuse(from_json, text)


@given(_JSON_VALUES | _FACET_LISTS | st.fixed_dictionaries({"facets": _FACET_LISTS | _JSON_VALUES}))
def test_from_json_accepts_or_refuses_arbitrary_values(value):
    _read_or_refuse(from_json, json.dumps(value))
    _read_or_refuse(from_json, json.dumps(value)[:-1])
