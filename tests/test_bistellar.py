from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from walkup import bistellar, constructions, recognition
from walkup.bistellar import (
    BistellarMove,
    apply_move,
    classify_face,
    degree_raising_moves,
    neighbourly_reduction,
    proper_moves,
    raise_min_degree,
    random_three_sphere,
    removable_faces,
    star_vertex,
)
from walkup.core import PreconditionError, SimplicialComplex, from_facets, to_text
from walkup.isomorphism import canonical_form


def test_no_moves_on_k39(k39):
    assert removable_faces(k39, 2) == []
    # a 1-move needs a non-edge as its opposing face; k39 is neighbourly
    assert removable_faces(k39, 1) == []


def test_edge_15_blocked_by_face(k39):
    status, beta = classify_face(k39, ["1", "5"])
    assert status == bistellar.BETA_IS_FACE
    assert beta == frozenset({"2", "3", "4"})


def test_moves_have_disjoint_alpha_beta(c37):
    for K in (c37, random_three_sphere(9)):
        for i in (1, 2, 3):
            for move in removable_faces(K, i):
                assert move.alpha.isdisjoint(move.beta)
                assert not K.has_face(move.beta)
                assert move.move_type == K.dim - (len(move.alpha) - 1)


def test_minimal_sphere_has_no_3_moves():
    s35 = constructions.standard_sphere(3)
    assert removable_faces(s35, 3) == []
    with pytest.raises(PreconditionError):
        removable_faces(s35, 4)


def test_apply_one_move_f_vector_delta():
    K = random_three_sphere(7)
    ones = removable_faces(K, 1)
    assert ones, "churned spheres should admit 1-moves"
    after = apply_move(K, ones[0])
    assert tuple(b - a for a, b in zip(K.f_vector(), after.f_vector())) == (0, 1, 2, 1)
    degrees_before = bistellar.vertex_degrees(K)
    degrees_after = bistellar.vertex_degrees(after)
    assert all(degrees_after[v] >= degrees_before[v] for v in K.labels)


def test_move_inverse_round_trip(k39, c37):
    pool = [random_three_sphere(3), c37, random_three_sphere(11)]
    for K in pool:
        base = canonical_form(K).bytes
        for move in proper_moves(K)[:8]:
            forward = apply_move(K, move)
            back = apply_move(forward, move.inverse(K.dim))
            assert canonical_form(back).bytes == base


def test_stale_move_rejected():
    K = random_three_sphere(5)
    moves = proper_moves(K)
    move = moves[0]
    after = apply_move(K, move)
    with pytest.raises(PreconditionError):
        apply_move(after, move)


def test_star_vertex(catalog):
    s1 = catalog["S1"]
    starred = star_vertex(s1, s1.facets()[0], "e")
    assert canonical_form(starred) == canonical_form(catalog["S2"])
    # a starred 3-complex gains (1, 4, 6, 3)
    s35 = constructions.standard_sphere(3)
    starred3 = star_vertex(s35, s35.facets()[0], "6")
    assert tuple(b - a for a, b in zip(s35.f_vector(), starred3.f_vector())) == (1, 4, 6, 3)
    with pytest.raises(PreconditionError):
        star_vertex(s1, ["a", "b"], "f")
    with pytest.raises(PreconditionError):
        star_vertex(s1, s1.facets()[0], s1.labels[0])


def test_raise_min_degree_guarantee():
    for seed in range(8):
        K = random_three_sphere(seed)
        if recognition.is_neighbourly(K):
            continue
        move = raise_min_degree(K)
        degrees = bistellar.vertex_degrees(K)
        low = min(degrees.values())
        after = apply_move(K, move)
        degrees_after = bistellar.vertex_degrees(after)
        target = min((v for v, d in degrees.items() if d == low))
        assert degrees_after[target] == low + 1


def test_raise_min_degree_matches_the_move_scan():
    """At every step of seeded reductions, the move `_raise_min_degree` finds
    from the facets through u is the least 1-move of the whole table whose
    new edge holds u, a least-degree vertex."""
    steps = 0
    for seed in range(12):
        K = random_three_sphere(seed)
        table = bistellar._StarTable(K.facet_masks, 3)
        while len(table.stars[2]) < 36:
            degrees = table.degrees()
            um = 1 << degrees.index(min(degrees))
            expected = [m for m in table.moves([1]) if m[1] & um][0]
            assert bistellar._raise_min_degree(table, K.labels) == expected
            table.apply(*expected[:2])
            steps += 1
    assert steps > 40


def test_raise_min_degree_at_degree_four():
    # starring into an 8-vertex sphere forces a degree-4 minimum vertex
    base = random_three_sphere(3, vertices=8)
    K = star_vertex(base, base.facets()[0], "9")
    degrees = bistellar.vertex_degrees(K)
    assert min(degrees.values()) == 4 == degrees["9"]
    move = raise_min_degree(K)
    after = bistellar.vertex_degrees(apply_move(K, move))
    assert after["9"] == 5


def test_raise_min_degree_preconditions(k39, m10):
    with pytest.raises(PreconditionError):
        raise_min_degree(k39)  # already neighbourly: min degree is n-1
    with pytest.raises(PreconditionError):
        raise_min_degree(m10)  # ten vertices


def test_connected_sum_admits_no_raise_at_vertex_6(m10):
    assert degree_raising_moves(m10, "6") == []


def test_neighbourly_reduction_on_k39(k39):
    reduced, moves = neighbourly_reduction(k39)
    assert moves == []
    assert reduced == k39


def test_neighbourly_reduction_minimal_skeleton_needs_ten_moves():
    # seed 20 grows a sphere with f_1 = 26, the minimum for 9 vertices
    K = random_three_sphere(20)
    assert len(K.faces_masks(1)) == 26
    _, moves = neighbourly_reduction(K)
    assert len(moves) == 10


def test_vertex_collapse_three_move():
    # starring into a facet of the 5-vertex sphere leaves a degree-4 vertex
    # whose 3-move deletes it again
    s35 = constructions.standard_sphere(3)
    starred = star_vertex(s35, s35.facets()[0], "6")
    threes = removable_faces(starred, 3)
    assert frozenset({"6"}) in {m.alpha for m in threes}
    move = next(m for m in threes if m.alpha == frozenset({"6"}))
    collapsed = apply_move(starred, move)
    assert collapsed.vertex_count == starred.vertex_count - 1
    assert canonical_form(collapsed) == canonical_form(s35)


def test_neighbourly_reduction_statistics():
    rng = random.Random(99)
    for _ in range(25):
        seed = rng.randrange(10**6)
        K = random_three_sphere(seed)
        f1 = len(K.faces_masks(1))
        reduced, moves = neighbourly_reduction(K)
        assert len(moves) == 36 - f1 <= 10
        assert recognition.is_neighbourly(reduced)
        current = K
        for move in moves:
            degrees = bistellar.vertex_degrees(current)
            current = apply_move(current, move)
            after = bistellar.vertex_degrees(current)
            assert all(after[v] >= degrees[v] for v in degrees)
        assert current == reduced


def test_random_sphere_generator_is_seeded():
    a = random_three_sphere(17)
    b = random_three_sphere(17)
    assert a == b
    c = random_three_sphere(18)
    assert a != c
    assert a.vertex_count == 9
    assert recognition.is_combinatorial_3_manifold(a)


# The seeded move stream: the spheres grown by `random_three_sphere` and the
# reductions of the 9-vertex ones, move by move.  Any change to move detection
# that alters which move the generator picks, or the order of a reduction's
# moves, changes this digest and with it every seeded workload.
STREAM_CASES = [(s, 9) for s in range(40)] + [(s, v) for v in (5, 12, 16) for s in range(3)]
STREAM_DIGEST = "9f46ecb538d527da9b2293eb0b0c63cf32d2e3a26ea329b7450c793518517e53"


def test_seeded_move_stream_is_pinned():
    def labels(face):
        return " ".join(sorted(face, key=bistellar._label_key))

    h = hashlib.sha256()
    for s, v in STREAM_CASES:
        K = random_three_sphere(s, vertices=v)
        h.update(to_text(K).encode())
        if v == 9:
            reduced, moves = neighbourly_reduction(K)
            h.update(to_text(reduced).encode())
            for m in moves:
                h.update(f"{labels(m.alpha)}|{labels(m.beta)}|{m.move_type}\n".encode())
    assert h.hexdigest() == STREAM_DIGEST


# -- an independent reference: plain frozensets, no masks ----------------------


def _ref_faces(F):
    return {frozenset(c) for f in F for k in range(1, len(f) + 1) for c in combinations(f, k)}


def _ref_classify(F, dim, alpha):
    """The link of alpha must be the boundary of the simplex on beta; then the
    move is blocked exactly when beta is already a face."""
    link = {f - alpha for f in F if alpha < f}
    beta = frozenset().union(*link)
    if len(beta) == dim - len(alpha) + 2 and link == {beta - {v} for v in beta}:
        blocked = any(beta <= f for f in F)
        return (bistellar.BETA_IS_FACE if blocked else bistellar.REMOVABLE), beta
    return bistellar.LINK_NOT_BOUNDARY, None


def _ref_degrees(F):
    vertices = frozenset().union(*F)
    return {v: len(frozenset().union(*(f for f in F if v in f))) - 1 for v in vertices}


def test_move_detection_matches_a_frozenset_reference(kernel_pool):
    for name, K in kernel_pool:
        F = {frozenset(f) for f in K.facets()}
        faces = _ref_faces(F)
        for alpha in faces:
            assert classify_face(K, alpha) == _ref_classify(F, K.dim, alpha), (name, alpha)
        assert bistellar.vertex_degrees(K) == _ref_degrees(F), name
        if not recognition.is_pseudomanifold(K):
            assert name == "non-pure"
            continue
        for i in range(1, K.dim + 1):
            moves = removable_faces(K, i)
            expected = {
                (alpha, _ref_classify(F, K.dim, alpha)[1])
                for alpha in faces
                if len(alpha) == K.dim - i + 1
                and _ref_classify(F, K.dim, alpha)[0] == bistellar.REMOVABLE
            }
            assert {(m.alpha, m.beta) for m in moves} == expected, (name, i)
            assert all(m.move_type == i for m in moves)
            assert moves == sorted(moves, key=BistellarMove.sort_key)
        expected_proper = [m for i in range(1, K.dim) for m in removable_faces(K, i)]
        assert proper_moves(K) == sorted(expected_proper, key=BistellarMove.sort_key)


def test_degree_raising_moves_match_the_reference(kernel_pool):
    for name, K in kernel_pool:
        if K.dim != 3:
            continue
        F = {frozenset(f) for f in K.facets()}
        for u in K.labels:
            # 1-moves on triangles of lk(u) whose new edge ends at u
            expected = set()
            for f in F:
                if u in f and len(f) == 4:
                    status, beta = _ref_classify(F, 3, f - {u})
                    if status == bistellar.REMOVABLE:
                        expected.add((f - {u}, beta))
            got = degree_raising_moves(K, u)
            assert {(m.alpha, m.beta) for m in got} == expected, (name, u)
            assert all(u in m.beta and m.move_type == 1 for m in got)


def test_applied_moves_match_the_reference(kernel_pool):
    """Every move of every type 1..d, against the frozenset rule; a d-move
    removes a vertex, and the result keeps only the labels still in use."""
    for name, K in kernel_pool:
        if not recognition.is_pseudomanifold(K):
            continue
        F = {frozenset(f) for f in K.facets()}
        for move in [m for i in range(1, K.dim + 1) for m in removable_faces(K, i)]:
            after = apply_move(K, move)
            kept = {f for f in F if not move.alpha <= f}
            added = {move.beta | (move.alpha - {v}) for v in move.alpha}
            assert {frozenset(f) for f in after.facets()} == kept | added, (name, move)
            assert set(after.labels) == set().union(*kept, *added)
            assert after.labels == tuple(sorted(after.labels, key=bistellar._label_key))


def _replay_reduction(F, moves):
    """Replay degree-raising 1-moves on the frozenset facets F, checking each
    one from scratch: the link of alpha is the boundary of the simplex on
    beta, beta is a non-edge at a vertex of least degree, and no vertex
    degree falls.  Returns the facets at the end."""
    for m in moves:
        alpha, beta = m.alpha, m.beta
        assert m.move_type == 1 and len(beta) == 2
        assert {f - alpha for f in F if alpha < f} == {beta - {v} for v in beta}
        assert not any(beta <= f for f in F)
        degrees = _ref_degrees(F)
        assert min(degrees[v] for v in beta) == min(degrees.values())
        F = {f for f in F if not alpha <= f} | {beta | (alpha - {v}) for v in alpha}
        assert all(d <= _ref_degrees(F)[v] for v, d in degrees.items())
    return F


@pytest.mark.slow
@pytest.mark.full_census
def test_every_census_class_reduces_to_a_neighbourly_class(k39, full_census, neighbourly_census):
    """The paper's reduction theorem on the whole 9-vertex census: each
    non-neighbourly class reaches a neighbourly one by 36 - f_1 proper
    1-moves, and the endpoint is a class of the neighbourly census."""
    from walkup.isomorphism import automorphism_group

    neighbourly = {canonical_form(K).bytes: K for K in neighbourly_census.complexes}
    move_counts = Counter()
    reached = set()
    for K in full_census.complexes:
        if recognition.is_neighbourly(K):
            continue
        reduced, moves = neighbourly_reduction(K)
        assert len(moves) == 36 - len(K.faces_masks(1))
        F = _replay_reduction({frozenset(f) for f in K.facets()}, moves)
        assert F == {frozenset(f) for f in reduced.facets()}
        reached.add(canonical_form(reduced).bytes)
        move_counts[len(moves)] += 1
    assert reached <= neighbourly.keys()
    assert [move_counts[k] for k in range(1, 11)] == [121, 209, 231, 223, 175, 128, 84, 45, 23, 7]
    assert move_counts.total() == 1246
    # never reached: k39 and one sphere with 18 automorphisms
    missed = neighbourly.keys() - reached
    assert len(missed) == 2 and canonical_form(k39).bytes in missed
    (sphere,) = missed - {canonical_form(k39).bytes}
    assert automorphism_group(neighbourly[sphere]).order == 18


# -- the star table kept across a walk -----------------------------------------


def _subsets(mask, k):
    return {sum(c) for c in combinations([1 << b for b in range(16) if mask >> b & 1], k)}


@pytest.mark.parametrize("vertices", [9, 12, 16])
def test_star_table_matches_a_rebuild_after_every_step(vertices):
    """Seeded walks of star steps, 1-moves and 2-moves: after each step the
    table kept in place equals one built from the current facets, and no
    emptied face is left behind."""
    for seed in range(3):
        rng = random.Random(f"{seed}:{vertices}")
        table = bistellar._StarTable([0b11111 ^ (1 << b) for b in range(5)], 3)
        n, steps = 5, {"star": 0, 1: 0, 2: 0}
        while n < vertices or steps[1] + steps[2] < 40:
            kind = rng.choice(["star", 1, 2] if n < vertices else [1, 2])
            if kind == "star":
                table.apply(rng.choice(sorted(table.facets)), 1 << n)
                n += 1
            else:
                moves = table.moves([kind])
                if not moves:
                    continue
                alpha, beta, _ = rng.choice(moves)
                table.apply(alpha, beta)
            steps[kind] += 1
            rebuilt = bistellar._StarTable(table.facets, table.dim)
            assert table.facets == rebuilt.facets and table.stars == rebuilt.stars
            # the keys are exactly the faces: no emptied face is left behind
            for k in range(1, 4):
                assert set(table.stars[k]) == {a for f in table.facets for a in _subsets(f, k)}
                assert all(table.stars[k].values())
        assert n == vertices and min(steps.values()) > 0
        K = SimplicialComplex(tuple(sorted(table.facets)), tuple(map(str, range(1, n + 1))))
        assert recognition.is_combinatorial_3_manifold(K)


# -- preconditions are checked once, at the entry points -----------------------


@pytest.fixture
def broken(k39):
    """k39 without one facet: pure, but not a pseudomanifold."""
    return from_facets(k39.facets()[1:])


@pytest.fixture
def torus_join():
    """The 7-vertex torus joined with two points: a 9-vertex
    pseudomanifold whose links at the two cone points are tori."""
    return constructions.walkup_complex(2).join(from_facets([["a"], ["b"]]))


def test_entry_points_reject_bad_inputs(broken, torus_join):
    for i in (1, 2, 3):
        with pytest.raises(PreconditionError, match="pseudomanifold"):
            removable_faces(broken, i)
    with pytest.raises(PreconditionError, match="pseudomanifold"):
        proper_moves(broken)
    assert recognition.is_pseudomanifold(torus_join)
    with pytest.raises(PreconditionError, match="3-manifold"):
        raise_min_degree(torus_join)
    with pytest.raises(PreconditionError, match="3-manifold"):
        neighbourly_reduction(torus_join)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(recognition, name)

    def counting(K):
        calls.append(K)
        return original(K)

    monkeypatch.setattr(recognition, name, counting)
    return calls


def test_checks_run_once_per_public_call(monkeypatch):
    K = random_three_sphere(4)
    pseudo = _count_calls(monkeypatch, "is_pseudomanifold")
    manifold = _count_calls(monkeypatch, "is_combinatorial_3_manifold")
    assert random_three_sphere(4) == K
    assert pseudo == [] and manifold == []
    proper_moves(K)
    assert len(pseudo) == 1
    removable_faces(K, 1)
    assert len(pseudo) == 2
    reduced, moves = neighbourly_reduction(K)
    assert len(moves) >= 2 and recognition.is_neighbourly(reduced)
    assert len(manifold) == 1 and len(pseudo) == 2
