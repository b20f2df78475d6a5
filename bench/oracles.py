"""Independent oracles for the walkup benchmark's output checks.

Nothing here imports walkup.  A complex is a collection of facets, each an
iterable of vertex labels, and every answer comes from plain set code,
from ``networkx`` (VF2 on the vertex-facet incidence graph) or from
``sympy`` (Smith normal form of boundary matrices built here).  Known
values from the literature are asserted by :func:`self_test`; run
``python3 bench/oracles.py`` to run it alone.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

Facets = frozenset  # frozenset of frozensets of vertex labels


class OracleError(ValueError):
    """An oracle was asked something outside its stated domain."""


def facet_set(facets) -> Facets:
    return frozenset(frozenset(str(v) for v in f) for f in facets)


def vertices(F: Facets) -> frozenset:
    return frozenset().union(*F) if F else frozenset()


def dim(F: Facets) -> int:
    return max((len(f) for f in F), default=0) - 1


def faces(F: Facets, size: int) -> set[frozenset]:
    """All faces with `size` vertices."""
    found = set()
    for f in F:
        found.update(frozenset(c) for c in combinations(sorted(f), size))
    return found


def f_vector(F: Facets) -> tuple[int, ...]:
    return tuple(len(faces(F, k + 1)) for k in range(dim(F) + 1))


def euler(F: Facets) -> int:
    return sum((-1) ** i * n for i, n in enumerate(f_vector(F)))


def link(F: Facets, face) -> Facets:
    face = frozenset(face)
    return frozenset(f - face for f in F if face <= f and f != face)


def degrees(F: Facets) -> dict[str, int]:
    """Vertex degree: the number of vertices joined to it by an edge."""
    return {v: len(vertices(link(F, {v}))) for v in vertices(F)}


def _connected(F: Facets) -> bool:
    verts = vertices(F)
    if not verts:
        return True
    reached = {next(iter(verts))}
    grew = True
    while grew:
        grew = False
        for f in F:
            if f & reached and not f <= reached:
                reached |= f
                grew = True
    return reached == verts


def is_pure(F: Facets) -> bool:
    return len({len(f) for f in F}) <= 1


def is_cycle(F: Facets) -> bool:
    if not F or any(len(f) != 2 for f in F):
        return False
    count = Counter(v for f in F for v in f)
    return len(count) >= 3 and all(c == 2 for c in count.values()) and _connected(F)


def is_closed_surface(F: Facets) -> bool:
    """Pure 2-dimensional, every edge in two triangles, every vertex link a
    cycle, connected."""
    if not F or any(len(f) != 3 for f in F):
        return False
    edge_count = Counter(e for f in F for e in map(frozenset, combinations(f, 2)))
    if any(c != 2 for c in edge_count.values()):
        return False
    return all(is_cycle(link(F, {v})) for v in vertices(F)) and _connected(F)


def is_two_sphere(F: Facets) -> bool:
    return is_closed_surface(F) and euler(F) == 2


def is_pseudomanifold(F: Facets) -> bool:
    """Pure of dimension >= 1, every ridge in two facets, and the facets
    connected through shared ridges."""
    if not F or not is_pure(F) or dim(F) < 1:
        return False
    ridge_count = Counter(f - {v} for f in F for v in f)
    if any(c != 2 for c in ridge_count.values()):
        return False
    facets = list(F)
    seen = {facets[0]}
    stack = [facets[0]]
    while stack:
        f = stack.pop()
        for g in facets:
            if g not in seen and len(f & g) == len(f) - 1:
                seen.add(g)
                stack.append(g)
    return len(seen) == len(facets)


def is_three_manifold(F: Facets) -> bool:
    """Dimension 3 and every vertex link a connected closed surface with
    Euler characteristic 2."""
    return dim(F) == 3 and all(is_two_sphere(link(F, {v})) for v in vertices(F))


def is_neighbourly(F: Facets) -> bool:
    """Every floor(d/2)+1 vertices span a face."""
    size = dim(F) // 2 + 1
    present = faces(F, size)
    return all(frozenset(c) in present for c in combinations(sorted(vertices(F)), size))


def recognition(F: Facets) -> dict[str, bool]:
    """The six properties of a walkup recognition report, by their names."""
    surface = is_closed_surface(F)
    return {
        "is_pure": is_pure(F),
        "is_pseudomanifold": is_pseudomanifold(F),
        "is_closed_surface": surface,
        "is_two_sphere": surface and euler(F) == 2,
        "is_three_manifold": is_three_manifold(F),
        "is_neighbourly": is_neighbourly(F),
    }


# -- homology ------------------------------------------------------------------


def homology(F: Facets) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(Betti numbers, torsion coefficients) for H_0..H_d from sympy's Smith
    normal form; torsion of H_i is listed as its prime-power factors."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    d = dim(F)
    by_dim = [sorted(tuple(sorted(s)) for s in faces(F, k + 1)) for k in range(d + 1)]
    rank = [0] * (d + 2)
    torsion: list[tuple[int, ...]] = [()] * (d + 1)
    for i in range(1, d + 1):
        rows = {s: r for r, s in enumerate(by_dim[i - 1])}
        mat = [[0] * len(by_dim[i]) for _ in rows]
        for c, s in enumerate(by_dim[i]):
            for j in range(len(s)):
                mat[rows[s[:j] + s[j + 1:]]][c] = (-1) ** j
        snf = smith_normal_form(Matrix(mat), domain=ZZ)
        diagonal = [abs(int(snf[k, k])) for k in range(min(snf.shape))]
        rank[i] = sum(1 for x in diagonal if x)
        torsion[i - 1] = prime_powers(x for x in diagonal if x > 1)
    betti = tuple(len(by_dim[i]) - rank[i] - rank[i + 1] for i in range(d + 1))
    return betti, tuple(torsion)


def prime_powers(coefficients) -> tuple[int, ...]:
    """The sorted elementary divisors of the sum of Z/c over `coefficients`;
    equal exactly when the torsion groups are isomorphic."""
    from sympy import factorint

    return tuple(sorted(p**e for c in coefficients for p, e in factorint(c).items()))


# -- isomorphism and automorphisms ---------------------------------------------


def incidence_graph(F: Facets):
    """The vertex-facet incidence graph.  Each node's `kind` is "v" or "f"
    followed by the sorted edge degrees (facets per edge) at that vertex or
    in that facet: an invariant that keeps VF2 and the Weisfeiler-Lehman
    hash from treating the regular graphs of neighbourly complexes alike."""
    import networkx as nx

    edge_degree = Counter(e for f in F for e in map(frozenset, combinations(f, 2)))
    at_vertex: dict[str, list[int]] = {}
    for e, k in edge_degree.items():
        for v in e:
            at_vertex.setdefault(v, []).append(k)
    G = nx.Graph()
    for v in vertices(F):
        G.add_node(("v", v), kind="v" + str(sorted(at_vertex.get(v, []))))
    for i, f in enumerate(sorted(F, key=sorted)):
        inside = sorted(edge_degree[frozenset(e)] for e in combinations(f, 2))
        G.add_node(("f", i), kind="f" + str(inside))
        for v in f:
            G.add_edge(("f", i), ("v", v))
    return G


def _same_kind(a, b) -> bool:
    return a["kind"] == b["kind"]


def automorphism_count(F: Facets) -> int:
    """|Aut|: VF2 self-isomorphisms of the incidence graph that keep vertices
    on vertices.  A vertex permutation fixes at most one facet map, so the
    count is the order of the complex's automorphism group.  Matching on the
    edge-degree labels prunes the search and loses no automorphism, since
    automorphisms preserve edge degrees."""
    from networkx.algorithms.isomorphism import GraphMatcher

    G = incidence_graph(F)
    return sum(1 for _ in GraphMatcher(G, G, node_match=_same_kind).isomorphisms_iter())


def isomorphic(F: Facets, H: Facets) -> bool:
    from networkx.algorithms.isomorphism import GraphMatcher

    if f_vector(F) != f_vector(H):
        return False
    return GraphMatcher(incidence_graph(F), incidence_graph(H), node_match=_same_kind).is_isomorphic()


def isomorphism_classes(complexes: list[Facets]) -> list[int]:
    """Class index of each complex: grouped by a Weisfeiler-Lehman hash, then
    split by pairwise VF2 tests inside each group."""
    import networkx as nx

    groups: dict[str, list[int]] = {}
    for i, F in enumerate(complexes):
        key = nx.weisfeiler_lehman_graph_hash(incidence_graph(F), node_attr="kind")
        groups.setdefault(key, []).append(i)
    cls = [-1] * len(complexes)
    next_id = 0
    for members in groups.values():
        for i in members:
            if cls[i] >= 0:
                continue
            cls[i] = next_id
            for j in members:
                if cls[j] < 0 and isomorphic(complexes[i], complexes[j]):
                    cls[j] = next_id
            next_id += 1
    return cls


def maps_facets_onto(F: Facets, H: Facets, witness: dict) -> bool:
    """Whether the vertex map `witness` carries the facets of F onto those of H."""
    if set(witness) != set(vertices(F)) or len(set(witness.values())) != len(witness):
        return False
    return frozenset(frozenset(witness[v] for v in f) for f in F) == H


# -- constructions and moves ---------------------------------------------------


def walkup_facets(d: int) -> Facets:
    """Walkup's d-manifold: on the (2d+3)-cycle, drop one interior vertex from
    each run of d+2 consecutive vertices.  d=3 is K^3_9, d=2 the 7-vertex torus."""
    n = 2 * d + 3
    facets = set()
    for start in range(n):
        run = [(start + k) % n + 1 for k in range(d + 2)]
        for dropped in run[1:-1]:
            facets.add(frozenset(str(v) for v in run if v != dropped))
    return frozenset(facets)


RP2 = facet_set(
    s.split() for s in [
        "1 2 3", "1 3 4", "1 4 5", "1 5 6", "1 6 2",
        "2 3 5", "3 4 6", "4 5 2", "5 6 3", "6 2 4",
    ]
)


def one_point_suspension(F: Facets, u: str, v: str) -> Facets:
    """Cone every facet from the fresh vertex v and every facet missing u from u."""
    return frozenset({f | {v} for f in F} | {f | {u} for f in F if u not in f})


def apply_one_move(F: Facets, alpha, beta) -> Facets:
    """Replace the two tetrahedra through triangle alpha by the three through
    edge beta; alpha's link must be beta's two vertices, and beta a non-edge."""
    alpha, beta = frozenset(alpha), frozenset(beta)
    if len(alpha) != 3 or len(beta) != 2 or alpha & beta:
        raise OracleError(f"not a 1-move: alpha={sorted(alpha)} beta={sorted(beta)}")
    star = {f for f in F if alpha <= f}
    if star != {alpha | {b} for b in beta}:
        raise OracleError(f"link of {sorted(alpha)} is not {sorted(beta)}")
    if any(beta <= f for f in F):
        raise OracleError(f"{sorted(beta)} is already an edge")
    return frozenset((F - star) | {beta | (alpha - {v}) for v in alpha})


# -- self-test -----------------------------------------------------------------


def self_test() -> None:
    """Assert known values, so that a broken oracle cannot pass a check."""
    k39, k27 = walkup_facets(3), walkup_facets(2)
    assert f_vector(k39) == (9, 36, 54, 27)
    assert automorphism_count(k27) == 42
    assert automorphism_count(RP2) == 60
    assert automorphism_count(k39) == 18
    assert homology(k39) == ((1, 1, 0, 0), ((), (), (2,), ()))
    assert homology(RP2) == ((1, 0, 0), ((), (2,), ()))
    assert homology(k27) == ((1, 2, 1), ((), (), ()))
    assert is_three_manifold(k39) and is_neighbourly(k39) and not is_two_sphere(k39)
    assert is_closed_surface(k27) and euler(k27) == 0 and not is_two_sphere(k27)
    assert is_closed_surface(RP2) and euler(RP2) == 1
    suspension = one_point_suspension(k27, "1", "s")
    assert is_pseudomanifold(suspension) and not is_three_manifold(suspension)
    # boundary of the 4-simplex with vertex 6 starred into 1234: the 1-move
    # on 123 adds the one missing edge 56 and leaves a neighbourly 3-sphere
    simplex = facet_set(combinations("12345", 4))
    starred = (simplex - {frozenset("1234")}) | {frozenset("1234") - {v} | {"6"} for v in "1234"}
    moved = apply_one_move(starred, "123", "56")
    assert len(moved) == len(starred) + 1 and is_three_manifold(moved) and is_neighbourly(moved)
    assert homology(moved) == ((1, 0, 0, 1), ((), (), (), ()))
    assert isomorphic(k39, facet_set({str(10 - int(v)) for v in f} for f in k39))
    assert not isomorphic(k39, moved)
    assert isomorphism_classes([k27, RP2, k39, k27]) == [0, 1, 2, 0]


if __name__ == "__main__":
    self_test()
    print("oracle self-test passed")
