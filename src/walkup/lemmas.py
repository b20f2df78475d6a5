"""Mechanical reproduction of the case analyses behind the uniqueness proof.

The candidate graph of a 2-sphere X has the 4-subsets of V(X) containing
exactly one or two triangles of X as nodes, adjacent when they share a
triangle.  Its maximal cocliques, reduced to orbits under Aut(X), are the
published case lists; the shipped data file maps each case label to its
member sets so the toolkit can confirm the enumeration is complete.

The 29/28 facet-degree dichotomy (eq1) sums, per facet of a neighbourly
9-vertex 3-manifold, its six edge degrees; inclusion-exclusion makes that
sum 28 plus the number of facets disjoint from it, so the dichotomy is
equivalent to "at most one disjoint facet".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations

from . import recognition
from .core import PreconditionError, SimplicialComplex, _antichain, _label_key, _subfaces
from .isomorphism import automorphism_group, normalize_object, orbits

VertexSet = frozenset[str]
SetFamily = frozenset[VertexSet]


@dataclass(frozen=True)
class CandidateGraph:
    base: SimplicialComplex
    nodes: tuple[VertexSet, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class CocliqueCensus:
    """Maximal cocliques of a candidate graph, grouped by size.

    The covering view keeps only families whose members jointly contain
    every triangle of the base sphere, one per Aut-orbit; those are the
    candidates for the facet collections arising in the degree-raising
    analysis, and they are what the published case lists enumerate.
    """

    by_size: dict[int, list[SetFamily]]
    covering_orbit_reps: dict[int, list[SetFamily]]

    def covering_orbit_count(self, size: int) -> int:
        return len(self.covering_orbit_reps.get(size, []))


@dataclass(frozen=True)
class LemmaReport:
    name: str
    ok: bool
    facts: dict
    violations: tuple[str, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "facts": self.facts,
            "violations": list(self.violations),
        }


def _sorted_labels(face: VertexSet) -> str:
    return ",".join(sorted(face, key=_label_key))


# -- candidate graph and its cocliques ----------------------------------------


def candidate_graph(X: SimplicialComplex) -> CandidateGraph:
    """Nodes: 4-subsets of V(X) with exactly 1 or 2 triangles of X."""
    if X.dim != 2 or not recognition.is_two_sphere(X):
        raise PreconditionError("candidate graph needs a combinatorial 2-sphere")
    triangles = set(X.faces_masks(2))
    nodes: list[tuple[VertexSet, set[int]]] = []
    for combo in combinations(range(X.vertex_count), 4):
        mask = sum(1 << b for b in combo)
        inside = {t for t in triangles if t & mask == t}
        if len(inside) in (1, 2):
            nodes.append((X.face_labels(mask), inside))
    nodes.sort(key=lambda item: tuple(sorted((_label_key(v) for v in item[0]))))
    adjacency = tuple(
        tuple(
            j
            for j, (_, other) in enumerate(nodes)
            if j != i and inside & other
        )
        for i, (_, inside) in enumerate(nodes)
    )
    return CandidateGraph(X, tuple(face for face, _ in nodes), adjacency)


def alpha(X: SimplicialComplex) -> int:
    """Node count of the candidate graph; equals (k-2)(2k-9) for k >= 5."""
    if X.vertex_count < 5:
        raise PreconditionError("alpha is defined for 2-spheres with at least 5 vertices")
    return candidate_graph(X).node_count


def alpha_formula(k: int) -> int:
    if k < 5:
        raise PreconditionError("the closed form applies for k >= 5")
    return (k - 2) * (2 * k - 9)


def _maximal_cocliques(graph: CandidateGraph) -> list[frozenset[int]]:
    """Bron-Kerbosch with pivoting on the complement adjacency."""
    n = graph.node_count
    full = (1 << n) - 1
    nonadj = []
    for v in range(n):
        mask = full & ~(1 << v)
        for w in graph.adjacency[v]:
            mask &= ~(1 << w)
        nonadj.append(mask)
    found: list[frozenset[int]] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            found.append(frozenset(i for i in range(n) if (r >> i) & 1))
            return
        pivot_pool = p | x
        pivot = max(
            (v for v in range(n) if (pivot_pool >> v) & 1),
            key=lambda v: (p & nonadj[v]).bit_count(),
        )
        candidates = p & ~nonadj[pivot]
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            candidates ^= low
            expand(r | low, p & nonadj[v], x & nonadj[v])
            p &= ~low
            x |= low
    expand(0, full, 0)
    return found


def covers_all_triangles(X: SimplicialComplex, family) -> bool:
    """Does the family contain every triangle of X in some member?

    Within a coclique members share no triangle, so covering means each
    triangle lies in exactly one member.
    """
    triangles = set(X.faces_masks(2))
    covered = set()
    for node in family:
        mask = X.mask_of(node)
        covered.update(t for t in triangles if t & mask == t)
    return covered == triangles


def coclique_census(X: SimplicialComplex) -> CocliqueCensus:
    """Maximal cocliques of the candidate graph; the covering ones reduced to
    Aut(X)-orbits."""
    if X.vertex_count < 5 or X.vertex_count > 7:
        raise PreconditionError("coclique census covers 2-spheres on 5..7 vertices")
    graph = candidate_graph(X)
    group = automorphism_group(X)
    families = [
        frozenset(graph.nodes[i] for i in clique)
        for clique in _maximal_cocliques(graph)
    ]
    by_size: dict[int, list[SetFamily]] = {}
    for fam in families:
        by_size.setdefault(len(fam), []).append(fam)
    covering = {
        s: [f for f in fams if covers_all_triangles(X, f)] for s, fams in by_size.items()
    }
    covering_orbit_reps = {
        s: [orb.representative for orb in orbits(group, fams)]
        for s, fams in covering.items()
        if fams
    }
    return CocliqueCensus(by_size, covering_orbit_reps)


# -- facet degree ledger and the 28/29 dichotomy -------------------------------


def _require_neighbourly_9(K: SimplicialComplex, what: str) -> None:
    if K.vertex_count != 9 or K.dim != 3:
        raise PreconditionError(f"{what} expects a 9-vertex 3-complex")
    if not recognition.is_combinatorial_3_manifold(K):
        raise PreconditionError(f"{what} expects a combinatorial 3-manifold")
    if not recognition.is_neighbourly(K):
        raise PreconditionError(f"{what} expects a neighbourly complex")


def verify_facet_degree_dichotomy(K: SimplicialComplex) -> LemmaReport:
    """Each facet's six edge degrees sum to 29 when it has one disjoint
    facet and to 28 when it has none.  An edge's degree is the size of the
    union of its facets, less 2: one `stars` pass gives them all."""
    _require_neighbourly_9(K, "eq1")
    union = K.stars(2)[1]
    violations = []
    sums = {29: 0, 28: 0}
    for fm in K.facet_masks:
        total = sum(union[e].bit_count() - 2 for e in _subfaces(fm)[2])
        partners = sum(1 for gm in K.facet_masks if gm & fm == 0)
        label = _sorted_labels(K.face_labels(fm))
        if partners:
            if total != 29 or partners != 1:
                violations.append(f"facet {label}: sum {total}, {partners} disjoint partners")
            else:
                sums[29] += 1
        elif total != 28:
            violations.append(f"facet {label}: sum {total}, no partner")
        else:
            sums[28] += 1
    return LemmaReport(
        "eq1",
        not violations,
        {"facets_with_partner": sums[29], "facets_without_partner": sums[28]},
        tuple(violations),
    )


# -- complement dichotomy (lemma 4.1 surface) ----------------------------------

COMPLEMENT_FVECTORS = ((5, 10, 7, 1), (5, 10, 6, 0))


def verify_complement_dichotomy(K: SimplicialComplex) -> LemmaReport:
    """Every facet complement has f-vector (5,10,7,1) or (5,10,6,0),
    Euler characteristic 1, and is not collapsible."""
    _require_neighbourly_9(K, "the complement dichotomy")
    violations = []
    seen = {fv: 0 for fv in COMPLEMENT_FVECTORS}
    for facet in K.facets():
        comp = K.simplicial_complement(facet)
        label = _sorted_labels(facet)
        fv = comp.f_vector()
        fv = fv + (0,) * (4 - len(fv))  # a complement without tetrahedra has dim 2
        if fv not in COMPLEMENT_FVECTORS:
            violations.append(f"complement of {label} has f-vector {fv}")
            continue
        seen[fv] += 1
        if comp.euler_characteristic() != 1:
            violations.append(f"complement of {label} has chi != 1")
        collapsible, _ = recognition.is_collapsible(comp)
        if collapsible:
            violations.append(f"complement of {label} is collapsible")
    return LemmaReport(
        "lemma4.1",
        not violations,
        {"fvector_counts": {str(fv): c for fv, c in seen.items()}},
        tuple(violations),
    )


# -- disjoint facet pairs, good vertices (lemma 4.2 / 4.5 surfaces) ------------


def _disjoint_pairs(K: SimplicialComplex) -> list[tuple[int, int, int]]:
    """Each disjoint facet pair f, g of a pure 9-vertex 3-complex, in facet
    order, with the one vertex x they leave out: masks f, g and x."""
    full = (1 << K.vertex_count) - 1
    masks = K.facet_masks
    return [(f, g, full ^ f ^ g) for i, f in enumerate(masks) for g in masks[i + 1 :] if not f & g]


def _is_triangle_plus_vertex(masks: list[int]) -> bool:
    """Whether an antichain of masks is the three edges of a triangle and a
    vertex: a vertex kept in an antichain lies on none of its edges."""
    union = 0
    for m in masks:
        union |= m
    return union.bit_count() == 4 and sorted(m.bit_count() for m in masks) == [1, 2, 2, 2]


def verify_disjoint_facet_links(K: SimplicialComplex) -> LemmaReport:
    """For each disjoint facet pair and leftover vertex x, the subcomplex of
    lk(x) induced on either facet, the antichain of lk(x)'s facets cut down
    to it, is a triangle plus an isolated vertex."""
    _require_neighbourly_9(K, "the disjoint-facet link check")
    violations = []
    pairs = _disjoint_pairs(K)
    for f, g, x in pairs:
        link = K.link_masks(x)
        for sigma in (f, g):
            if not _is_triangle_plus_vertex(_antichain(m & sigma for m in link)):
                violations.append(
                    f"lk({K.labels[x.bit_length() - 1]}) induced on "
                    f"{_sorted_labels(K.face_labels(sigma))} is not a triangle plus a vertex"
                )
    return LemmaReport(
        "lemma4.2", not violations, {"disjoint_pairs": len(pairs)}, tuple(violations)
    )


@dataclass(frozen=True)
class GoodVertex:
    vertex: str
    partitions: tuple[tuple[VertexSet, VertexSet], ...]


def good_vertices(K: SimplicialComplex) -> list[GoodVertex]:
    """Vertices x whose complement vertex set splits into two disjoint facets.

    Two disjoint facets of a pure 9-vertex 3-complex leave exactly one
    vertex, so every disjoint facet pair is a partition of one good vertex.
    """
    if K.vertex_count != 9 or K.dim != 3 or not K.is_pure:
        raise PreconditionError("good-vertex scan expects a pure 9-vertex 3-complex")
    by_vertex: dict[int, list[tuple[VertexSet, VertexSet]]] = {}
    for f, g, x in _disjoint_pairs(K):
        by_vertex.setdefault(x, []).append((K.face_labels(f), K.face_labels(g)))
    # ids follow the label order, so ascending masks give the vertices in label order
    return [
        GoodVertex(K.labels[x.bit_length() - 1], tuple(by_vertex[x]))
        for x in sorted(by_vertex)
    ]


def verify_good_vertex_links(K: SimplicialComplex) -> LemmaReport:
    """Every good vertex has link isomorphic to the catalog sphere calS.
    Good-vertex partitions biject with disjoint facet pairs by construction
    (see `good_vertices`)."""
    from .constructions import get_complex
    from .isomorphism import are_isomorphic

    _require_neighbourly_9(K, "the good-vertex link check")
    cal_s = get_complex("calS")
    cal_t = get_complex("calT")
    goods = good_vertices(K)
    violations = []
    for gv in goods:
        link = K.link([gv.vertex])
        iso_s, _ = are_isomorphic(link, cal_s)
        if not iso_s:
            iso_t, _ = are_isomorphic(link, cal_t)
            shape = "calT" if iso_t else "neither calS nor calT"
            violations.append(f"link of good vertex {gv.vertex} is {shape}")
    return LemmaReport(
        "lemma4.5",
        not violations,
        {
            "good_vertices": [gv.vertex for gv in goods],
            "disjoint_pairs": sum(len(gv.partitions) for gv in goods),
        },
        tuple(violations),
    )


# -- published coclique case lists ---------------------------------------------


def load_coclique_cases() -> dict:
    text = resources.files("walkup").joinpath("data", "coclique_cases.json").read_text()
    return json.loads(text)


def coclique_case_check(sphere_name: str) -> LemmaReport:
    """Compare the coclique census of a catalog labeling with its case list."""
    from .constructions import get_complex

    cases = load_coclique_cases()
    if sphere_name not in cases:
        raise PreconditionError(
            f"no case data for {sphere_name!r}; have {', '.join(sorted(cases))}"
        )
    spec = cases[sphere_name]
    X = get_complex(sphere_name)
    group = automorphism_group(X)
    violations = []

    for gen in spec.get("aut_generators", []):
        mapping = {v: gen.get(v, v) for v in X.labels}
        mapped = {frozenset(mapping[v] for v in f) for f in X.facets()}
        if mapped != set(X.facets()):
            violations.append(f"listed generator {gen} is not an automorphism")
    if "aut_order" in spec and group.order != spec["aut_order"]:
        violations.append(f"|Aut| = {group.order} != {spec['aut_order']}")

    compare_sizes = tuple(spec["compare_sizes"])
    census = coclique_census(X)
    graph_nodes = set(candidate_graph(X).nodes)

    # Every published case must itself be a covering maximal coclique.
    case_reps: dict[str, SetFamily] = {}
    for case_name, family in sorted(spec["cases"].items()):
        fam = normalize_object(family)
        if not fam <= graph_nodes:
            violations.append(f"case {case_name} uses sets outside the candidate graph")
            continue
        if fam not in census.by_size.get(len(fam), []):
            violations.append(f"case {case_name} is not a maximal coclique")
            continue
        if not covers_all_triangles(X, fam):
            violations.append(f"case {case_name} does not cover every triangle")
            continue
        case_reps[case_name] = orbits(group, [fam])[0].representative

    # Distinct orbits spanned by the cases must be exactly the census orbits.
    expected_reps = {
        rep for name, rep in case_reps.items()
        if len(spec["cases"][name]) in compare_sizes or not compare_sizes
    }
    computed_reps = {
        rep for s in compare_sizes for rep in census.covering_orbit_reps.get(s, [])
    }
    if expected_reps != computed_reps:
        missing = len(expected_reps - computed_reps)
        extra = len(computed_reps - expected_reps)
        violations.append(
            f"case lists disagree with census orbits ({missing} missing, {extra} extra)"
        )

    # Published per-size counts; a published list that names one orbit twice
    # cannot match the census, and the duplication is reported explicitly.
    by_rep: dict[SetFamily, list[str]] = {}
    for name, rep in case_reps.items():
        by_rep.setdefault(rep, []).append(name)
    duplicates = sorted(names for names in by_rep.values() if len(names) > 1)
    for size_str, expected in sorted(spec["expected_orbit_counts"].items()):
        size = int(size_str)
        got = census.covering_orbit_count(size)
        if got != expected:
            dup_note = "; ".join(
                "published cases " + "/".join(names) + " lie in one orbit"
                for names in duplicates
                if len(spec["cases"][names[0]]) == size
            )
            violations.append(
                f"{got} orbits of size-{size} cocliques, published count {expected}"
                + (f" ({dup_note})" if dup_note else "")
            )

    if spec.get("unique_global_coclique"):
        all_families = [f for fams in census.by_size.values() for f in fams]
        if len(all_families) != 1:
            violations.append(f"{len(all_families)} maximal cocliques, expected a unique one")

    facts = {
        "aut_order": group.order,
        "orbit_counts": {
            s: census.covering_orbit_count(int(s)) for s in spec["expected_orbit_counts"]
        },
        "case_count": len(spec["cases"]),
        "duplicate_published_cases": duplicates,
    }
    return LemmaReport("lemma3.1", not violations, facts, tuple(violations))
