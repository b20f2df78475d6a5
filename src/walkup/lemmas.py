"""Mechanical reproduction of the case analyses behind the uniqueness proof.

The candidate graph of a 2-sphere X has the 4-subsets of V(X) containing
exactly one or two triangles of X as nodes, adjacent when they share a
triangle.  Its maximal cocliques, reduced to orbits under Aut(X), are the
published case lists; the shipped data file maps each case label to its
member sets so the toolkit can confirm the enumeration is complete.

The facet-degree ledger carries, per facet of a neighbourly 9-vertex
3-manifold, the sum of its six edge degrees; inclusion-exclusion makes that
sum 28 plus the number of facets disjoint from it, so the 29/28 dichotomy is
equivalent to "at most one disjoint facet".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations

from . import recognition
from .core import PreconditionError, SimplicialComplex, _label_key
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

    The covering views keep only families whose members jointly contain
    every triangle of the base sphere; those are the candidates for the
    facet collections arising in the degree-raising analysis, and they are
    what the published case lists enumerate.
    """

    by_size: dict[int, list[SetFamily]]
    orbit_reps: dict[int, list[SetFamily]]
    covering_by_size: dict[int, list[SetFamily]]
    covering_orbit_reps: dict[int, list[SetFamily]]
    group_order: int

    def total(self, size: int) -> int:
        return len(self.by_size.get(size, []))

    def orbit_count(self, size: int) -> int:
        return len(self.orbit_reps.get(size, []))

    def covering_orbit_count(self, size: int) -> int:
        return len(self.covering_orbit_reps.get(size, []))


@dataclass(frozen=True)
class LedgerEntry:
    facet: VertexSet
    edge_degree_sum: int
    disjoint_partners: tuple[VertexSet, ...]


@dataclass(frozen=True)
class FacetDegreeLedger:
    """Per-facet edge-degree sums of a neighbourly 9-vertex 3-manifold.

    The counting identity (sum equals 28 plus the number of disjoint facets)
    holds for every such manifold; the 29/28 dichotomy additionally needs
    every facet to have at most one disjoint partner, which the complement
    analysis guarantees for the non-sphere but not for spheres.
    """

    entries: tuple[LedgerEntry, ...]
    identity_holds: bool
    dichotomy_holds: bool


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


def coclique_census(
    X: SimplicialComplex, sizes: tuple[int, ...] | None = None
) -> CocliqueCensus:
    """Maximal cocliques of the candidate graph, reduced to Aut(X)-orbits."""
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
    if sizes is not None:
        by_size = {s: fams for s, fams in by_size.items() if s in sizes}
    covering_by_size = {
        s: [f for f in fams if covers_all_triangles(X, f)]
        for s, fams in by_size.items()
    }
    covering_by_size = {s: fams for s, fams in covering_by_size.items() if fams}

    def reduce(table: dict[int, list[SetFamily]]) -> dict[int, list[SetFamily]]:
        return {
            s: [orb.representative for orb in orbits(group, fams)]
            for s, fams in table.items()
        }

    return CocliqueCensus(
        by_size, reduce(by_size), covering_by_size, reduce(covering_by_size), group.order
    )


# -- facet degree ledger and the 28/29 dichotomy -------------------------------


def _require_neighbourly_9(K: SimplicialComplex, what: str) -> None:
    if K.vertex_count != 9 or K.dim != 3:
        raise PreconditionError(f"{what} expects a 9-vertex 3-complex")
    if not recognition.is_combinatorial_3_manifold(K):
        raise PreconditionError(f"{what} expects a combinatorial 3-manifold")
    if not recognition.is_neighbourly(K):
        raise PreconditionError(f"{what} expects a neighbourly complex")


def facet_degree_ledger(K: SimplicialComplex) -> FacetDegreeLedger:
    _require_neighbourly_9(K, "the facet-degree ledger")
    entries = []
    identity = True
    dichotomy = True
    for fm in K.facet_masks:
        facet = K.face_labels(fm)
        total = sum(K.degree(pair) for pair in combinations(sorted(facet), 2))
        partners = tuple(
            K.face_labels(gm) for gm in K.facet_masks if gm & fm == 0
        )
        entries.append(LedgerEntry(facet, total, partners))
        if total != 28 + len(partners):
            identity = False
        if len(partners) > 1:
            dichotomy = False
    return FacetDegreeLedger(tuple(entries), identity, identity and dichotomy)


def verify_facet_degree_dichotomy(K: SimplicialComplex) -> LemmaReport:
    ledger = facet_degree_ledger(K)
    violations = []
    sums = {29: 0, 28: 0}
    for entry in ledger.entries:
        label = _sorted_labels(entry.facet)
        if entry.disjoint_partners:
            if entry.edge_degree_sum != 29 or len(entry.disjoint_partners) != 1:
                violations.append(
                    f"facet {label}: sum {entry.edge_degree_sum}, "
                    f"{len(entry.disjoint_partners)} disjoint partners"
                )
            else:
                sums[29] += 1
        elif entry.edge_degree_sum != 28:
            violations.append(f"facet {label}: sum {entry.edge_degree_sum}, no partner")
        else:
            sums[28] += 1
    return LemmaReport(
        "eq1",
        not violations,
        {"facets_with_partner": sums[29], "facets_without_partner": sums[28]},
        tuple(violations),
    )


def degree_equation_check(K: SimplicialComplex) -> LemmaReport:
    """Edge-degree histogram arithmetic: counts sum to 36, weighted sum to 162."""
    _require_neighbourly_9(K, "the degree equations")
    hist = K.edge_degree_histogram()
    total = sum(hist.values())
    weighted = sum(d * c for d, c in hist.items())
    violations = []
    if total != 36:
        violations.append(f"edge count {total} != 36")
    if weighted != 162:
        violations.append(f"degree-weighted count {weighted} != 162")
    return LemmaReport(
        "degree-equations", not violations, {"histogram": dict(sorted(hist.items()))},
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


def disjoint_facet_pairs(K: SimplicialComplex) -> list[tuple[VertexSet, VertexSet]]:
    pairs = []
    masks = K.facet_masks
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & masks[j] == 0:
                pairs.append((K.face_labels(masks[i]), K.face_labels(masks[j])))
    return pairs


def _is_triangle_plus_isolated(L: SimplicialComplex) -> bool:
    if L.vertex_count != 4 or L.dim != 1 or len(L.facet_masks) != 4:
        return False
    edges = [m for m in L.facet_masks if m.bit_count() == 2]
    lone = [m for m in L.facet_masks if m.bit_count() == 1]
    if len(edges) != 3 or len(lone) != 1:
        return False
    covered = 0
    for e in edges:
        covered |= e
    return covered.bit_count() == 3 and not (covered & lone[0])


def verify_disjoint_facet_links(K: SimplicialComplex) -> LemmaReport:
    """For each disjoint facet pair and leftover vertex x, the induced
    subcomplex of lk(x) on either facet is a triangle plus an isolated vertex."""
    _require_neighbourly_9(K, "the disjoint-facet link check")
    violations = []
    pairs = disjoint_facet_pairs(K)
    for sigma1, sigma2 in pairs:
        leftover = set(K.labels) - set(sigma1) - set(sigma2)
        if len(leftover) != 1:
            violations.append(f"pair {_sorted_labels(sigma1)} | {_sorted_labels(sigma2)} leaves {len(leftover)} vertices")
            continue
        x = leftover.pop()
        link = K.link([x])
        for sigma in (sigma1, sigma2):
            induced = link.induced_subcomplex(sigma)
            if not _is_triangle_plus_isolated(induced):
                violations.append(
                    f"lk({x}) induced on {_sorted_labels(sigma)} is not a triangle plus a vertex"
                )
    return LemmaReport(
        "lemma4.2", not violations, {"disjoint_pairs": len(pairs)}, tuple(violations)
    )


@dataclass(frozen=True)
class GoodVertex:
    vertex: str
    partitions: tuple[tuple[VertexSet, VertexSet], ...]


def good_vertices(K: SimplicialComplex) -> list[GoodVertex]:
    """Vertices x whose complement vertex set splits into two disjoint facets."""
    if K.vertex_count != 9 or K.dim != 3:
        raise PreconditionError("good-vertex scan expects a 9-vertex 3-complex")
    if not recognition.is_combinatorial_3_manifold(K):
        raise PreconditionError("good-vertex scan expects a combinatorial 3-manifold")
    by_vertex: dict[str, list[tuple[VertexSet, VertexSet]]] = {}
    for sigma1, sigma2 in disjoint_facet_pairs(K):
        leftover = set(K.labels) - set(sigma1) - set(sigma2)
        if len(leftover) == 1:
            by_vertex.setdefault(leftover.pop(), []).append((sigma1, sigma2))
    return [
        GoodVertex(v, tuple(by_vertex[v]))
        for v in sorted(by_vertex, key=_label_key)
    ]


def verify_good_vertex_links(K: SimplicialComplex) -> LemmaReport:
    """Every good vertex has link isomorphic to the catalog sphere calS,
    and good-vertex partitions biject with disjoint facet pairs."""
    from .constructions import get_complex
    from .isomorphism import are_isomorphic

    _require_neighbourly_9(K, "the good-vertex link check")
    cal_s = get_complex("calS")
    cal_t = get_complex("calT")
    goods = good_vertices(K)
    pairs = disjoint_facet_pairs(K)
    violations = []
    for gv in goods:
        link = K.link([gv.vertex])
        iso_s, _ = are_isomorphic(link, cal_s)
        if not iso_s:
            iso_t, _ = are_isomorphic(link, cal_t)
            shape = "calT" if iso_t else "neither calS nor calT"
            violations.append(f"link of good vertex {gv.vertex} is {shape}")
    partition_count = sum(len(gv.partitions) for gv in goods)
    if partition_count != len(pairs):
        violations.append(
            f"{partition_count} good-vertex partitions vs {len(pairs)} disjoint pairs"
        )
    return LemmaReport(
        "lemma4.5",
        not violations,
        {
            "good_vertices": [gv.vertex for gv in goods],
            "disjoint_pairs": len(pairs),
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
