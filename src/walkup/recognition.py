"""Decision procedures for the structural classes the toolkit quantifies over.

Two-sphere recognition relies on surface classification: a pure, connected
2-complex in which every edge lies in exactly two triangles and every vertex
link is a single cycle is a closed surface, and it is a 2-sphere exactly when
its Euler characteristic is 2.  That makes 3-manifold recognition complete in
dimension 3, since all 2-spheres are combinatorial.

Collapsibility is decided by exhaustive backtracking over free-face choices
(greedy collapsing is incomplete), memoized on the surviving face set.  The
vertex-count guardrail keeps the worst case tractable; every use here is a
simplicial complement with at most six vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Sequence

from .core import PreconditionError, SimplicialComplex, _bits, _components, _subfaces


@dataclass(frozen=True)
class RecognitionReport:
    is_pure: bool
    is_pseudomanifold: bool
    is_closed_surface: bool
    is_two_sphere: bool
    is_three_manifold: bool
    is_neighbourly: bool
    witnesses: tuple[tuple[str, frozenset[str]], ...] = field(default_factory=tuple)

    def witness_for(self, prop: str) -> frozenset[str] | None:
        for name, face in self.witnesses:
            if name == prop:
                return face
        return None

    def as_dict(self) -> dict:
        return {
            "is_pure": self.is_pure,
            "is_pseudomanifold": self.is_pseudomanifold,
            "is_closed_surface": self.is_closed_surface,
            "is_two_sphere": self.is_two_sphere,
            "is_three_manifold": self.is_three_manifold,
            "is_neighbourly": self.is_neighbourly,
            "witnesses": [[prop, sorted(face)] for prop, face in self.witnesses],
        }


def _purity_witness(K: SimplicialComplex) -> int | None:
    return next((m for m in K.facet_masks if m.bit_count() != K.dim + 1), None)


def _unreached_facet(K: SimplicialComplex) -> int | None:
    """The first facet of the pure complex K not reached from the first one
    across shared ridges.  Every ridge must lie in exactly two facets, f and
    g, so the union u of its star gives the other one as g = u ^ f ^ r."""
    union = K.stars(K.dim)[1]
    seen = {K.facet_masks[0]}
    stack = [K.facet_masks[0]]
    while stack:
        f = stack.pop()
        for r in _subfaces(f)[K.dim]:
            g = union[r] ^ f ^ r
            if g not in seen:
                seen.add(g)
                stack.append(g)
    return next((f for f in K.facet_masks if f not in seen), None)


def pseudomanifold_witness(K: SimplicialComplex) -> frozenset[str] | None:
    """None when K is a pseudomanifold, else a face witnessing the failure."""
    if K.dim < 1:
        raise PreconditionError("pseudomanifold test needs dimension >= 1")
    bad = _purity_witness(K)
    if bad is not None:
        return K.face_labels(bad)
    counts = K.stars(K.dim)[0]
    for rm in sorted(counts):
        if counts[rm] != 2:
            return K.face_labels(rm)
    lost = _unreached_facet(K)
    return None if lost is None else K.face_labels(lost)


def is_pseudomanifold(K: SimplicialComplex) -> bool:
    return pseudomanifold_witness(K) is None


def _surface_defect(masks: Sequence[int]) -> int | None:
    """None when distinct face masks (any vertex ids) form a closed connected
    surface, else the first failing face: a non-triangle, the least edge not
    in exactly two triangles, the least vertex with a disconnected link, or
    the first face when the whole is disconnected.  Once every edge lies in
    two triangles, each vertex link is a cycle exactly when connected."""
    edges: dict[int, int] = {}
    links: dict[int, list[int]] = {}  # vertex -> the edges of its link
    for t in masks:
        if t.bit_count() != 3:
            return t
        for b in _bits(t):
            e = t ^ (1 << b)
            edges[e] = edges.get(e, 0) + 1
            if b in links:
                links[b].append(e)
            else:
                links[b] = [e]
    bad = [e for e, c in edges.items() if c != 2]
    if bad:
        return min(bad)
    bad = [b for b, link in links.items() if _components(link) > 1]
    if bad:
        return 1 << min(bad)
    return None if _components(masks) <= 1 else masks[0]


def _is_two_sphere_masks(masks: Sequence[int]) -> bool:
    """Whether distinct triangle masks form a closed connected surface with
    Euler characteristic V - F/2 = 2 (every edge lies in two triangles)."""
    vertices = 0
    for t in masks:
        vertices |= t
    return 2 * vertices.bit_count() - len(masks) == 4 and _surface_defect(masks) is None


def closed_surface_witness(K: SimplicialComplex) -> frozenset[str] | None:
    if K.dim != 2:
        return K.face_labels(K.facet_masks[0]) if K.facet_masks else frozenset()
    bad = _surface_defect(K.facet_masks)
    return None if bad is None else K.face_labels(bad)


def is_two_sphere(K: SimplicialComplex) -> bool:
    """Closed connected surface with Euler characteristic 2."""
    if K.dim != 2:
        raise PreconditionError(f"two-sphere test needs dimension 2, got {K.dim}")
    return _is_two_sphere_masks(K.facet_masks)


def _singular(K: SimplicialComplex) -> Iterator[str]:
    """The vertices whose links are not 2-spheres, in label order.  Every
    vertex link is gathered in one pass over the facets."""
    links: list[list[int]] = [[] for _ in K.labels]
    for f in K.facet_masks:
        for b in _bits(f):
            links[b].append(f ^ (1 << b))
    return (v for v, link in zip(K.labels, links) if not _is_two_sphere_masks(link))


def is_combinatorial_3_manifold(K: SimplicialComplex) -> bool:
    """Every vertex link is a 2-sphere (complete in dimension 3)."""
    if K.dim != 3:
        raise PreconditionError(f"3-manifold test needs dimension 3, got {K.dim}")
    return next(_singular(K), None) is None


def is_neighbourly(K: SimplicialComplex) -> bool:
    """Every floor(d/2)+1 vertices span a face; for dimension 3, a complete 1-skeleton."""
    size = K.dim // 2 + 1
    if size < 1 or K.vertex_count < size:
        return True
    return non_neighbourly_witness(K) is None


def non_neighbourly_witness(K: SimplicialComplex) -> frozenset[str] | None:
    size = K.dim // 2 + 1
    faces = K.stars(size)[0]
    for c in combinations(range(K.vertex_count), size):
        mask = sum(1 << b for b in c)
        if mask not in faces:
            return K.face_labels(mask)
    return None


# -- collapsibility -----------------------------------------------------------

COLLAPSE_VERTEX_GUARDRAIL = 8


def is_collapsible(
    K: SimplicialComplex,
) -> tuple[bool, list[tuple[frozenset[str], frozenset[str]]] | None]:
    """Exhaustive free-face collapsing; returns a full collapse sequence on success.

    A face is free when exactly one face properly contains it; an elementary
    collapse removes the pair.  The complex is collapsible when some sequence
    of elementary collapses leaves a single vertex.
    """
    if K.vertex_count > COLLAPSE_VERTEX_GUARDRAIL:
        raise PreconditionError(
            f"collapsibility guardrail: {K.vertex_count} vertices > {COLLAPSE_VERTEX_GUARDRAIL}"
        )
    if not K.facet_masks:
        raise PreconditionError("collapsibility of the empty complex is undefined")
    faces = [m for i in range(K.dim + 1) for m in K.faces_masks(i)]
    index = {m: i for i, m in enumerate(faces)}
    nfaces = len(faces)
    supers_bits = [0] * nfaces  # bit s of entry t: face s properly contains face t
    for si, sm in enumerate(faces):
        for size in _subfaces(sm)[1 : sm.bit_count()]:
            for tm in size:
                supers_bits[index[tm]] |= 1 << si
    # Euler characteristic is a collapse invariant; a point has chi = 1.
    chi = sum((-1) ** (m.bit_count() - 1) for m in faces)
    if chi != 1:
        return False, None

    full = (1 << nfaces) - 1
    dead: set[int] = set()
    sequence: list[tuple[int, int]] = []

    def search(state: int) -> bool:
        if state.bit_count() == 1:
            return True
        if state in dead:
            return False
        bits = state
        while bits:
            low = bits & -bits
            ti = low.bit_length() - 1
            bits ^= low
            live_supers = supers_bits[ti] & state
            if live_supers and live_supers.bit_count() == 1:
                si = live_supers.bit_length() - 1
                sequence.append((ti, si))
                if search(state & ~low & ~live_supers):
                    return True
                sequence.pop()
        dead.add(state)
        return False

    if search(full):
        labelled = [
            (K.face_labels(faces[ti]), K.face_labels(faces[si])) for ti, si in sequence
        ]
        return True, labelled
    return False, None


def certify_sphere_via_complement(
    X: SimplicialComplex,
) -> tuple[bool, frozenset[str] | None]:
    """One-sided sphere certificate: some facet has a collapsible complement.

    False means "no certificate found", never "proved non-sphere".
    """
    if X.dim != 3 or not is_combinatorial_3_manifold(X) or _components(X.facet_masks) > 1:
        raise PreconditionError("certificate scan needs a connected combinatorial 3-manifold")
    for fm in X.facet_masks:
        facet = X.face_labels(fm)
        complement = X.simplicial_complement(facet)
        collapsible, _ = is_collapsible(complement)
        if collapsible:
            return True, facet
    return False, None


# -- aggregate report ---------------------------------------------------------


def recognition_report(K: SimplicialComplex) -> RecognitionReport:
    """Evaluate every predicate, recording a witness face for each failure."""
    witnesses: list[tuple[str, frozenset[str]]] = []
    lead = K.face_labels(K.facet_masks[0]) if K.facet_masks else frozenset()

    pure_bad = _purity_witness(K)
    pure = pure_bad is None
    if not pure:
        witnesses.append(("is_pure", K.face_labels(pure_bad)))

    if K.dim >= 1 and pure:
        pm_bad = pseudomanifold_witness(K)
    else:
        pm_bad = K.face_labels(pure_bad) if pure_bad is not None else lead
    pseudo = pm_bad is None
    if not pseudo:
        witnesses.append(("is_pseudomanifold", pm_bad))

    surf_bad = closed_surface_witness(K)
    closed_surface = surf_bad is None
    if not closed_surface:
        witnesses.append(("is_closed_surface", surf_bad))

    # a closed surface is connected, so it is a 2-sphere when chi = V - F/2 = 2
    two_sphere = closed_surface and 2 * K.vertex_count - len(K.facet_masks) == 4
    if not two_sphere:
        witnesses.append(("is_two_sphere", surf_bad if surf_bad is not None else lead))

    if K.dim == 3:
        bad_vertex = next(_singular(K), None)
        three_manifold = bad_vertex is None
        if not three_manifold:
            witnesses.append(("is_three_manifold", frozenset([bad_vertex])))
    else:
        three_manifold = False
        witnesses.append(("is_three_manifold", lead))

    nb_bad = non_neighbourly_witness(K)
    neighbourly = nb_bad is None
    if not neighbourly:
        witnesses.append(("is_neighbourly", nb_bad))

    return RecognitionReport(
        is_pure=pure,
        is_pseudomanifold=pseudo,
        is_closed_surface=closed_surface,
        is_two_sphere=two_sphere,
        is_three_manifold=three_manifold,
        is_neighbourly=neighbourly,
        witnesses=tuple(witnesses),
    )
