"""Bistellar moves: detection, application, degree raising and flip search.

A move is carried by a removable face alpha together with the opposing
non-face beta: the link of alpha must be the boundary sphere of the simplex
on beta's vertices.  Applying the move replaces every facet through alpha by
``beta + alpha - v`` over the vertices v of alpha.  Moves of type i with
0 < i < dim are proper and leave the vertex count unchanged; a dim-move
deletes a vertex and starring a vertex in a facet is its inverse.

Preconditions are checked once per public call, never in inner loops:
bistellar moves preserve the PL type, so a pseudomanifold or 3-manifold
stays one.  `random_three_sphere` checks nothing, as its complexes are
spheres by construction.  Detection works on face masks throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from . import recognition
from .core import Face, PreconditionError, SimplicialComplex, _iter_bits, _label_key, from_facets
from .isomorphism import canonical_form


class LemmaViolation(RuntimeError):
    """A degree-raising move guaranteed to exist was not found."""


@dataclass(frozen=True)
class BistellarMove:
    """A removable face with its opposing face; type i removes a (d-i)-face."""

    alpha: frozenset[str]
    beta: frozenset[str]
    move_type: int

    def sort_key(self):
        return (
            tuple(sorted((_label_key(v) for v in self.alpha))),
            tuple(sorted((_label_key(v) for v in self.beta))),
        )

    def inverse(self, dim: int) -> "BistellarMove":
        return BistellarMove(self.beta, self.alpha, dim - self.move_type)

    def describe(self) -> str:
        a = ",".join(sorted(self.alpha, key=_label_key))
        b = ",".join(sorted(self.beta, key=_label_key))
        return f"{self.move_type}-move alpha={{{a}}} beta={{{b}}}"


REMOVABLE = "removable"
BETA_IS_FACE = "beta is a face"
LINK_NOT_BOUNDARY = "link is not a standard sphere boundary"


def _classify_mask(K: SimplicialComplex, sigma: int) -> tuple[str, int]:
    """`classify_face` on the face mask sigma; beta is 0 when the link fails."""
    link = K.link_masks(sigma)
    size = K.dim - sigma.bit_count() + 2  # i + 1 for an i-move
    beta = 0
    for m in link:
        beta |= m
    # `size` distinct (size-1)-subsets of a size-set are all of its facets
    if len(link) == size == beta.bit_count() and all(m.bit_count() == size - 1 for m in link):
        return (BETA_IS_FACE if K.has_face_mask(beta) else REMOVABLE), beta
    return LINK_NOT_BOUNDARY, 0


def classify_face(K: SimplicialComplex, alpha: Face) -> tuple[str, frozenset[str] | None]:
    """Whether alpha is removable; on failure, why not.

    Returns (status, beta): status is REMOVABLE with the opposing face, or
    BETA_IS_FACE with the offending face, or LINK_NOT_BOUNDARY with None.
    """
    status, beta = _classify_mask(K, K._face_mask(alpha))
    return status, (K.face_labels(beta) if beta else None)


def removable_faces(K: SimplicialComplex, i: int) -> list[BistellarMove]:
    """All bistellar i-moves available on the d-pseudomanifold K."""
    d = K.dim
    if i < 1 or i > d:
        raise PreconditionError(f"move type {i} out of range 1..{d}")
    if not recognition.is_pseudomanifold(K):
        raise PreconditionError("move detection needs a pseudomanifold")
    return _moves(K, [i])


def _moves(K: SimplicialComplex, types: Iterable[int]) -> list[BistellarMove]:
    """The moves of the given types, sorted; the caller has checked K."""
    moves = []
    for i in types:
        for am in K.faces_masks(K.dim - i):
            status, beta = _classify_mask(K, am)
            if status == REMOVABLE:
                moves.append(BistellarMove(K.face_labels(am), K.face_labels(beta), i))
    moves.sort(key=BistellarMove.sort_key)
    return moves


def apply_move(K: SimplicialComplex, move: BistellarMove) -> SimplicialComplex:
    """Apply a validated move; stale moves are rejected."""
    if not K.has_face(move.alpha):
        raise PreconditionError(f"stale move: {move.describe()} (alpha is not a face)")
    am = K.mask_of(move.alpha)
    status, beta = _classify_mask(K, am)
    if status != REMOVABLE or K.face_labels(beta) != frozenset(move.beta):
        raise PreconditionError(f"stale move: {move.describe()} ({status})")
    kept = [f for f in K.facet_masks if f & am != am]
    added = [beta | (am ^ (1 << b)) for b in _iter_bits(am)]
    return SimplicialComplex._from_masks(kept + added, K.labels)


def star_vertex(K: SimplicialComplex, facet: Face, label) -> SimplicialComplex:
    """Replace a facet by the cone over its boundary from a fresh vertex."""
    target = frozenset(str(v) for v in facet)
    if target not in K.facets():
        raise PreconditionError(f"{sorted(target)} is not a facet")
    new = str(label)
    if new in K.labels:
        raise PreconditionError(f"label {new!r} is already a vertex")
    kept = [f for f in K.facets() if f != target]
    added = [(target - {w}) | {new} for w in target]
    return from_facets(kept + added)


# -- degree raising and neighbourly reduction ---------------------------------


def vertex_degrees(K: SimplicialComplex) -> dict[str, int]:
    """Link vertex counts: the popcount of the union of a vertex's facets, less 1."""
    union = [0] * K.vertex_count
    for f in K.facet_masks:
        for b in _iter_bits(f):
            union[b] |= f
    return {v: union[b].bit_count() - 1 for b, v in enumerate(K.labels)}


def degree_raising_moves(K: SimplicialComplex, u) -> list[BistellarMove]:
    """Every 1-move creating an edge at u: exhaustive over triangles of lk(u)."""
    if K.dim != 3:
        raise PreconditionError("degree raising is a dimension-3 operation")
    moves = []
    # lk(tri) holds the point u, so only a triangle can be removable, and its
    # beta is the new edge {u, x}
    for tri in K.link_masks(K.mask_of([u])):
        status, beta = _classify_mask(K, tri)
        if status == REMOVABLE:
            moves.append(BistellarMove(K.face_labels(tri), K.face_labels(beta), 1))
    moves.sort(key=BistellarMove.sort_key)
    return moves


def raise_min_degree(K: SimplicialComplex) -> BistellarMove:
    """A 1-move raising the degree of a minimum-degree vertex.

    Guaranteed to exist for combinatorial 3-manifolds on at most 9 vertices
    with minimum degree <= n-2; its absence is surfaced as LemmaViolation
    because it would falsify that guarantee.
    """
    n = K.vertex_count
    if n > 9:
        raise PreconditionError(f"degree raising is guaranteed only for n <= 9, got {n}")
    if not recognition.is_combinatorial_3_manifold(K):
        raise PreconditionError("degree raising needs a combinatorial 3-manifold")
    return _raise_min_degree(K)


def _raise_min_degree(K: SimplicialComplex) -> BistellarMove:
    n = K.vertex_count
    degrees = vertex_degrees(K)
    k = min(degrees.values())
    if k > n - 2:
        raise PreconditionError(f"minimum degree {k} exceeds n-2 = {n - 2} (already neighbourly)")
    u = min((v for v, dv in degrees.items() if dv == k), key=_label_key)
    moves = degree_raising_moves(K, u)
    if not moves:
        raise LemmaViolation(
            f"no 1-move raises deg({u}) = {k} on an n={n} combinatorial 3-manifold"
        )
    return moves[0]


def neighbourly_reduction(
    K: SimplicialComplex,
) -> tuple[SimplicialComplex, list[BistellarMove]]:
    """Raise minimum degrees until the 1-skeleton is complete.

    Each 1-move adds exactly one edge, so the move list has length
    36 - f_1(K) for a 9-vertex input, which is at most 10.
    """
    if K.vertex_count != 9 or K.dim != 3:
        raise PreconditionError("neighbourly reduction expects a 9-vertex 3-complex")
    if not recognition.is_combinatorial_3_manifold(K):
        raise PreconditionError("neighbourly reduction needs a combinatorial 3-manifold")
    moves: list[BistellarMove] = []
    current = K
    budget = 36 - len(current.faces_masks(1))
    while not recognition.is_neighbourly(current):
        if len(moves) >= budget:
            raise LemmaViolation("reduction exceeded the edge-count budget")
        move = _raise_min_degree(current)
        current = apply_move(current, move)
        moves.append(move)
    return current, moves


# -- flip graph search ---------------------------------------------------------


def proper_moves(K: SimplicialComplex) -> list[BistellarMove]:
    """All i-moves with 0 < i < dim on the pseudomanifold K."""
    if K.dim > 1 and not recognition.is_pseudomanifold(K):
        raise PreconditionError("move detection needs a pseudomanifold")
    return _moves(K, range(1, K.dim))


def flip_reachable(
    K: SimplicialComplex,
    L: SimplicialComplex,
    move_budget: int,
    vertex_cap: int,
) -> tuple[bool, list[BistellarMove] | None]:
    """Breadth-first search of the proper-move flip graph, canonical dedupe.

    False means "not found within the budget", not a proof of unreachability.
    """
    if move_budget <= 0 or vertex_cap <= 0:
        raise PreconditionError("move budget and vertex cap must be positive")
    if K.dim != L.dim:
        raise PreconditionError("flip search needs complexes of equal dimension")
    if K.vertex_count > vertex_cap or L.vertex_count > vertex_cap:
        raise PreconditionError("input exceeds the vertex cap")
    target = canonical_form(L).bytes
    start = canonical_form(K).bytes
    if start == target:
        return True, []
    if K.dim > 1 and not recognition.is_pseudomanifold(K):
        raise PreconditionError("move detection needs a pseudomanifold")
    seen = {start}
    frontier: list[tuple[SimplicialComplex, list[BistellarMove]]] = [(K, [])]
    for _ in range(move_budget):
        next_frontier: list[tuple[SimplicialComplex, list[BistellarMove]]] = []
        for current, path in frontier:
            for move in _moves(current, range(1, current.dim)):
                after = apply_move(current, move)
                digest = canonical_form(after).bytes
                if digest in seen:
                    continue
                if digest == target:
                    return True, path + [move]
                seen.add(digest)
                next_frontier.append((after, path + [move]))
        if not next_frontier:
            return False, None
        frontier = next_frontier
    return False, None


# -- seeded random spheres -----------------------------------------------------


def random_three_sphere(
    seed: int, vertices: int = 9, churn: int = 12
) -> SimplicialComplex:
    """A pseudo-random combinatorial 3-sphere grown from the 5-vertex sphere.

    Starting from the boundary of the 4-simplex, vertices are starred into
    random facets (inverse collapses) interleaved with random proper moves,
    then `churn` further proper moves are applied.  Every intermediate step
    is a bistellar move, so the result is always a combinatorial 3-sphere.
    """
    if vertices < 5 or vertices > 16:
        raise PreconditionError("vertex target out of range 5..16")
    rng = random.Random(seed)
    K = from_facets(combinations([str(i) for i in range(1, 6)], 4))
    next_label = 6

    def random_proper_step(current: SimplicialComplex) -> SimplicialComplex:
        moves = _moves(current, range(1, current.dim))
        if not moves:
            return current
        return apply_move(current, rng.choice(moves))

    while K.vertex_count < vertices:
        for _ in range(rng.randrange(0, 3)):
            K = random_proper_step(K)
        facet = rng.choice(K.facets())
        K = star_vertex(K, facet, str(next_label))
        next_label += 1
    for _ in range(churn):
        K = random_proper_step(K)
    return K
