"""Bistellar moves: detection, application, degree raising and reduction.

A move is carried by a removable face alpha together with the opposing
non-face beta: the link of alpha must be the boundary sphere of the simplex
on beta's vertices.  Applying the move replaces every facet through alpha by
``beta + alpha - v`` over the vertices v of alpha.  Moves of type i with
0 < i < dim are proper and leave the vertex count unchanged; a dim-move
deletes a vertex and starring a vertex in a facet is its inverse.

Where moves are validated: the public entry points check their input once
per call (`removable_faces` and `proper_moves` need a pseudomanifold,
`raise_min_degree` and `neighbourly_reduction` a combinatorial 3-manifold),
and `apply_move` re-classifies the move it is given and rejects a stale one.
Where they are not: inside `random_three_sphere` and `neighbourly_reduction`
a move is applied right after it was detected on the same complex, so it is
applied unchecked, and nothing is re-checked after it, as bistellar moves
preserve the PL type.  `random_three_sphere` checks nothing at all: its
complexes are spheres by construction.  Detection finds every move of the
requested types in one pass over the facet masks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from . import recognition
from .core import Face, PreconditionError, SimplicialComplex, _bits, _label_key, from_facets


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
    return _as_moves(K, _detect(K, [i]))


def _detect(K: SimplicialComplex, types: Iterable[int]) -> list[tuple[int, int, int]]:
    """(alpha, beta, i) masks of the moves of the given types on the pure
    pseudomanifold K, in `BistellarMove.sort_key` order.

    One pass over the facets per type counts the facets through each
    candidate alpha and unites them.  alpha is removable for an i-move
    exactly when i + 1 facets pass through it, beta = union - alpha has
    i + 1 vertices and beta is not a face: i + 1 distinct i-subsets of an
    (i+1)-set are all of its facets, so lk(alpha) is the boundary of the
    simplex on beta.
    """
    found = []
    for i in types:
        count, union = K.stars(K.dim - i + 1)
        for a, c in count.items():
            beta = union[a] & ~a
            if c == i + 1 == beta.bit_count() and not K.has_face_mask(beta):
                found.append((a, beta, i))
    # ids follow label order, so ascending bits sort as the labels do
    found.sort(key=lambda m: (_bits(m[0]), _bits(m[1])))
    return found


def _as_moves(K: SimplicialComplex, found: list[tuple[int, int, int]]) -> list[BistellarMove]:
    return [BistellarMove(K.face_labels(a), K.face_labels(b), i) for a, b, i in found]


def _apply(K: SimplicialComplex, alpha: int, beta: int) -> SimplicialComplex:
    """The move (alpha, beta), valid on K: no re-classification, and the new
    facets already form an antichain.  Only a vertex removal renumbers."""
    masks = [f for f in K.facet_masks if f & alpha != alpha]
    masks += [beta | (alpha ^ (1 << b)) for b in _bits(alpha)]
    if alpha.bit_count() == 1:
        return SimplicialComplex._from_masks(masks, K.labels)
    masks.sort()
    return SimplicialComplex(tuple(masks), K.labels)


def apply_move(K: SimplicialComplex, move: BistellarMove) -> SimplicialComplex:
    """Apply a validated move; stale moves are rejected."""
    if not K.has_face(move.alpha):
        raise PreconditionError(f"stale move: {move.describe()} (alpha is not a face)")
    am = K.mask_of(move.alpha)
    status, beta = _classify_mask(K, am)
    if status != REMOVABLE or K.face_labels(beta) != frozenset(move.beta):
        raise PreconditionError(f"stale move: {move.describe()} ({status})")
    return _apply(K, am, beta)


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
    union = K.stars(1)[1]
    return {v: union[1 << b].bit_count() - 1 for b, v in enumerate(K.labels)}


def degree_raising_moves(K: SimplicialComplex, u) -> list[BistellarMove]:
    """Every 1-move creating an edge at u: exhaustive over triangles of lk(u)."""
    if K.dim != 3:
        raise PreconditionError("degree raising is a dimension-3 operation")
    um = K.mask_of([u])
    # every facet through a triangle is a tetrahedron, so `_detect` is exact
    # here on any 3-complex; the moves at u are those whose new edge holds u
    return _as_moves(K, [m for m in _detect(K, [1]) if m[1] & um])


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
    return _as_moves(K, [_raise_min_degree(K)])[0]


def _raise_min_degree(K: SimplicialComplex) -> tuple[int, int, int]:
    n = K.vertex_count
    degrees = vertex_degrees(K)
    k = min(degrees.values())
    if k > n - 2:
        raise PreconditionError(f"minimum degree {k} exceeds n-2 = {n - 2} (already neighbourly)")
    u = min((v for v, dv in degrees.items() if dv == k), key=_label_key)
    um = K.mask_of([u])
    moves = [m for m in _detect(K, [1]) if m[1] & um]
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
    for _ in range(36 - len(K.faces_masks(1))):
        move = _raise_min_degree(current)
        moves += _as_moves(current, [move])
        current = _apply(current, move[0], move[1])
    return current, moves


def proper_moves(K: SimplicialComplex) -> list[BistellarMove]:
    """All i-moves with 0 < i < dim on the pseudomanifold K."""
    if K.dim > 1 and not recognition.is_pseudomanifold(K):
        raise PreconditionError("move detection needs a pseudomanifold")
    return _as_moves(K, _detect(K, range(1, K.dim)))


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

    def random_proper_step(current: SimplicialComplex) -> SimplicialComplex:
        moves = _detect(current, range(1, current.dim))
        if not moves:
            return current
        alpha, beta, _ = rng.choice(moves)
        return _apply(current, alpha, beta)

    while K.vertex_count < vertices:
        for _ in range(rng.randrange(0, 3)):
            K = random_proper_step(K)
        # star a random facet from vertex n, labelled n + 1: the labels stay
        # 1..n+1 in id order, as `star_vertex` would number them
        facet = rng.choice(K.facet_masks)
        n = K.vertex_count
        masks = [f for f in K.facet_masks if f != facet]
        masks += [(facet ^ (1 << b)) | (1 << n) for b in _bits(facet)]
        masks.sort()
        K = SimplicialComplex(tuple(masks), K.labels + (str(n + 1),))
    for _ in range(churn):
        K = random_proper_step(K)
    return K
