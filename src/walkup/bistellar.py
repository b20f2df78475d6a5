"""Bistellar moves: detection, application, degree raising and reduction.

A move is carried by a removable face alpha together with the opposing
non-face beta: the link of alpha must be the boundary sphere of the simplex
on beta's vertices.  Applying the move replaces every facet through alpha by
``beta + alpha - v`` over the vertices v of alpha.  Moves of type i with
0 < i < dim are proper and leave the vertex count unchanged; a dim-move
deletes a vertex and starring a vertex in a facet is its inverse.

Validation: the public entry points check their input once per call
(`removable_faces` and `proper_moves` need a pseudomanifold,
`degree_raising_moves` a 3-complex, `neighbourly_reduction` a 9-vertex
combinatorial 3-manifold), and `apply_move` rejects a stale move.  Inside
`random_three_sphere` and `neighbourly_reduction` each move is applied
unchecked right after it was detected, and nothing is re-checked, as moves
preserve the PL type.

Detection scans a star table (`_StarTable`): the facet set and, for each
face size k = 1..d, a map from each k-vertex face to the set of facets
through it.  Adding or removing a facet updates the entries of its
subfaces, and an emptied entry is dropped, so the keys are the faces.
alpha is removable for an i-move exactly when i + 1 facets pass through it,
beta (their union less alpha) has i + 1 vertices, and beta is not a key of
the (i+1)-vertex map (for i = d, not a facet): the i + 1 facets less alpha
are i + 1 distinct i-subsets of beta, so all of them, and lk(alpha) is the
boundary of the simplex on beta.  The walks of `random_three_sphere` and
`neighbourly_reduction` keep one table, updated in place by each move or
star step, and build their result once; the other entry points build a
table from their complex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable

from . import recognition
from .core import (
    Face, PreconditionError, SimplicialComplex, _bits, _label_key, _subfaces,
)


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
    return _as_moves(K, _StarTable(K.facet_masks, K.dim).moves([i]))


class _StarTable:
    """The facets of a d-complex and, for k = 1..d, `stars[k]`: each k-vertex
    face mask with the set of facets through it, updated in place (`stars[0]`
    stays empty)."""

    __slots__ = ("dim", "facets", "stars")

    def __init__(self, facet_masks: Iterable[int], dim: int):
        self.dim, self.facets, self.stars = dim, set(), [{} for _ in range(dim + 1)]
        for f in facet_masks:
            self.add(f)

    def add(self, f: int) -> None:
        self.facets.add(f)
        for star, faces in zip(self.stars[1:], _subfaces(f)[1:]):
            for a in faces:
                through = star.get(a)
                if through is None:
                    star[a] = {f}
                else:
                    through.add(f)

    def remove(self, f: int) -> None:
        self.facets.remove(f)
        for star, faces in zip(self.stars[1:], _subfaces(f)[1:]):
            for a in faces:
                through = star[a]
                through.remove(f)
                if not through:
                    del star[a]

    def moves(self, types: Iterable[int]) -> list[tuple[int, int, int]]:
        """(alpha, beta, i) for every i-move of the given types, sorted as
        `BistellarMove.sort_key` sorts; see the module docstring."""
        found, d = [], self.dim
        for i in types:
            # the (i+1)-vertex faces: beta is a face exactly when it is a key
            faces = self.stars[i + 1] if i < d else self.facets
            for a, through in self.stars[d - i + 1].items():
                if len(through) == i + 1:
                    union = 0
                    for f in through:
                        union |= f
                    beta = union & ~a
                    if beta.bit_count() == i + 1 and beta not in faces:
                        found.append((a, beta, i))
        # ids follow label order, so ascending bits sort as the labels do
        found.sort(key=lambda m: (_bits(m[0]), _bits(m[1])))
        return found

    def apply(self, alpha: int, beta: int) -> None:
        """The valid move (alpha, beta), without renumbering; a facet alpha
        and a new vertex beta make a star step."""
        k = alpha.bit_count()
        for f in list(self.stars[k][alpha]) if k <= self.dim else [alpha]:
            self.remove(f)
        for b in _bits(alpha):
            self.add(beta | (alpha ^ (1 << b)))

    def degrees(self) -> list[int]:
        """Link vertex counts by id: the size of the union of a vertex's facets, less 1."""
        vertex = self.stars[1]
        return [reduce(or_, vertex[1 << b]).bit_count() - 1 for b in range(len(vertex))]


def _as_moves(K: SimplicialComplex, found: list[tuple[int, int, int]]) -> list[BistellarMove]:
    return [BistellarMove(K.face_labels(a), K.face_labels(b), i) for a, b, i in found]


def apply_move(K: SimplicialComplex, move: BistellarMove) -> SimplicialComplex:
    """Apply a validated move; stale moves are rejected."""
    if not K.has_face(move.alpha):
        raise PreconditionError(f"stale move: {move.describe()} (alpha is not a face)")
    am = K.mask_of(move.alpha)
    status, beta = _classify_mask(K, am)
    if status == REMOVABLE and K.face_labels(beta) != frozenset(move.beta):
        status = f"the opposing face is {{{','.join(sorted(K.face_labels(beta), key=_label_key))}}}"
    if status != REMOVABLE:
        raise PreconditionError(f"stale move: {move.describe()} ({status})")
    table = _StarTable(K.facet_masks, K.dim)
    table.apply(am, beta)
    # only a vertex removal leaves an id unused, and `_from_masks` renumbers it
    return SimplicialComplex._from_masks(table.facets, K.labels)


# -- degree raising and neighbourly reduction ---------------------------------


def _raising_moves(table: _StarTable, um: int) -> list[tuple[int, int, int]]:
    """The 1-moves whose new edge holds the vertex um, in `_StarTable.moves`
    order.  Each removes the triangle a = f ^ um of a facet f through um; two
    facets through a triangle are tetrahedra, so this is exact on any 3-complex."""
    moves = []
    for f in table.stars[1][um]:
        a = f ^ um
        through = table.stars[3].get(a, ())
        if len(through) == 2:
            g, h = through
            if g ^ h not in table.stars[2]:
                moves.append((a, g ^ h, 1))
    moves.sort(key=lambda m: (_bits(m[0]), _bits(m[1])))
    return moves


def degree_raising_moves(K: SimplicialComplex, u) -> list[BistellarMove]:
    """Every 1-move creating an edge at u: exhaustive over triangles of lk(u)."""
    if K.dim != 3:
        raise PreconditionError("degree raising is a dimension-3 operation")
    um = K.mask_of([u])
    return _as_moves(K, _raising_moves(_StarTable(K.facet_masks, 3), um))


def _raise_min_degree(table: _StarTable, labels: tuple[str, ...]) -> tuple[int, int, int]:
    """The first 1-move raising the degree of the first minimum-degree vertex.
    One exists on a combinatorial 3-manifold on at most 9 vertices with
    minimum degree <= n-2; its absence would falsify that, so it is surfaced
    as LemmaViolation."""
    degrees = table.degrees()
    k = min(degrees)
    um = 1 << degrees.index(k)  # ids follow label order
    moves = _raising_moves(table, um)
    if not moves:
        u, n = labels[um.bit_length() - 1], len(labels)
        raise LemmaViolation(f"no 1-move raises deg({u}) = {k} on an n={n} combinatorial 3-manifold")
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
    table = _StarTable(K.facet_masks, 3)
    found = []
    for _ in range(36 - len(table.stars[2])):
        found.append(_raise_min_degree(table, K.labels))
        table.apply(*found[-1][:2])
    return SimplicialComplex(tuple(sorted(table.facets)), K.labels), _as_moves(K, found)


def proper_moves(K: SimplicialComplex) -> list[BistellarMove]:
    """All i-moves with 0 < i < dim on the pseudomanifold K."""
    if K.dim > 1 and not recognition.is_pseudomanifold(K):
        raise PreconditionError("move detection needs a pseudomanifold")
    return _as_moves(K, _StarTable(K.facet_masks, K.dim).moves(range(1, K.dim)))


# -- seeded random spheres -----------------------------------------------------


_CHURN = 12  # the random proper moves that end each random sphere's walk


def random_three_sphere(seed: int, vertices: int = 9) -> SimplicialComplex:
    """A pseudo-random combinatorial 3-sphere grown from the 5-vertex sphere.

    Starting from the boundary of the 4-simplex, vertices are starred into
    random facets (inverse collapses) interleaved with random proper moves,
    then `_CHURN` further proper moves are applied.  Every intermediate step
    is a bistellar move, so the result is always a combinatorial 3-sphere.
    """
    if vertices < 5 or vertices > 16:
        raise PreconditionError("vertex target out of range 5..16")
    rng = random.Random(seed)
    table = _StarTable([0b11111 ^ (1 << b) for b in range(5)], 3)
    labels = tuple(str(i) for i in range(1, 6))

    def random_proper_step() -> None:
        moves = table.moves([1, 2])
        if moves:
            alpha, beta, _ = rng.choice(moves)
            table.apply(alpha, beta)

    while len(labels) < vertices:
        for _ in range(rng.randrange(0, 3)):
            random_proper_step()
        # star a random facet from vertex n, labelled n + 1: the labels stay
        # 1..n+1 in id order
        table.apply(rng.choice(sorted(table.facets)), 1 << len(labels))
        labels += (str(len(labels) + 1),)
    for _ in range(_CHURN):
        random_proper_step()
    return SimplicialComplex(tuple(sorted(table.facets)), labels)
