"""Value types for small simplicial complexes.

Vertices are kept as display labels (strings such as ``1``, ``x`` or ``5'``)
and normalized internally to dense ids 0..n-1.  Every face is a bitmask over
those ids, so subset tests, links and joins are single machine-word
operations.  Complexes are immutable values: every operation returns a new
complex.

Each complex keeps one star table per face size, built on first use in one
pass over the facets' subfaces and cached write-once: for every k-vertex
face, the number of facets through it and their union.  Face lists, the
f-vector, face membership and degrees are read off these tables, so the
recognition predicates, the pair degrees of the canonical search and the
homology boundaries share one pass per face size instead of each building
its own.
The top faces are facets, so their list and count are read off the sorted
facet masks with no table.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Iterator

MAX_VERTICES = 16

Label = str | int
Face = Iterable[Label]


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


def _label_key(label: str) -> tuple[int, int, str]:
    # numeric labels sort by value ahead of symbolic ones ("1" < "9" < "5'" < "x")
    if label.isdigit():
        return (0, int(label), label)
    return (1, 0, label)


def _norm_label(label: Label) -> str:
    text = str(label)
    # whitespace and '#' would corrupt the facet-list text format
    if not text or "#" in text or any(ch.isspace() for ch in text):
        raise PreconditionError(
            f"vertex label {label!r} must be non-empty, without whitespace or '#'"
        )
    return text


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of a vertex mask, ascending.  Vertex masks stay below
    2**16, so this memo stays bounded; census face-set ints, which do not,
    go through `_iter_bits`."""
    return tuple(_iter_bits(mask))


@lru_cache(maxsize=None)
def _subfaces(facet: int) -> tuple[tuple[int, ...], ...]:
    """The non-empty submasks of a facet mask by vertex count: entry k holds
    the k-vertex ones, for k = 0..MAX_VERTICES.  Keys are masks over at most
    16 vertices, so this memo, like `_bits`, stays bounded."""
    table: list[list[int]] = [[] for _ in range(MAX_VERTICES + 1)]
    sub = facet
    while sub:
        table[sub.bit_count()].append(sub)
        sub = (sub - 1) & facet
    return tuple(tuple(t) for t in table)


def _components(masks: Iterable[int]) -> int:
    """The number of components of the faces, when faces sharing a vertex
    meet: each sweep of the faces not yet reached grows one component until
    a sweep adds nothing."""
    pending = list(masks)
    parts = 0
    while pending:
        parts += 1
        reached = pending[0]
        progress = True
        while pending and progress:
            progress = False
            still = []
            for m in pending:
                if m & reached:
                    reached |= m
                    progress = True
                else:
                    still.append(m)
            pending = still
    return parts


def _antichain(masks: Iterable[int]) -> list[int]:
    """Drop masks contained in another mask; result sorted ascending.  Masks
    of one size never contain each other, so only larger kept masks are tried."""
    kept: list[int] = []
    for _, group in groupby(sorted(set(masks), key=int.bit_count, reverse=True), int.bit_count):
        larger = tuple(kept)
        kept.extend(m for m in group if not any(k & m == m for k in larger))
    kept.sort()
    return kept


class SimplicialComplex:
    """An antichain of facets over at most 16 labelled vertices, as masks in
    ascending order.

    Downward closure is implicit: a face is any non-empty subset of a facet.
    The vertex set always equals the union of the facets, and ids are dense
    in 0..n-1 following the canonical label order.
    """

    __slots__ = ("facet_masks", "labels", "dim", "_index", "_stars", "_search_cache")

    def __init__(self, facet_masks: tuple[int, ...], labels: tuple[str, ...]):
        self.facet_masks = facet_masks
        self.labels = labels
        self.dim = max((m.bit_count() for m in facet_masks), default=0) - 1
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._stars: dict[int, tuple[dict[int, int], dict[int, int]]] = {}  # stars(size), written once
        self._search_cache = None  # isomorphism._search(self), written once

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_masks(cls, masks: Iterable[int], labels: tuple[str, ...]) -> "SimplicialComplex":
        """Build from facet masks over `labels`, renormalizing to a dense vertex set."""
        kept = _antichain(m for m in masks if m)
        used = 0
        for m in kept:
            used |= m
        if used.bit_count() == len(labels):
            return cls(tuple(kept), labels)
        old_ids = _bits(used)
        new_labels = tuple(labels[i] for i in old_ids)
        shift = {old: new for new, old in enumerate(old_ids)}
        remapped = sorted(
            sum(1 << shift[b] for b in _bits(m)) for m in kept
        )
        return cls(tuple(remapped), new_labels)

    # -- basic queries -----------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def mask_of(self, face: Face) -> int:
        mask = 0
        for lab in face:
            key = _norm_label(lab)
            if key not in self._index:
                raise PreconditionError(f"vertex {key!r} is not in the complex")
            mask |= 1 << self._index[key]
        if mask == 0:
            raise PreconditionError("the empty set is not a face")
        return mask

    def face_labels(self, mask: int) -> frozenset[str]:
        return frozenset([self.labels[b] for b in _bits(mask)])

    def has_face_mask(self, mask: int) -> bool:
        return mask in self.stars(mask.bit_count())[0]

    def _face_mask(self, face: Face) -> int:
        """The mask of `face`, which must be a face of the complex."""
        sigma = self.mask_of(face)
        if not self.has_face_mask(sigma):
            raise PreconditionError(f"{sorted(self.face_labels(sigma))} is not a face")
        return sigma

    def has_face(self, face: Face) -> bool:
        try:
            mask = self.mask_of(face)
        except PreconditionError:
            return False
        return self.has_face_mask(mask)

    def facets(self) -> list[frozenset[str]]:
        return [self.face_labels(m) for m in self.facet_masks]

    def faces_masks(self, i: int) -> tuple[int, ...]:
        """All i-face masks, sorted by bitmask value; the top faces are the
        facets of that size, so they need no star table."""
        if i < 0 or i > self.dim:
            raise PreconditionError(f"face dimension {i} out of range 0..{self.dim}")
        if i == self.dim:
            return self._top_faces()
        return tuple(sorted(self.stars(i + 1)[0]))

    def _top_faces(self) -> tuple[int, ...]:
        size = self.dim + 1
        return tuple(m for m in self.facet_masks if m.bit_count() == size)

    def faces(self, i: int) -> list[frozenset[str]]:
        return [self.face_labels(m) for m in self.faces_masks(i)]

    def f_vector(self) -> tuple[int, ...]:
        # every vertex lies in a facet and every top face is one, so neither
        # f_0 nor f_dim needs a star table
        inner = [len(self.stars(i + 1)[0]) for i in range(1, self.dim)]
        return (self.vertex_count, *inner, len(self._top_faces()))[: self.dim + 1]

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * fi for i, fi in enumerate(self.f_vector()))

    # -- derived complexes --------------------------------------------------

    def link_masks(self, sigma: int) -> list[int]:
        """Facet masks of the link of the face `sigma`, over this complex's ids:
        an antichain as they stand, since the facets through sigma are one."""
        return [f & ~sigma for f in self.facet_masks if f & sigma == sigma and f != sigma]

    def link(self, face: Face) -> "SimplicialComplex":
        """Faces disjoint from `face` whose union with it is again a face.

        The link of a facet is the empty complex, which is a legitimate
        value here rather than an error.
        """
        return self._from_masks(self.link_masks(self._face_mask(face)), self.labels)

    def simplicial_complement(self, face: Face) -> "SimplicialComplex":
        sigma = self._face_mask(face)
        rest = ((1 << self.vertex_count) - 1) & ~sigma
        if rest == 0:
            raise PreconditionError("complement of the full vertex set is empty")
        return self._from_masks((f & rest for f in self.facet_masks), self.labels)

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise PreconditionError(f"vertex sets overlap: {sorted(overlap)}")
        if self.vertex_count + other.vertex_count > MAX_VERTICES:
            raise PreconditionError(f"join would exceed {MAX_VERTICES} vertices")
        return from_facets(
            [a | b for a in self.facets() for b in other.facets()]
        )

    def one_point_suspension(self, u: Label, v: Label) -> "SimplicialComplex":
        """Suspend between existing vertex `u` and fresh vertex `v`."""
        u_lab, v_lab = _norm_label(u), _norm_label(v)
        if u_lab not in self._index:
            raise PreconditionError(f"vertex {u_lab!r} is not in the complex")
        if v_lab in self._index:
            raise PreconditionError(f"vertex {v_lab!r} is already in the complex")
        if self.vertex_count + 1 > MAX_VERTICES:
            raise PreconditionError(f"suspension would exceed {MAX_VERTICES} vertices")
        new_facets: list[set[str]] = []
        for fm in self.facet_masks:
            face = set(self.face_labels(fm))
            new_facets.append(face | {v_lab})
            if u_lab not in face:
                new_facets.append(face | {u_lab})
        return from_facets(new_facets)

    def relabel(self, mapping: dict[Label, Label]) -> "SimplicialComplex":
        """Rename vertices; labels not mentioned keep their name."""
        table = {_norm_label(k): _norm_label(v) for k, v in mapping.items()}
        new_names = [table.get(lab, lab) for lab in self.labels]
        if len(set(new_names)) != len(new_names):
            raise PreconditionError("relabeling must stay injective")
        return from_facets(
            [{new_names[b] for b in _bits(fm)} for fm in self.facet_masks]
        )

    def stars(self, size: int) -> tuple[dict[int, int], dict[int, int]]:
        """For every face with `size` vertices, in one pass over the facets:
        the number of facets through it, and the union of those facets.

        The table is built once per size and kept on the complex; every
        caller gets the same two dicts, which are read-only."""
        table = self._stars.get(size)
        if table is None:
            count: dict[int, int] = {}
            union: dict[int, int] = {}
            for f in self.facet_masks:
                for a in _subfaces(f)[size]:
                    count[a] = count.get(a, 0) + 1
                    union[a] = union.get(a, 0) | f
            table = self._stars[size] = (count, union)  # write-once; safe to race
        return table

    def degree(self, face: Face) -> int:
        """The vertex count of the link: the union of the facets through the
        face, less the face."""
        sigma = self._face_mask(face)
        return self.stars(sigma.bit_count())[1][sigma].bit_count() - sigma.bit_count()

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facet_masks == other.facet_masks and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.facet_masks, self.labels))

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(n={self.vertex_count}, dim={self.dim}, "
            f"facets={len(self.facet_masks)})"
        )


def from_facets(facet_list: Iterable[Face]) -> SimplicialComplex:
    """Build a complex from vertex-label sets, reducing to an antichain.

    Duplicate facets collapse and faces contained in other input sets are
    dropped.  Labels are normalized to dense ids in canonical label order.
    """
    raw = [frozenset(map(str, face)) for face in facet_list]
    if not raw:
        raise PreconditionError("facet list is empty")
    labels = tuple(sorted(frozenset().union(*raw), key=_label_key))
    for lab in labels:
        _norm_label(lab)  # each distinct label checked once
    if any(not face for face in raw):
        raise PreconditionError("facets must be non-empty vertex sets")
    if len(labels) > MAX_VERTICES:
        raise PreconditionError(f"{len(labels)} vertex labels exceed the {MAX_VERTICES} supported")
    index = {lab: i for i, lab in enumerate(labels)}
    masks = []
    for face in raw:
        m = 0
        for lab in face:
            m |= 1 << index[lab]
        masks.append(m)
    return SimplicialComplex(tuple(_antichain(masks)), labels)


# -- canonical text / JSON formats ------------------------------------------


def to_text(K: SimplicialComplex) -> str:
    """Canonical facet-list text: one facet per line, sorted lines."""
    lines = [
        " ".join(sorted(K.face_labels(m), key=_label_key)) for m in K.facet_masks
    ]
    return "\n".join(sorted(lines)) + "\n"


def from_text(text: str) -> SimplicialComplex:
    facets = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        facets.append(stripped.split())
    if not facets:
        raise PreconditionError("no facets found in input text")
    return from_facets(facets)


def to_json_obj(K: SimplicialComplex) -> dict:
    return {
        "facets": [sorted(K.face_labels(m), key=_label_key) for m in K.facet_masks]
    }


def _is_label(value: object) -> bool:
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def from_json_obj(obj: object) -> SimplicialComplex:
    facets = obj.get("facets") if isinstance(obj, dict) else None
    if not isinstance(facets, list) or not all(
        isinstance(f, list) and all(map(_is_label, f)) for f in facets
    ):
        raise PreconditionError(
            'JSON complex must be an object whose "facets" is an array of arrays '
            "of strings or integers"
        )
    return from_facets(facets)


def from_json(text: str) -> SimplicialComplex:
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise PreconditionError(f"malformed JSON: {exc}") from None
    return from_json_obj(obj)
