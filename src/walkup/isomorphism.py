"""Canonical forms, isomorphism tests, automorphism groups and orbits.

The canonical form is computed by individualization-refinement.  The root
is the one cell of all vertices, refined against pairwise edge degrees; the
first pass orders the cells by vertex degree, then by the multiset of
incident edge degrees (see `_pair_degrees`).  Ties are resolved by a search
tree: each node individualises one vertex of its first non-singleton cell
and refines again.  At a leaf every cell is a single vertex, and the leaf's
encoding is the sorted list of facet masks over the vertices' positions.
The canonical form is the least encoding over all leaves of the tree.

An automorphism maps the tree onto itself and keeps encodings, so two
leaves with one encoding differ by an automorphism; a leaf that equals the
best so far is harvested as one.  The search drops a subtree only if it is:

- a child in the orbit of an already-tried child, under harvested
  automorphisms that fix the node's individualised vertices, which map the
  tried child's subtree onto it (McKay & Piperno, Practical graph
  isomorphism II, J. Symbolic Comput. 60, 2014).  A harvested automorphism
  puts a leaf's branch into such an orbit at the node where its path leaves
  the best path, so the search resumes there;
- a subtree whose lower bound on its encodings exceeds the best encoding.

Neither holds an encoding below the best, so the canonical bytes are those
of the whole tree, whatever is pruned.  The first path is searched first,
so every leaf met before a node on it is done lies below that node, and the
best leaf is then the least below it.  Each leaf below it with that encoding
is met and harvested against the first one met, or lies in an orbit-dropped
subtree that a harvested automorphism maps from one searched.  So the
automorphisms harvested below the node generate the stabiliser of its
individualised vertices, and |Aut| is the product, along the first path, of
the orbit length of each individualised vertex under the harvested
automorphisms that fix those before it.

`are_isomorphic(K, L)` needs only K's least encoding t from L's tree.  L's
search runs as above but stops at its first leaf with an encoding at most
t: equal means L is isomorphic to K, below means it is not.  The best leaf
is replaced only on a strict decrease, so L's canonical ordering comes from
the first leaf met that reaches L's least encoding, which is t when the two
are isomorphic: the early stop returns that same ordering, and the witness
is the one the two full canonical forms give.  The nodes visited are a
prefix of the full search's, so the stop never costs a node.  Subtrees whose
bound exceeds t are not dropped beyond the bound on the best encoding: with
no leaf above t met, no automorphism would be harvested, and orbit pruning
would be lost on a symmetric L that is not isomorphic to K.  A search that
meets no leaf at most t is the full search and is kept on L.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PreconditionError, SimplicialComplex, _bits, _label_key


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant encoding; equal bytes iff isomorphic complexes."""

    bytes: bytes
    relabeling: dict[str, int]

    def hex_digest(self) -> str:
        return self.bytes.hex()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        return self.bytes == other.bytes

    def __hash__(self) -> int:
        return hash(self.bytes)


@dataclass(frozen=True)
class PermutationGroup:
    """Vertex permutation group given by generators and exact order."""

    domain: tuple[str, ...]
    generators: tuple[tuple[tuple[str, str], ...], ...]  # each generator as sorted (src, dst) pairs
    order: int

    def generator_maps(self) -> list[dict[str, str]]:
        return [dict(g) for g in self.generators]


def _pair_degrees(K: SimplicialComplex) -> list[list[int]]:
    """deg({v,w}) for every edge, -1 for non-edges, in one pass over the
    facets' pairs.  Edge degrees are at least 0, so v's row, sorted without
    its diagonal, leads with one -1 per non-neighbour and then lists v's
    incident edge degrees in order: sorted rows order the vertices by degree,
    then by their sorted incident edge degrees.  The diagonal is never read."""
    n = K.vertex_count
    pd = [[-1] * n for _ in range(n)]
    for face, union in K.stars(2)[1].items():
        v, w = (face & -face).bit_length() - 1, face.bit_length() - 1
        pd[v][w] = pd[w][v] = union.bit_count() - 2
    return pd


def _refine(cells: list[list[int]], pd: list[list[int]], fresh: list[bool]) -> list[list[int]]:
    """Split cells by pairwise degree profiles until equitable; order is invariant.

    A vertex's key holds, for each cell, the sorted degrees of its pairs with
    that cell's other vertices, and the first cell the key splits is replaced
    by its parts in key order.  `fresh` flags the cells that are not cells of
    an equitable partition this one refines.  Every other cell gives a key
    component that is constant on each cell, so the key is taken over the
    fresh cells alone and the parts come out as from the full key.
    """
    while True:
        splitters = [c for c, f in zip(cells, fresh) if f]
        for ci, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            keyed: dict[tuple, list[int]] = {}
            for v in cell:
                row = pd[v]
                key = tuple(tuple(sorted(row[w] for w in other if w != v)) for other in splitters)
                keyed.setdefault(key, []).append(v)
            if len(keyed) > 1:
                parts = [sorted(keyed[k]) for k in sorted(keyed)]
                cells = cells[:ci] + parts + cells[ci + 1 :]
                fresh = fresh[:ci] + [True] * len(parts) + fresh[ci + 1 :]
                break
        else:
            return cells


def _least_encoding(cells: list[list[int]], verts: list[tuple[int, ...]], n: int) -> tuple[int, ...]:
    """A lower bound on the encoding of every leaf below `cells`; on a discrete
    partition, the encoding itself: facet masks over positions, sorted.

    Each cell keeps its range of positions in every leaf below it.  A facet's
    mask is least when its vertices in each cell take the lowest positions of
    that cell's range, and sorting is monotone, so the sorted least masks are
    at most every leaf's sorted masks.
    """
    start = [0] * n
    p = 0
    for cell in cells:
        for v in cell:
            start[v] = p
        p += len(cell)
    least = []
    for vs in verts:
        m = 0
        for v in vs:
            b = 1 << start[v]
            while m & b:
                b <<= 1
            m |= b
        least.append(m)
    least.sort()
    return tuple(least)


def _orbit(seeds: list[int], autos: list[tuple[int, ...]], fixed: tuple[int, ...]) -> set[int]:
    """The orbit of `seeds` under the automorphisms that fix each of `fixed`."""
    gens = [g for g in autos if all(g[u] == u for u in fixed)]
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


Search = tuple[tuple[int, ...], list[int], list[tuple[int, ...]], int]


def _search(K: SimplicialComplex, stop: tuple[int, ...] | None = None) -> Search:
    """(least encoding, an ordering achieving it, harvested automorphisms, |Aut|).

    Given `stop`, the search ends at the first leaf whose encoding is at most
    `stop` and returns that leaf's encoding and ordering, with |Aut| 0; a
    search that returns an encoding above `stop` ran to the end."""
    n = K.vertex_count
    verts = [_bits(fm) for fm in K.facet_masks]
    pd = _pair_degrees(K)
    root = _refine([list(range(n))], pd, [True])

    first_path: list[int] = []
    best: list = []  # [encoding, order, path] of the least leaf so far
    autos: list[tuple[int, ...]] = []

    def recurse(cells: list[list[int]], path: tuple[int, ...]) -> int:
        """Search below the node that individualised `path`; return the depth
        of the node that goes on with its next child, or -1 to stop."""
        depth = len(path)
        bound = _least_encoding(cells, verts, n)
        if best and bound > best[0]:
            return depth
        target = next((ci for ci, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [c[0] for c in cells]
            if not best:
                first_path.extend(path)
            if not best or bound < best[0]:
                best[:] = [bound, order, path]
                return -1 if stop is not None and bound <= stop else depth
            g = tuple(w for _, w in sorted(zip(best[1], order)))  # best order's p-th vertex -> order[p]
            if g not in autos:
                autos.append(g)
            # g fixes the common prefix and maps the best path's next vertex,
            # a child tried before, onto this path's: that child is done
            return next(i for i, (a, b) in enumerate(zip(path, best[2])) if a != b)
        cell = cells[target]
        fresh = [False] * (len(cells) + 1)
        fresh[target] = fresh[target + 1] = True
        tried: list[int] = []
        for v in cell:
            if tried and v in _orbit(tried, autos, path):
                continue
            child = cells[:target] + [[v], [w for w in cell if w != v]] + cells[target + 1 :]
            resume = recurse(_refine(child, pd, fresh), path + (v,))
            if resume < depth:
                return resume
            tried.append(v)
        return depth

    if recurse(root, ()) < 0:
        return best[0], best[1], autos, 0
    order = 1
    for k, v in enumerate(first_path):
        order *= len(_orbit([v], autos, tuple(first_path[:k])))
    return best[0], best[1], autos, order


def _searched(K: SimplicialComplex) -> Search:
    """`_search(K)`, run once per complex and kept on it."""
    if K._search_cache is None:
        K._search_cache = _search(K)
    return K._search_cache


def canonical_form(K: SimplicialComplex) -> CanonicalForm:
    """Encoding invariant under every relabeling of ``K``."""
    enc, order, _, _ = _searched(K)
    pos = {v: p for p, v in enumerate(order)}
    payload = bytes([K.vertex_count]) + b"".join(m.to_bytes(2, "little") for m in enc)
    return CanonicalForm(payload, {lab: pos[v] for v, lab in enumerate(K.labels)})


def canonical_relabel(K: SimplicialComplex) -> SimplicialComplex:
    """The canonical representative itself, on labels '0'..'n-1': the least
    encoding is its facet masks, sorted, over positions that these labels
    take in label order."""
    return SimplicialComplex(_searched(K)[0], tuple(map(str, range(K.vertex_count))))


def are_isomorphic(
    K: SimplicialComplex, L: SimplicialComplex
) -> tuple[bool, dict[str, str] | None]:
    """Decide isomorphism; on success also return a verified vertex bijection.
    L's search stops early when it can (see the module docstring)."""
    cf_k = canonical_form(K)
    least = _searched(K)[0]
    found = L._search_cache or _search(L, least)
    enc, order = found[0], found[1]
    if enc > least:
        L._search_cache = found
    if enc != least:
        return False, None
    witness = {lab: L.labels[order[cid]] for lab, cid in cf_k.relabeling.items()}
    image = [L._index[witness[lab]] for lab in K.labels]
    mapped = sorted(sum(1 << image[b] for b in _bits(fm)) for fm in K.facet_masks)
    if tuple(mapped) != L.facet_masks:  # facet masks are kept sorted
        raise AssertionError("canonical relabelings produced an invalid witness")
    return True, witness


def automorphism_group(K: SimplicialComplex) -> PermutationGroup:
    _, _, autos, order = _searched(K)
    n = K.vertex_count
    gens = tuple(
        tuple(sorted((K.labels[v], K.labels[g[v]]) for v in range(n)))
        for g in autos
    )
    return PermutationGroup(tuple(K.labels), gens, order)


# -- group actions on labelled objects ---------------------------------------


def _apply_perm(g: dict[str, str], obj):
    if isinstance(obj, frozenset):
        return frozenset(_apply_perm(g, x) for x in obj)
    key = str(obj)
    if key not in g:
        raise PreconditionError(f"label {key!r} outside the permutation domain")
    return g[key]


def _object_key(obj):
    if isinstance(obj, frozenset):
        return tuple(sorted((_object_key(x) for x in obj)))
    return _label_key(str(obj))


def normalize_object(obj) -> frozenset:
    """Coerce a vertex set or a family of vertex sets to nested frozensets."""
    items = list(obj)
    if items and all(isinstance(x, (set, frozenset, tuple, list)) for x in items):
        return frozenset(frozenset(str(v) for v in x) for x in items)
    return frozenset(str(v) for v in items)


@dataclass(frozen=True)
class Orbit:
    representative: frozenset
    members: tuple[frozenset, ...]


def orbits(group: PermutationGroup, objects) -> list[Orbit]:
    """Partition `objects` into orbits; representatives are lexicographic minima."""
    gens = group.generator_maps()
    normalized = [normalize_object(o) for o in objects]
    remaining = set(normalized)
    out = []
    for obj in normalized:
        if obj not in remaining:
            continue
        orbit = {obj}
        frontier = [obj]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = _apply_perm(g, x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        members = tuple(sorted(orbit, key=_object_key))
        out.append(Orbit(members[0], members))
        remaining -= orbit
    out.sort(key=lambda o: _object_key(o.representative))
    return out
