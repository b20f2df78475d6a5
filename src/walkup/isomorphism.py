"""Canonical forms, isomorphism tests, automorphism groups and orbits.

The canonical form is computed by individualization-refinement: vertices are
partitioned by an isomorphism-invariant signature (vertex degree plus the
multiset of incident edge degrees), the partition is refined against itself
via pairwise edge degrees, and remaining ties are resolved by backtracking
over orderings, keeping the lexicographically least facet-set encoding.
Automorphisms are harvested from orderings that reproduce the best encoding
and reused to prune the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PreconditionError, SimplicialComplex, _iter_bits, _label_key


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
    """deg({v,w}) for every edge, -1 for non-edges; diagonal holds deg(v)."""
    n = K.vertex_count
    pd = [[-1] * n for _ in range(n)]
    link_union = [[0] * n for _ in range(n)]
    vertex_union = [0] * n
    for fm in K.facet_masks:
        bits = list(_iter_bits(fm))
        for v in bits:
            vertex_union[v] |= fm & ~(1 << v)
            for w in bits:
                if w != v:
                    link_union[v][w] |= fm & ~(1 << v) & ~(1 << w)
    for v in range(n):
        pd[v][v] = vertex_union[v].bit_count()
        for w in range(n):
            if w != v and (vertex_union[v] >> w) & 1:
                pd[v][w] = link_union[v][w].bit_count()
    return pd


def _refine(cells: list[list[int]], pd: list[list[int]]) -> list[list[int]]:
    """Split cells by pairwise degree profiles until stable; order is invariant."""
    while True:
        for ci, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            keyed: dict[tuple, list[int]] = {}
            for v in cell:
                key = tuple(
                    tuple(sorted(pd[v][w] for w in other if w != v)) for other in cells
                )
                keyed.setdefault(key, []).append(v)
            if len(keyed) > 1:
                parts = [sorted(keyed[k]) for k in sorted(keyed)]
                cells = cells[:ci] + parts + cells[ci + 1 :]
                break
        else:
            return cells


def _encode(K: SimplicialComplex, order: list[int]) -> tuple[int, ...]:
    pos = [0] * len(order)
    for p, v in enumerate(order):
        pos[v] = p
    remapped = []
    for fm in K.facet_masks:
        m = 0
        for b in _iter_bits(fm):
            m |= 1 << pos[b]
        remapped.append(m)
    remapped.sort()
    return tuple(remapped)


def _orbit_of(v: int, autos: list[tuple[int, ...]]) -> set[int]:
    seen = {v}
    frontier = [v]
    while frontier:
        x = frontier.pop()
        for g in autos:
            y = g[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _search(K: SimplicialComplex) -> tuple[tuple[int, ...], list[int], list[tuple[int, ...]]]:
    """Return (best encoding, ordering achieving it, automorphisms found)."""
    n = K.vertex_count
    pd = _pair_degrees(K)
    base = {}
    for v in range(n):
        key = (pd[v][v], tuple(sorted(d for w, d in enumerate(pd[v]) if w != v and d >= 0)))
        base.setdefault(key, []).append(v)
    cells = [sorted(base[k]) for k in sorted(base)]
    cells = _refine(cells, pd)

    best: list = [None, None]  # encoding, order
    autos: list[tuple[int, ...]] = []

    def recurse(cells: list[list[int]]) -> None:
        target = next((ci for ci, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [c[0] for c in cells]
            enc = _encode(K, order)
            if best[0] is None or enc < best[0]:
                best[0], best[1] = enc, order
            elif enc == best[0]:
                prev = best[1]
                pos_prev = [0] * n
                for p, v in enumerate(prev):
                    pos_prev[v] = p
                g = tuple(order[pos_prev[v]] for v in range(n))
                if any(g[v] != v for v in range(n)) and g not in autos:
                    autos.append(g)
            return
        tried: list[int] = []
        for v in cells[target]:
            if tried and (_orbit_of(v, autos) & set(tried)):
                continue
            rest = [w for w in cells[target] if w != v]
            nxt = cells[:target] + [[v], rest] + cells[target + 1 :]
            recurse(_refine(nxt, pd))
            tried.append(v)

    recurse(cells)
    return best[0], best[1], autos


def canonical_form(K: SimplicialComplex) -> CanonicalForm:
    """Encoding invariant under every relabeling of ``K``."""
    if K.vertex_count == 0:
        return CanonicalForm(b"\x00", {})
    enc, order, _ = _search(K)
    return _canonical(K, enc, order)


def _canonical(K: SimplicialComplex, enc: tuple[int, ...], order: list[int]) -> CanonicalForm:
    n = K.vertex_count
    pos = {v: p for p, v in enumerate(order)}
    payload = bytes([n]) + b"".join(m.to_bytes(2, "little") for m in enc)
    relabeling = {K.labels[v]: pos[v] for v in range(n)}
    return CanonicalForm(payload, relabeling)


def canonical_relabel(K: SimplicialComplex) -> SimplicialComplex:
    """The canonical representative itself, on labels '0'..'n-1'."""
    cf = canonical_form(K)
    return K.relabel({lab: str(cid) for lab, cid in cf.relabeling.items()})


def are_isomorphic(
    K: SimplicialComplex, L: SimplicialComplex
) -> tuple[bool, dict[str, str] | None]:
    """Decide isomorphism; on success also return a verified vertex bijection."""
    cf_k, cf_l = canonical_form(K), canonical_form(L)
    if cf_k.bytes != cf_l.bytes:
        return False, None
    inverse_l = {cid: lab for lab, cid in cf_l.relabeling.items()}
    witness = {lab: inverse_l[cid] for lab, cid in cf_k.relabeling.items()}
    mapped = {frozenset(witness[lab] for lab in f) for f in K.facets()}
    if mapped != set(L.facets()):
        raise AssertionError("canonical relabelings produced an invalid witness")
    return True, witness


def _perm_order(gens: list[tuple[int, ...]], n: int) -> int:
    """Group order by an orbit-stabilizer chain over the generators."""
    gens = [g for g in gens if any(g[i] != i for i in range(n))]
    if not gens:
        return 1
    b = next(i for i in range(n) if any(g[i] != i for g in gens))
    transversal: dict[int, tuple[int, ...]] = {b: tuple(range(n))}
    frontier = [b]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in transversal:
                transversal[y] = tuple(g[t] for t in transversal[x])
                frontier.append(y)
    stab: list[tuple[int, ...]] = []
    seen = set()
    for x, rep in transversal.items():
        for g in gens:
            word = tuple(g[rep[t]] for t in range(n))
            back = transversal[g[x]]
            inv = [0] * n
            for i, t in enumerate(back):
                inv[t] = i
            schreier = tuple(inv[word[t]] for t in range(n))
            if schreier not in seen:
                seen.add(schreier)
                stab.append(schreier)
    return len(transversal) * _perm_order(stab, n)


def automorphism_group(K: SimplicialComplex) -> PermutationGroup:
    if K.vertex_count == 0:
        return PermutationGroup((), (), 1)
    return _group(K, _search(K)[2])


def canonical_form_and_group(K: SimplicialComplex) -> tuple[CanonicalForm, PermutationGroup]:
    """`canonical_form(K)` and `automorphism_group(K)` from one search."""
    if K.vertex_count == 0:
        return canonical_form(K), automorphism_group(K)
    enc, order, autos = _search(K)
    return _canonical(K, enc, order), _group(K, autos)


def _group(K: SimplicialComplex, autos: list[tuple[int, ...]]) -> PermutationGroup:
    n = K.vertex_count
    for g in autos:
        mapped = {sum(1 << g[b] for b in _iter_bits(fm)) for fm in K.facet_masks}
        if mapped != set(K.facet_masks):
            raise AssertionError("harvested permutation is not an automorphism")
    gens = tuple(
        tuple(sorted((K.labels[v], K.labels[g[v]]) for v in range(n)))
        for g in autos
    )
    return PermutationGroup(tuple(K.labels), gens, _perm_order(autos, n))


def group_elements(group: PermutationGroup, cap: int = 10_000) -> list[dict[str, str]]:
    """All elements by closure; guarded by `cap` against large groups."""
    identity = {lab: lab for lab in group.domain}
    gens = group.generator_maps()
    elements = {tuple(sorted(identity.items())): identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for h in gens:
            comp = {lab: h[g[lab]] for lab in group.domain}
            key = tuple(sorted(comp.items()))
            if key not in elements:
                if len(elements) >= cap:
                    raise PreconditionError(f"group closure exceeds cap {cap}")
                elements[key] = comp
                frontier.append(comp)
    return list(elements.values())


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
