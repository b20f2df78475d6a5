"""Exhaustive censuses of small spheres and 9-vertex combinatorial 3-manifolds.

Every census runs one driver, `_census(d, n, stars)`: one forced-closure
search (`_census_task`) per pinned vertex star, on tables keyed by the
dimension d and the vertex bound n.  Each search keeps a pool of facets,
picks a ridge lying in exactly one facet (an open ridge), and tries every
vertex that can close it, introducing fresh vertices in first-use order.  A
completed pool has every ridge in zero or two facets; canonical-form
rejection then decides what was found.

The search branches on the open ridge with the fewest candidate vertices and
stops scanning at a count of 0 or 1: the most-constrained-first rule of
Knuth's "Dancing links" (2000).  Among the ridges with fewest (at least 2),
it takes the one whose most-loaded vertex, its vertex with the most facets,
has the most, and then the least ridge mask: a loaded vertex is near its
seal, where the checks below refuse most.  The counts
come from the closed-neighbour word (see `_ridge_table`), with d shifts and
one popcount per open ridge.  They leave out what `try_add` must refuse: a
dead vertex, one whose star is sealed, and, on a ridge through a vertex
whose link already has the most edges a link may have, a vertex that would
add a ridge there, read off the present-ridge word.  No open ridge holds a
sealed vertex.  The rule shapes the tree, not what it finds.
Every sub-pool of a completion passes every check below: the ridge cap is
monotone, and a star that seals inside a completion's star is already all of
it, since a closed surface (or cycle) inside a 2-sphere link (or cycle) is
the whole link.  So the candidates keep every child that leads on, and the
chosen ridge lies in exactly one more facet of the completion, so exactly one
child leads on, and a fresh vertex it brings takes the next free label.  Any
rule that looks only at the pool therefore reaches each completion once, with
its fresh vertices in first-use order: completions, isomorph rejections and
representatives do not depend on it.

Both censuses are anchored on a vertex star rather than a single facet, so
that each class is closed only from its vertices of least degree.  The
2-sphere census runs one search per least degree k = 3..n-1, with vertex 0's
link pinned to the cycle 1..k and every vertex refused that closes with
fewer than k facets.  The 3-manifold censuses pin vertex 0's link to one of
the canonically labelled m-vertex 2-sphere census members, fixing 2m - 4
facets.  A closed star is final, so a vertex's link type is known once it
closes: its facet count, then, in d = 3, the sorted facet counts at the pairs
through it (its link's vertex degrees), a cheap invariant before the
canonical form (McKay, "Isomorph-free exhaustive generation", 1998).  A
vertex closing with fewer facets than vertex 0, or as many and a smaller
type, is rejected, so vertex 0 has least type in every completion.  With
2n - 6 facets pinned at vertex 0 in d = 3, the most a vertex may have (see
below), every vertex seals with exactly 2n - 6, so its link has n - 1
vertices and its type lists the facet counts at all of its pairs.  A pair
{b, w} that seals with fewer facets than vertex 0's least link degree
then puts b's type below vertex 0's, and the check at b's seal would refuse
every completion of the pool: the pair's seal is refused at once.
Conversely, label a least-type vertex v of a complex M as 0, its link as the
pinned cycle or census seed isomorphic to it, and the rest in first-use
order: every star closing in a sub-pool of that copy is its star in M, a
vertex's of type at least v's and a pair's with at least as many facets as
v's least link degree when the pair check applies, so no check refuses the
copy.  Every complex is thus
reconstructed from each of its least-type vertices, under each labelling of
that vertex's link as the pinned one, and duplicates fall to the
canonical-form filter.

So the seed's own labels are the search's to choose.  Relabelling the pinned
link by a permutation composes each of those labellings with it, a
bijection, so every task finds the same classes, each as often: completions,
isomorph rejections and representatives do not depend on it.  The tree does,
through the last tie on the ridge mask and the low-bit-first order of the
candidates, but the load rule leaves little to it.  The canonical seeds
list their vertices by ascending degree; the 3-manifold censuses pin each
seed with its labels reversed, so the high-degree link vertices take the
low labels.  `label_seed` replaces the reversal with a random labelling.

Cheap necessary conditions prune the tree.  The ridge cap is derived from
n: a vertex link has at most 3(n - 1) - 6 edges in d = 3, the most a
2-sphere on the other n - 1 vertices has (18 at n = 9), and at most n - 1
vertices in d = 2.  Whenever a face's star closes ("seals"), its link must
already be a single cycle (edges) or a connected chi = 2 surface
(vertices).  These imply every facet cap, as a ridge lies in at most two
facets and a sealed star takes no more: the F facets at a vertex make
3F <= 2(3(n - 1) - 6) link-edge incidences, so F <= 2n - 6 (2F <= 2(n - 1)
in d = 2), and at the bound every link edge lies in two, which seals the
vertex; a pair's link has degree at most 2 on n - 2 vertices, so n - 2
facets seal it.  The facet budget is 2n - 4 in d = 2, the facets of an
n-vertex 2-sphere, and it cuts branches; in d = 3 it is n(n - 3)/2 (27 at
n = 9), as 4F <= n(2n - 6), and that many facets seal every vertex, so it
never cuts.

These checks make recognition of a completion unnecessary.  Every facet
added after the pinned star closes an open ridge, so a completion is
strongly connected, and each of its ridges lies in exactly two facets.  In
d = 2 every vertex link passed the cycle check, so a completion is a closed
surface; with n vertices and at most 2n - 4 facets its Euler characteristic
n - f/2 is at least 2, so it is a 2-sphere.  In d = 3 every edge link passed
the cycle check, so every vertex link is a closed surface, and the vertex
check made it connected with chi = 2: a 2-sphere.  With an (n - 1)-vertex
pinned link every vertex seals with at least 2n - 6 facets, the most it may
have, so all have degree n - 1 and the completion is neighbourly: the
neighbourly 9-vertex census is the full census's 8-vertex tasks.  The
2-sphere census runs `_census` over its pinned cycles, and the 9-vertex
censuses over the stars of their seeds on 8, or 4..8, vertices.  The tests
and the benchmark re-verify every census member independently.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache

from . import homology
from .core import PreconditionError, SimplicialComplex, _bits, _components, _iter_bits, _subfaces
from .isomorphism import canonical_form, canonical_relabel

_STAT_KEYS = ("nodes", "completions", "isomorph_rejections", "degree_prunes", "key_prunes")
# bits per vertex in a load word (see `_ClosureSearch`): a vertex has at most
# 2n - 6 <= 26 facets (n <= 16), and 31 more still fit below the next field
_FIELD = 6


@dataclass
class CensusResult:
    """A census: its classes, their counts, and the search's stats.

    `stats["completions"]` counts every pool the search closed, including
    pools that close on fewer vertices than the census asks for, which are
    dropped unseen; so it can exceed the classes plus `isomorph_rejections`.
    """

    complexes: list[SimplicialComplex]  # canonical representatives, sorted by encoding
    counts: dict[str, int]
    stats: dict[str, int] = field(default_factory=dict)


@lru_cache(maxsize=None)
def _facet_table(d: int, n: int) -> dict[int, tuple[int, int, int, tuple, tuple, int, int]]:
    """For each (d+1)-subset f of the n vertices: its top vertex, its ridges as
    a face set, the bits its ridges set in a neighbour word (see
    `_ridge_table`), (vertex, faces through it) for each of its vertices,
    (pair, faces through it) for each of its vertex pairs and those pairs as
    a face set when d = 3, and a one in its vertices' fields of a load word.

    A face set is an int whose bit m is set when the face with vertex mask m is
    in it; the "faces through" sets list only ridges and facets (sizes d and
    d + 1), gathered in one pass over them.
    """
    closes = _ridge_table(d, n)[1]
    through = [0] * (1 << n)
    for m in range(1 << n):
        if m.bit_count() in (d, d + 1):
            for s in _subfaces(m)[1] + (_subfaces(m)[2] if d == 3 else ()):
                through[s] |= 1 << m
    table = {}
    for f in range(1 << n):
        if f.bit_count() == d + 1:
            bits = _bits(f)
            pairs = _subfaces(f)[2] if d == 3 else ()
            ridges = [f ^ (1 << b) for b in bits]
            table[f] = (
                bits[-1],
                sum(1 << r for r in ridges),
                sum(closes[r] for r in ridges),  # distinct ridges set distinct bits
                tuple((b, through[1 << b]) for b in bits),
                tuple((p, through[p]) for p in pairs),
                sum(1 << p for p in pairs),
                sum(1 << _FIELD * b for b in bits),
            )
    return table


@lru_cache(maxsize=None)
def _pair_table(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """For each vertex b: the "faces through" sets of the pairs {b, w}."""
    through = dict(p for *_, at_pairs, _, _ in _facet_table(d, n).values() for p in at_pairs)
    return tuple(tuple(t for p, t in through.items() if p >> b & 1) for b in range(n))


@lru_cache(maxsize=None)
def _ridge_table(d: int, n: int) -> tuple[list, list, list]:
    """For each ridge mask r (a d-subset of the n vertices): the offsets of the
    fields of the (d-1)-faces r - {x} in the closed-neighbour word, the word
    with bit x of each such field set, which r ORs in when it closes, and
    the top bit of the field of each vertex of r in a load word.

    The closed-neighbour word packs one n-bit field per (d-1)-face e, in
    increasing order of e; bit v of e's field is set when the ridge e + {v}
    is closed.  A load word packs one `_FIELD`-bit field per vertex.
    """
    bases = [m for m in range(1 << n) if m.bit_count() == d - 1]
    offset = {e: i * n for i, e in enumerate(bases)}
    shifts: list = [()] * (1 << n)
    closes = [0] * (1 << n)
    guards = [0] * (1 << n)
    for r in range(1 << n):
        if r.bit_count() == d:
            shifts[r] = tuple(offset[r ^ (1 << x)] for x in _bits(r))
            closes[r] = sum(1 << (s + x) for s, x in zip(shifts[r], _bits(r)))
            guards[r] = sum(1 << _FIELD * x + _FIELD - 1 for x in _bits(r))
    return shifts, closes, guards


class _ClosureSearch:
    """Depth-first forced closure of a d-dimensional pool over at most
    n = `max_vertices` vertices, on the (d, n) tables; `_census_task` is the
    one driver that builds it.

    The state is four face sets (see `_facet_table`): the facets, the
    ridges in at least one facet, the open ridges, which lie in exactly
    one, and `sealed`, the pairs whose star is closed (d = 3); two neighbour
    words (see `_ridge_table`), one n-bit field per (d-1)-face, `cn` of the
    closed ridges and `pw` of the present ones; two vertex masks, `dead` of
    the sealed vertices, which can take no more facets, and `rfull` of
    those whose link has `ridge_cap` edges, 3(n - 1) - 6 in d = 3 and
    n - 1 in d = 2 (see the module docstring); the load word `load`, each
    vertex's facet count in its `_FIELD`-bit field; and the vertex count.
    `dead` and `sealed` refuse a facet at a sealed vertex or pair with one
    AND each; other facet counts, seals and ridge counts are popcounts of
    ANDs with the "faces through" sets.  `try_add` keeps every check;
    the words and masks only let `_choose` leave out candidates it would
    refuse.  `min_seal` is the least facet count a vertex may have when its
    star closes; `degree_prunes` counts the additions it rejected.  A
    vertex that closes with exactly `min_seal` facets must not have a link
    type (see `_link_type`) below `min_type`, nor a pair fewer facets than
    `min_pair` (see the module docstring); `key_prunes` counts both.  `pin`
    sets all three from vertex 0's star.  `completions` counts every pool
    with no open ridge, also those that close on fewer vertices than the
    census asks for, which its `on_complete` drops.
    """

    def __init__(self, d: int, max_vertices: int):
        self.d = d
        self.max_vertices = n = max_vertices
        # the most ridges at a vertex (edges of its link) a manifold allows,
        # and the facet budget of the module docstring
        self.ridge_cap = 3 * (n - 1) - 6 if d == 3 else n - 1
        self.max_facets = 2 * n - 4 if d == 2 else n * (n - 3) // 2
        self.min_seal = 0
        self.min_type: tuple = ()
        self.min_pair = 0
        self.table = _facet_table(d, n)
        self.pairs = _pair_table(d, n)
        self.shifts, self.closes, self.guards = _ridge_table(d, n)
        self.ones = sum(1 << _FIELD * v for v in range(n))
        self.facets = 0
        self.present = 0
        self.open = 0
        self.cn = 0
        self.pw = 0
        self.dead = 0
        self.rfull = 0
        self.sealed = 0
        self.load = 0
        self.used = 0
        self._saved: list[tuple[int, ...]] = []
        self.nodes = 0
        self.completions = 0
        self.degree_prunes = 0
        self.key_prunes = 0

    def to_complex(self) -> SimplicialComplex:
        """The pool as a complex on vertices 0..used-1, labelled 1..used: fresh
        vertices enter in first-use order, so they are dense, and facets of
        one size already form an antichain."""
        return SimplicialComplex(
            tuple(_iter_bits(self.facets)), tuple(str(i + 1) for i in range(self.used))
        )

    # -- mutation ---------------------------------------------------------

    def pin(self, star: Iterable[int]) -> None:
        """Insert vertex 0's closed star, so that every other vertex must seal
        with at least as many facets, and with as many, no smaller link type."""
        star = tuple(star)
        self.min_seal = len(star)
        for f in star:
            ok = self.try_add(f)
            assert ok, "a pinned star must always insert cleanly"
        self.min_type = self._link_type(0, self.facets)
        # vertex 0's least link degree: 0 unless its link has all n - 1 other
        # vertices, that is unless min_seal = 2n - 6 in d = 3
        self.min_pair = min(self.min_type[1], default=0)

    def try_add(self, fmask: int) -> bool:
        """Add one facet if the ridge cap and every seal check allow it.

        The caller has ruled out a full pool, a facet already present and a
        ridge of it already in two facets; False leaves the state untouched.
        """
        top, ridges, word, at_vertices, at_pairs, pair_set, tally = self.table[fmask]
        if fmask & self.dead or pair_set & self.sealed:
            return False  # a sealed vertex or edge link
        present = self.present | ridges
        rfull, cap = self.rfull, self.ridge_cap
        for b, through in at_vertices:
            edges = (present & through).bit_count()
            if edges >= cap:
                if edges > cap:
                    return False
                rfull |= 1 << b
        facets = self.facets | 1 << fmask
        open_ = self.open ^ ridges
        dead = self.dead
        for b, through in at_vertices:
            if not open_ & through:
                mine = facets & through
                seal = mine.bit_count()
                if seal < self.min_seal:
                    self.degree_prunes += 1
                    return False
                if seal == self.min_seal and self._link_type(b, facets) < self.min_type:
                    self.key_prunes += 1
                    return False
                if not self._vertex_link_ok(b, mine, (present & through).bit_count()):
                    return False
                dead |= 1 << b
        sealed = self.sealed
        for p, through in at_pairs:
            if not open_ & through:
                mine = facets & through
                seal = mine.bit_count()
                if seal < self.min_pair:
                    self.key_prunes += 1
                    return False
                if seal >= 6 and not self._link_is_cycle(p, mine):
                    return False
                sealed |= 1 << p
        cn = self.cn
        closing = ridges & self.open
        while closing:
            low = closing & -closing
            cn |= self.closes[low.bit_length() - 1]
            closing ^= low
        self._saved.append((
            self.facets, self.present, self.open, self.cn, self.pw, self.dead, self.rfull,
            self.sealed, self.load, self.used,
        ))
        self.facets, self.present, self.open = facets, present, open_
        self.cn, self.pw, self.dead, self.rfull = cn, self.pw | word, dead, rfull
        self.sealed, self.load = sealed, self.load + tally
        if top >= self.used:
            self.used = top + 1
        return True

    def undo(self) -> None:
        (
            self.facets, self.present, self.open, self.cn, self.pw, self.dead, self.rfull,
            self.sealed, self.load, self.used,
        ) = self._saved.pop()

    # -- seal validation ---------------------------------------------------

    def _link_type(self, b: int, facets: int) -> tuple[int, tuple[int, ...]]:
        """Vertex b's link type in the pool `facets`: its facet count and the
        sorted facet counts at the n - 1 pairs {b, w}, its link's vertex
        degrees.  In d = 2 no pairs are counted and every type is (0, ()): a sealed
        cycle link is fixed by its length, which `min_seal` already orders."""
        counts = sorted((facets & through).bit_count() for through in self.pairs[b])
        return sum(counts) // 3, tuple(counts)

    def _vertex_link_ok(self, b: int, facets: int, ridges: int) -> bool:
        """Once no ridge at vertex b is open, its link (`facets` at b, with
        `ridges` edges) must be a single cycle (d=2) or a connected chi=2
        surface (d=3)."""
        if self.d == 2:
            return self._link_is_cycle(1 << b, facets)
        link = [f ^ (1 << b) for f in _iter_bits(facets)]
        vertices = 0
        for e in link:
            vertices |= e
        return vertices.bit_count() - ridges + len(link) == 2 and _components(link) <= 1

    @staticmethod
    def _link_is_cycle(face: int, facets: int) -> bool:
        """Whether the sealed link of `face` (a pair when d = 3, a vertex when
        d = 2), the graph of edges f - face over its `facets`, is one cycle.

        Every vertex v of that graph has degree 2, as the ridge face + {v} is
        closed, so the graph is a union of cycles of length at least 3; with
        fewer than 6 edges it is one cycle, and otherwise the walk decides.
        """
        if facets.bit_count() < 6:
            return True
        return _components([f & ~face for f in _iter_bits(facets)]) <= 1

    # -- search ------------------------------------------------------------

    def run(self, on_complete) -> None:
        self.nodes += 1
        if not self.open:
            self.completions += 1
            on_complete(self)
            return
        facets = self.facets
        if facets.bit_count() >= self.max_facets:
            return
        ridge, candidates = self._choose()
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            fmask = ridge | low
            if facets >> fmask & 1:
                continue  # the one facet already holding the ridge
            if self.try_add(fmask):
                self.run(on_complete)
                self.undo()

    def _choose(self) -> tuple[int, int]:
        """The open ridge r to branch on and its candidates as a vertex mask.

        The candidates are the allowed vertices v outside r with no ridge
        r - {x} + {v} closed: bit v of the field of r - {x} in `cn`.  A dead
        vertex is not allowed.  Where the (d-1)-face r - {y} holds a vertex
        of `rfull`, v must also make r - {y} + {v} present: bit v of that
        face's field in `pw`.  The candidates are the vertices that can close
        r, plus the vertex of the facet holding r unless another ridge of
        that facet is closed.  The scan stops at the first ridge with 0 or 1
        candidates.  Otherwise the ridge has the fewest candidates, then the
        most facets at its most-loaded vertex, read off the load word, then
        the least mask.
        """
        cn, pw, rfull, shifts, guards = self.cn, self.pw, self.rfull, self.shifts, self.guards
        allowed = ((1 << min(self.used + 1, self.max_vertices)) - 1) & ~self.dead
        best, fewest, choice, heavier = 0, self.max_vertices + 1, 0, -1
        rest = self.open
        while rest:
            low = rest & -rest
            rest ^= low
            ridge = low.bit_length() - 1
            blocked = ridge
            for s in shifts[ridge]:
                blocked |= cn >> s
            candidates = allowed & ~blocked
            if ridge & rfull:
                for y, s in zip(_bits(ridge), shifts[ridge]):
                    if ridge & ~(1 << y) & rfull:
                        candidates &= pw >> s
            count = candidates.bit_count()
            if count > fewest:
                continue
            if count <= 1:
                return ridge, candidates
            if count < fewest:
                best, fewest, choice, heavier = ridge, count, candidates, -1
                continue
            if heavier < 0:
                # adding 31 - k to every field of the load word, k the facets
                # at the best ridge's most-loaded vertex, sets the top bit of
                # the fields of the vertices with more
                k = max([self.load >> _FIELD * b & 31 for b in _bits(best)])
                heavier = self.load + self.ones * (31 - k)
            if heavier & guards[ridge]:
                best, choice, heavier = ridge, candidates, -1
        return best, choice


# -- censuses -------------------------------------------------------------------


def _census_task(task: tuple[int, int, tuple[int, ...]]):
    """Complete vertex 0's star, pinned to the facet masks `star`, to closed
    d-dimensional pools on exactly n vertices in which vertex 0 has least
    link type: one canonical representative per class, keyed by its
    canonical bytes, and the search's stats.  Safe to run in a worker
    process."""
    d, n, star = task
    search = _ClosureSearch(d, n)
    search.pin(star)
    found: dict[bytes, SimplicialComplex] = {}
    stats = {"isomorph_rejections": 0}

    def on_complete(s: _ClosureSearch) -> None:
        if s.used != n:
            return
        K = s.to_complex()
        digest = canonical_form(K).bytes
        if digest in found:
            stats["isomorph_rejections"] += 1
        else:
            found[digest] = canonical_relabel(K)

    search.run(on_complete)
    for key in ("nodes", "completions", "degree_prunes", "key_prunes"):
        stats[key] = getattr(search, key)
    return found, stats


def _census(
    d: int, n: int, stars: Iterable[tuple[int, ...]], threads: int = 1
) -> tuple[list[SimplicialComplex], dict[str, int]]:
    """One `_census_task` per pinned star, on `threads` worker processes: the
    classes, deduplicated across tasks and sorted by canonical bytes, and the
    summed stats, without the prune counts in d = 2."""
    tasks = [(d, n, star) for star in stars]
    if threads > 1:
        from multiprocessing import Pool

        with Pool(threads) as pool:
            results = pool.map(_census_task, tasks)
    else:
        results = map(_census_task, tasks)
    found: dict[bytes, SimplicialComplex] = {}
    stats = dict.fromkeys(_STAT_KEYS if d == 3 else _STAT_KEYS[:3], 0)
    for task_found, task_stats in results:
        for key in stats:
            stats[key] += task_stats[key]
        # representatives are canonical, so a repeat found anew is equal
        stats["isomorph_rejections"] += len(found.keys() & task_found.keys())
        found.update(task_found)
    return [found[k] for k in sorted(found)], stats


def enumerate_two_spheres(n: int) -> CensusResult:
    """All combinatorial 2-spheres on exactly n vertices, up to isomorphism.

    One search per least degree k = 3..n-1: vertex 0's link is pinned to
    the cycle 1..k, and every other vertex must close with at least k
    facets, so vertex 0 has least degree in every completion.
    """
    if n < 4 or n > 10:
        raise PreconditionError(f"2-sphere census covers 4 <= n <= 10, got {n}")
    cycles = [tuple(1 | 1 << i | 1 << (i % k + 1) for i in range(1, k + 1)) for k in range(3, n)]
    ordered, stats = _census(2, n, cycles)
    return CensusResult(ordered, {"two_sphere": len(ordered)}, stats)


@lru_cache(maxsize=None)
def _sphere_seeds(n: int) -> tuple[SimplicialComplex, ...]:
    return tuple(enumerate_two_spheres(n).complexes)


def _seed_stars(sizes: Iterable[int], label_seed: int | None) -> list[tuple[int, ...]]:
    """Vertex 0's star over each canonical 2-sphere on each number of
    vertices in `sizes`, the link's vertex i taking label perm[i] + 1: its
    labels reversed or, given `label_seed`, relabelled at random from it
    (see the module docstring).  Reversed, the neighbourly census visits
    6,207 nodes, against 6,460 with the seeds' own labels."""
    rng = random.Random(label_seed) if label_seed is not None else None
    stars = []
    for m in sizes:
        for link in _sphere_seeds(m):
            if rng is None:
                perm = range(m - 1, -1, -1)
            else:
                perm = list(range(m))
                rng.shuffle(perm)
            stars.append(tuple(1 | sum(2 << perm[b] for b in _bits(fm)) for fm in link.facet_masks))
    return stars


def _census_9(sizes: Iterable[int], label_seed: int | None, threads: int) -> CensusResult:
    """The 9-vertex census over the seed stars of `_seed_stars`, its classes
    split into spheres and non-spheres by integer homology."""
    ordered, stats = _census(3, 9, _seed_stars(sizes, label_seed), threads)
    spheres = sum(homology.homology(K) == homology.THREE_SPHERE_PROFILE for K in ordered)
    counts = {"total": len(ordered), "sphere": spheres, "non_sphere": len(ordered) - spheres}
    return CensusResult(ordered, counts, stats)


def enumerate_neighbourly_9_manifolds(
    label_seed: int | None = None, threads: int = 1
) -> CensusResult:
    """All neighbourly 9-vertex combinatorial 3-manifolds up to isomorphism.

    Every vertex of such a manifold has an 8-vertex 2-sphere link, so each
    isomorphism class is reached from some pinned canonical link; classes are
    separated into spheres and non-spheres by integer homology.

    Each link is pinned with its labels reversed, which suits the search;
    `label_seed` replaces that with a random labelling drawn from it.  The
    census is invariant under any such base reordering; only the stats
    `nodes`, `degree_prunes` and `key_prunes` change.  `threads` distributes
    the pinned-link searches over worker processes; results are merged and
    sorted, so counts and representatives do not depend on the worker count.
    """
    return _census_9((8,), label_seed, threads)


def enumerate_all_9_manifolds(threads: int = 1) -> CensusResult:
    """The full census of 9-vertex combinatorial 3-manifolds: one pinned-link
    search per 2-sphere on 4..8 vertices (about 4.5 s on one thread of a
    2-core machine).  `threads` works as for the neighbourly census.
    """
    return _census_9(range(4, 9), None, threads)
