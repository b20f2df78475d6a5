"""Exhaustive censuses of small spheres and 9-vertex combinatorial 3-manifolds.

Both censuses run the same forced-closure search: keep a pool of facets, find
the lexicographically least ridge lying in exactly one facet, and try every
vertex that can close it, introducing fresh vertices in first-use order.  A
completed pool has every ridge in zero or two facets; canonical-form rejection
then decides what was found.

The 3-manifold censuses are anchored on a vertex star rather than a single
facet: vertex 0's link is pinned to one of the canonically labelled m-vertex
2-sphere census members, fixing 2m - 4 facets.  A vertex whose star closes
with fewer facets is rejected; a closed star is final, and a k-vertex 2-sphere
has 2k - 4 triangles, so vertex 0 has least degree.  Every manifold is thus
reconstructed from each of its least-degree vertices, and duplicates fall to
the canonical-form filter.

Cheap necessary conditions prune the tree: per-face facet counts respect the
bounds a manifold link allows, and whenever a face's star closes ("seals"),
its link must already be a single cycle (edges) or a connected chi = 2
surface (vertices).

These checks make recognition of a completion unnecessary.  Every facet added
after the first (or after the pinned star) closes an open ridge, so a
completion is strongly connected, and each of its ridges lies in exactly two
facets.  In d = 2 every vertex link passed the cycle check, so a completion is
a closed surface; with n vertices and at most 2n - 4 facets its Euler
characteristic n - f/2 is at least 2, so it is a 2-sphere.  In d = 3 every
edge link passed the cycle check, so every vertex link is a closed surface,
and the vertex check made it connected with chi = 2: a 2-sphere.  With an
8-vertex pinned link every vertex seals with at least 12 facets, the vertex
cap, so all have degree 8 and the completion is neighbourly: the neighbourly
census is the full census's 8-vertex tasks.  The tests and the benchmark
re-verify every census member independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from . import homology
from .core import PreconditionError, SimplicialComplex, _iter_bits
from .isomorphism import canonical_form, canonical_relabel
from .recognition import _connected

MAX_N = 9
_STAT_KEYS = ("nodes", "completions", "isomorph_rejections", "degree_prunes")


@dataclass
class CensusResult:
    complexes: list[SimplicialComplex]  # canonical representatives, sorted by encoding
    counts: dict[str, int]
    stats: dict[str, int] = field(default_factory=dict)


@lru_cache(maxsize=None)
def _facet_table(d: int) -> dict[int, tuple[int, int, tuple, tuple]]:
    """For each (d+1)-subset f of the 9 vertices: its top vertex, its ridges as
    a face set, and (vertex, faces through it) for each of its vertices and
    (pair, faces through it) for each of its vertex pairs when d = 3.

    A face set is an int whose bit m is set when the face with vertex mask m is
    in it; the sets here list only ridges and facets (sizes d and d + 1).
    """
    faces = [m for m in range(1 << MAX_N) if m.bit_count() in (d, d + 1)]

    def through(s: int) -> int:
        return sum(1 << m for m in faces if m & s == s)

    at_vertex = [through(1 << v) for v in range(MAX_N)]
    table = {}
    for f in faces:
        if f.bit_count() == d + 1:
            bits = list(_iter_bits(f))
            pairs = [(1 << a) | (1 << b) for a, b in combinations(bits, 2)] if d == 3 else []
            table[f] = (
                bits[-1],
                sum(1 << (f ^ (1 << b)) for b in bits),
                tuple((b, at_vertex[b]) for b in bits),
                tuple((p, through(p)) for p in pairs),
            )
    return table


class _ClosureSearch:
    """Depth-first forced closure over at most 9 vertices.

    The state is three face sets (see `_facet_table`) and the vertex count:
    the facets, the ridges in at least one facet, and the open ridges, which
    lie in exactly one.  Facet counts at a vertex or pair, seal status and
    ridge counts are popcounts of ANDs with the "faces through" sets.
    `min_seal` is the least facet count a vertex may have when its star
    closes; `degree_prunes` counts the additions it rejected.
    """

    def __init__(self, d: int, max_vertices: int, max_facets: int, min_seal: int = 0):
        self.d = d
        self.max_vertices = max_vertices
        self.max_facets = max_facets
        self.min_seal = min_seal
        self.table = _facet_table(d)
        self.facets = 0
        self.present = 0
        self.open = 0
        self.used = 0
        self._saved: list[tuple[int, int, int, int]] = []
        # bounds a manifold vertex or edge link allows on <= 9 vertices: facets
        # at a vertex, ridges at a vertex (edges of its link) and facets at a pair
        self.vertex_cap = 12 if d == 3 else max_vertices - 1
        self.ridge_cap = 18 if d == 3 else max_vertices - 1
        self.pair_cap = 7
        self.nodes = 0
        self.completions = 0
        self.degree_prunes = 0

    def to_complex(self) -> SimplicialComplex:
        """The pool as a complex on vertices 0..used-1, labelled 1..used: fresh
        vertices enter in first-use order, so they are dense, and facets of
        one size already form an antichain."""
        return SimplicialComplex(
            tuple(_iter_bits(self.facets)), tuple(str(i + 1) for i in range(self.used))
        )

    # -- mutation ---------------------------------------------------------

    def try_add(self, fmask: int) -> bool:
        """Add one facet if every cap and seal check allows it.

        The caller has ruled out a full pool, a facet already present and a
        ridge of it already in two facets; False leaves the state untouched.
        """
        top, ridges, at_vertices, at_pairs = self.table[fmask]
        facets, open_ = self.facets, self.open
        present = self.present | ridges
        for _, through in at_vertices:
            mine = facets & through
            if mine and not open_ & through:
                return False  # sealed vertex link
            if mine.bit_count() >= self.vertex_cap:
                return False
            if (present & through).bit_count() > self.ridge_cap:
                return False
        for _, through in at_pairs:
            mine = facets & through
            if mine and not open_ & through:
                return False  # sealed edge link
            if mine.bit_count() >= self.pair_cap:
                return False
        facets |= 1 << fmask
        open_ ^= ridges
        for b, through in at_vertices:
            if not open_ & through:
                mine = facets & through
                if mine.bit_count() < self.min_seal:
                    self.degree_prunes += 1
                    return False
                if not self._vertex_link_ok(b, mine, (present & through).bit_count()):
                    return False
        for p, through in at_pairs:
            if not open_ & through and not self._pair_link_is_cycle(p, facets & through):
                return False
        self._saved.append((self.facets, self.present, self.open, self.used))
        self.facets, self.present, self.open = facets, present, open_
        self.used = max(self.used, top + 1)
        return True

    def undo(self) -> None:
        self.facets, self.present, self.open, self.used = self._saved.pop()

    # -- seal validation ---------------------------------------------------

    def _vertex_link_ok(self, b: int, facets: int, ridges: int) -> bool:
        """Once no ridge at vertex b is open, its link (`facets` at b, with
        `ridges` edges) must be a single cycle (d=2) or a connected chi=2
        surface (d=3)."""
        link = [f ^ (1 << b) for f in _iter_bits(facets)]
        vertices = 0
        for e in link:
            vertices |= e
        m = vertices.bit_count()
        if self.d == 2:
            if m != len(link):
                return False
        elif m - ridges + len(link) != 2:
            return False
        return _connected(link)

    @staticmethod
    def _pair_link_is_cycle(p: int, facets: int) -> bool:
        edges = [f & ~p for f in _iter_bits(facets)]
        vertices = 0
        for e in edges:
            vertices |= e
        return vertices.bit_count() == len(edges) and _connected(edges)

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
        ridge = (self.open & -self.open).bit_length() - 1
        closed = self.present & ~self.open  # ridges already in two facets
        table = self.table
        for v in range(min(self.used + 1, self.max_vertices)):
            if ridge >> v & 1:
                continue
            fmask = ridge | (1 << v)
            if facets >> fmask & 1 or table[fmask][1] & closed:
                continue
            if self.try_add(fmask):
                self.run(on_complete)
                self.undo()


# -- 2-sphere census ------------------------------------------------------------


def enumerate_two_spheres(n: int) -> CensusResult:
    """All combinatorial 2-spheres on exactly n vertices, up to isomorphism."""
    if n < 4 or n > 8:
        raise PreconditionError(f"2-sphere census covers 4 <= n <= 8, got {n}")
    search = _ClosureSearch(d=2, max_vertices=n, max_facets=2 * n - 4)
    search.try_add(0b111)
    found: dict[bytes, SimplicialComplex] = {}
    rejected = 0

    def on_complete(s: _ClosureSearch) -> None:
        nonlocal rejected
        if s.used != n:
            return
        K = s.to_complex()
        digest = canonical_form(K).bytes
        if digest in found:
            rejected += 1
        else:
            found[digest] = canonical_relabel(K)

    search.run(on_complete)
    ordered = [found[k] for k in sorted(found)]
    return CensusResult(
        ordered,
        {"two_sphere": len(ordered)},
        {"nodes": search.nodes, "completions": search.completions, "isomorph_rejections": rejected},
    )


@lru_cache(maxsize=None)
def _sphere_seeds(n: int) -> tuple[SimplicialComplex, ...]:
    return tuple(enumerate_two_spheres(n).complexes)


# -- 9-vertex 3-manifold censuses -----------------------------------------------


def _star_completions(
    link: SimplicialComplex,
    found: dict[bytes, SimplicialComplex],
    stats: dict[str, int],
    label_map: dict[int, int] | None = None,
) -> None:
    """Complete vertex 0's pinned star to closed 9-vertex 3-manifolds in which
    vertex 0 has least degree."""
    m = link.vertex_count
    search = _ClosureSearch(d=3, max_vertices=MAX_N, max_facets=27, min_seal=2 * m - 4)
    mapping = label_map or {i: i for i in range(m)}
    for fm in link.facet_masks:
        star_facet = 1  # vertex 0
        for b in _iter_bits(fm):
            star_facet |= 1 << (mapping[b] + 1)
        ok = search.try_add(star_facet)
        assert ok, "a census 2-sphere star must always insert cleanly"

    def on_complete(s: _ClosureSearch) -> None:
        if s.used != MAX_N:
            return
        K = s.to_complex()
        digest = canonical_form(K).bytes
        if digest in found:
            stats["isomorph_rejections"] += 1
        else:
            found[digest] = canonical_relabel(K)

    search.run(on_complete)
    stats["nodes"] += search.nodes
    stats["completions"] += search.completions
    stats["degree_prunes"] += search.degree_prunes


def _classify(found: dict[bytes, SimplicialComplex]) -> tuple[list[SimplicialComplex], dict[str, int]]:
    ordered = [found[k] for k in sorted(found)]
    spheres = sum(
        1 for K in ordered if homology.homology(K) == homology.THREE_SPHERE_PROFILE
    )
    counts = {
        "total": len(ordered),
        "sphere": spheres,
        "non_sphere": len(ordered) - spheres,
    }
    return ordered, counts


def _census_task(task: tuple[str, tuple[int, ...] | None]):
    """One pinned-link completion search; safe to run in a worker process."""
    from . import core

    link_text, perm = task
    link = core.from_text(link_text)
    mapping = dict(enumerate(perm)) if perm is not None else None
    found: dict[bytes, SimplicialComplex] = {}
    stats = dict.fromkeys(_STAT_KEYS, 0)
    _star_completions(link, found, stats, mapping)
    payload = [(digest, K.facet_masks, K.labels) for digest, K in sorted(found.items())]
    return payload, stats


def _run_census(
    tasks: list[tuple[str, tuple[int, ...] | None]], threads: int
) -> tuple[dict[bytes, SimplicialComplex], dict[str, int]]:
    found: dict[bytes, SimplicialComplex] = {}
    stats = dict.fromkeys(_STAT_KEYS, 0)
    if threads > 1:
        from multiprocessing import Pool

        with Pool(threads) as pool:
            results = pool.map(_census_task, tasks)
    else:
        results = [_census_task(t) for t in tasks]
    for payload, task_stats in results:
        for key in stats:
            stats[key] += task_stats[key]
        for digest, masks, labels in payload:
            if digest in found:
                stats["isomorph_rejections"] += 1
            else:
                found[digest] = SimplicialComplex(masks, labels)
    return found, stats


def enumerate_neighbourly_9_manifolds(
    label_seed: int | None = None, threads: int = 1
) -> CensusResult:
    """All neighbourly 9-vertex combinatorial 3-manifolds up to isomorphism.

    Every vertex of such a manifold has an 8-vertex 2-sphere link, so each
    isomorphism class is reached from some pinned canonical link; classes are
    separated into spheres and non-spheres by integer homology.

    `label_seed` relabels the pinned links before searching; the census is
    invariant under any such base reordering.  `threads` distributes the
    pinned-link searches over worker processes; results are merged and sorted,
    so counts and representatives do not depend on the worker count.
    """
    import random

    from .core import to_text

    rng = random.Random(label_seed) if label_seed is not None else None
    tasks = []
    for link in _sphere_seeds(8):
        perm = None
        if rng is not None:
            shuffled = list(range(8))
            rng.shuffle(shuffled)
            perm = tuple(shuffled)
        tasks.append((to_text(link), perm))
    found, stats = _run_census(tasks, threads)
    ordered, counts = _classify(found)
    return CensusResult(ordered, counts, stats)


def enumerate_all_9_manifolds(confirm: bool = False, threads: int = 1) -> CensusResult:
    """The full census of 9-vertex combinatorial 3-manifolds: one pinned-link
    search per 2-sphere on 4..8 vertices (about 15 s on one thread of a 2-core
    machine).  Gated behind an explicit flag, as the costliest census.
    """
    if not confirm:
        raise PreconditionError("the full 9-vertex census runs only with confirm=True")
    from .core import to_text

    tasks = [(to_text(link), None) for n in range(4, 9) for link in _sphere_seeds(n)]
    found, stats = _run_census(tasks, threads)
    ordered, counts = _classify(found)
    return CensusResult(ordered, counts, stats)
