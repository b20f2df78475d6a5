"""Generators for the named complexes used throughout the toolkit, and the
one table of their names: `get_complex` resolves a plain name (S1..S9, calS,
calT, k39, k27, c37, m10, in any case) or a parametric `kind:N` (sphere,
cycle, walkup, random9) and builds only the complex asked for.

The 2-sphere catalog S1..S9 keeps the classical vertex labels (x, y, digits)
so that coclique case analyses can be compared against their published
labelings verbatim.  The two 8-vertex spheres "S" and "T" are shipped as
checked-in facet lists and validated structurally by tests (collapsing their
two degree-3 vertices must recover S3 and S4 respectively) rather than
trusted as transcriptions.
"""

from __future__ import annotations

from importlib import resources
from itertools import combinations
from typing import Callable

from . import core
from .core import PreconditionError, SimplicialComplex, from_facets


def standard_sphere(d: int) -> SimplicialComplex:
    """Boundary of the (d+1)-simplex: all proper subsets of a (d+2)-set."""
    if d < 0 or d > 13:
        raise PreconditionError(f"standard sphere dimension {d} out of range 0..13")
    verts = [str(i) for i in range(1, d + 3)]
    return from_facets(combinations(verts, d + 1))


def cycle(n: int) -> SimplicialComplex:
    """The n-cycle on labels 1..n, the unique n-vertex 1-pseudomanifold."""
    if n < 3:
        raise PreconditionError(f"cycle needs at least 3 vertices, got {n}")
    return from_facets(
        [{str(i), str(i % n + 1)} for i in range(1, n + 1)]
    )


def _cycle_path(start: int, length: int, n: int) -> list[int]:
    return [(start + k - 1) % n + 1 for k in range(length)]


def walkup_complex(d: int) -> SimplicialComplex:
    """The d-manifold on the (2d+3)-cycle whose facets drop one interior
    vertex from each (d+2)-path of consecutive vertices.

    For d even it triangulates S^{d-1} x S^1; for d odd the twisted product.
    d=3 gives K^3_9, the 9-vertex 3-dimensional Klein bottle.
    """
    if d < 2 or 2 * d + 3 > core.MAX_VERTICES:
        raise PreconditionError(f"walkup complex needs 2 <= d <= 6, got {d}")
    n = 2 * d + 3
    facets = []
    for start in range(1, n + 1):
        path = _cycle_path(start, d + 2, n)
        for interior in path[1:-1]:
            facets.append({str(v) for v in path if v != interior})
    K = from_facets(facets)
    assert len(K.facet_masks) == n * d
    return K


def cyclic_sphere_c37() -> SimplicialComplex:
    """The cyclic 3-sphere on 7 vertices, the boundary of the cyclic
    4-polytope: by Gale's evenness condition its facets are the unions of
    two disjoint edges of the 7-cycle."""
    edges = [{i, i % 7 + 1} for i in range(1, 8)]
    return from_facets([a | b for a, b in combinations(edges, 2) if not a & b])


def connected_sum_c37() -> SimplicialComplex:
    """Two copies of the cyclic 3-sphere, each missing facet 1234, glued by
    identifying vertices 1..4; a 10-vertex combinatorial 3-sphere."""
    c37 = cyclic_sphere_c37()
    removed = frozenset({"1", "2", "3", "4"})
    halves = [f for f in c37.facets() if f != removed]
    primed = [
        frozenset(v if v in removed else v + "'" for v in f) for f in halves
    ]
    return from_facets(halves + primed)


def _suspension_sphere(cycle_len: int) -> SimplicialComplex:
    """One-point suspension over (x, y) of the cycle x-1-2-...-x."""
    rim = [str(i) for i in range(1, cycle_len)]
    edges = [{"x", rim[0]}] + [
        {rim[i], rim[i + 1]} for i in range(len(rim) - 1)
    ] + [{rim[-1], "x"}]
    return from_facets(edges).one_point_suspension("x", "y")


def _load_data_complex(name: str) -> SimplicialComplex:
    text = resources.files("walkup").joinpath("data", name).read_text()
    return core.from_text(text)


_S7_FACETS = [
    "123", "x12", "x23", "x16", "x56", "x45", "x34", "156", "135", "345",
]
_S8_FACETS = [
    "x12", "x23", "x34", "x45", "x56", "x16", "126", "256", "235", "345",
]
_S9_FACETS = [
    "156", "126", "135", "246", "345", "456", "234", "23x", "12x", "13x",
]


def _explicit(facet_words: list[str]) -> SimplicialComplex:
    return from_facets([set(word) for word in facet_words])


def _s0(a: str, b: str) -> SimplicialComplex:
    """The 0-sphere on the two points a and b."""
    return from_facets([{a}, {b}])


def _random9(seed: int) -> SimplicialComplex:
    from .bistellar import random_three_sphere  # bistellar is loaded only for random9:SEED

    return random_three_sphere(seed)


# Each plain name, matched in any case, with the builder of its complex.
NAMED: dict[str, Callable[[], SimplicialComplex]] = {
    # boundary of the tetrahedron on {a,b,c,d}
    "S1": lambda: standard_sphere(2).relabel({"1": "a", "2": "b", "3": "c", "4": "d"}),
    # join of S^0_2(x,y) with the triangle boundary on {a,b,c}
    "S2": lambda: _s0("x", "y").join(cycle(3).relabel({"1": "a", "2": "b", "3": "c"})),
    # one-point suspension over (x,y) of the 5-cycle x-1-2-3-4
    "S3": lambda: _suspension_sphere(5),
    # octahedron: threefold join of the point pairs (x_i,y_i)
    "S4": lambda: _s0("x1", "y1").join(_s0("x2", "y2")).join(_s0("x3", "y3")),
    # join of S^0_2(x,y) with the 5-cycle on 1..5
    "S5": lambda: _s0("x", "y").join(cycle(5)),
    # one-point suspension over (x,y) of the 6-cycle x-1-2-3-4-5
    "S6": lambda: _suspension_sphere(6),
    # 7-vertex 2-sphere with degree sequence (6,5,5,5,3,3,3), x of degree 6
    "S7": lambda: _explicit(_S7_FACETS),
    # 7-vertex 2-sphere with degree sequence (6,5,5,4,4,3,3), x of degree 6
    "S8": lambda: _explicit(_S8_FACETS),
    # 7-vertex 2-sphere with degree sequence (5,5,5,4,4,4,3), x of degree 3
    "S9": lambda: _explicit(_S9_FACETS),
    # checked-in facet list; suspension-type 6-vertex sphere with two starred triangles
    "calS": lambda: _load_data_complex("calS.facets"),
    # checked-in facet list; octahedron with two starred triangles
    "calT": lambda: _load_data_complex("calT.facets"),
    "k39": lambda: walkup_complex(3),
    "k27": lambda: walkup_complex(2),
    "c37": cyclic_sphere_c37,
    "m10": connected_sum_c37,
}
_BY_KEY = {name.lower(): build for name, build in NAMED.items()}

# Each parametric kind, spelled `kind:N`, with its constructor.
KINDS: dict[str, Callable[[int], SimplicialComplex]] = {
    "sphere": standard_sphere,
    "cycle": cycle,
    "walkup": walkup_complex,
    "random9": _random9,
}


def get_complex(token: str) -> SimplicialComplex:
    """The complex a name stands for, built alone: `kind:N` for a kind in
    `KINDS`, else a plain name of `NAMED` in any case."""
    kind, sep, arg = token.partition(":")
    if sep and kind in KINDS:
        try:
            value = int(arg)
        except ValueError:
            raise PreconditionError(
                f"parameter of {kind!r} must be an integer, got {arg!r}"
            ) from None
        return KINDS[kind](value)
    build = _BY_KEY.get(token.lower())
    if build is None:
        raise PreconditionError(
            f"unknown complex {token!r}; known names: {', '.join(sorted(NAMED))}"
        )
    return build()
