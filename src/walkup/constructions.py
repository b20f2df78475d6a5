"""Generators for the named complexes used throughout the toolkit.

The 2-sphere catalog S1..S9 keeps the classical vertex labels (x, y, digits)
so that coclique case analyses can be compared against their published
labelings verbatim.  The two 8-vertex spheres "S" and "T" are shipped as
checked-in facet lists and validated structurally by tests (collapsing their
two degree-3 vertices must recover S3 and S4 respectively) rather than
trusted as transcriptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import combinations

from . import core
from .core import PreconditionError, SimplicialComplex, from_facets


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    complex: SimplicialComplex
    provenance: str


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


def sphere_catalog() -> list[CatalogEntry]:
    """The 2-sphere catalog: S1..S9 plus the 8-vertex spheres S and T."""
    s02 = lambda a, b: from_facets([{a}, {b}])  # noqa: E731 - tiny local builder
    entries = [
        CatalogEntry("S1", standard_sphere(2).relabel({"1": "a", "2": "b", "3": "c", "4": "d"}),
                     "boundary of the tetrahedron on {a,b,c,d}"),
        CatalogEntry("S2", s02("x", "y").join(cycle(3).relabel({"1": "a", "2": "b", "3": "c"})),
                     "join of S^0_2(x,y) with the triangle boundary on {a,b,c}"),
        CatalogEntry("S3", _suspension_sphere(5),
                     "one-point suspension over (x,y) of the 5-cycle x-1-2-3-4"),
        CatalogEntry("S4", s02("x1", "y1").join(s02("x2", "y2")).join(s02("x3", "y3")),
                     "octahedron: threefold join of the point pairs (x_i,y_i)"),
        CatalogEntry("S5", s02("x", "y").join(cycle(5)),
                     "join of S^0_2(x,y) with the 5-cycle on 1..5"),
        CatalogEntry("S6", _suspension_sphere(6),
                     "one-point suspension over (x,y) of the 6-cycle x-1-2-3-4-5"),
        CatalogEntry("S7", _explicit(_S7_FACETS),
                     "7-vertex 2-sphere with degree sequence (6,5,5,5,3,3,3), x of degree 6"),
        CatalogEntry("S8", _explicit(_S8_FACETS),
                     "7-vertex 2-sphere with degree sequence (6,5,5,4,4,3,3), x of degree 6"),
        CatalogEntry("S9", _explicit(_S9_FACETS),
                     "7-vertex 2-sphere with degree sequence (5,5,5,4,4,4,3), x of degree 3"),
        CatalogEntry("calS", _load_data_complex("calS.facets"),
                     "checked-in facet list; suspension-type 6-vertex sphere with two starred triangles"),
        CatalogEntry("calT", _load_data_complex("calT.facets"),
                     "checked-in facet list; octahedron with two starred triangles"),
    ]
    return entries


def named_complexes() -> dict[str, SimplicialComplex]:
    """Every complex the CLI can refer to by name."""
    table = {entry.name: entry.complex for entry in sphere_catalog()}
    table["k39"] = walkup_complex(3)
    table["k27"] = walkup_complex(2)
    table["c37"] = cyclic_sphere_c37()
    table["m10"] = connected_sum_c37()
    return table


def get_complex(name: str) -> SimplicialComplex:
    table = named_complexes()
    for key, value in table.items():
        if key.lower() == name.lower():
            return value
    raise PreconditionError(
        f"unknown complex {name!r}; known names: {', '.join(sorted(table))}"
    )
