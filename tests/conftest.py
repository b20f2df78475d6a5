from __future__ import annotations

import pytest
from hypothesis import settings

from walkup import constructions
from walkup.core import from_facets

# One profile for every property test: the same examples on every run, a
# bounded count, and no per-example deadline on a loaded machine.
settings.register_profile("walkup", derandomize=True, max_examples=25, deadline=None)
settings.load_profile("walkup")


@pytest.fixture(scope="session")
def catalog():
    return {entry.name: entry.complex for entry in constructions.sphere_catalog()}


@pytest.fixture(scope="session")
def k39():
    return constructions.walkup_complex(3)


@pytest.fixture(scope="session")
def c37():
    return constructions.cyclic_sphere_c37()


@pytest.fixture(scope="session")
def m10():
    return constructions.connected_sum_c37()


@pytest.fixture(scope="session")
def neighbourly_census():
    """One run of the neighbourly 9-vertex census, shared by the tests that
    only read its result."""
    from walkup.enumeration import enumerate_neighbourly_9_manifolds

    return enumerate_neighbourly_9_manifolds()


@pytest.fixture(scope="session")
def full_census():
    """One run of the full 9-vertex census, shared by the tests that only
    read its result."""
    from walkup.enumeration import enumerate_all_9_manifolds

    return enumerate_all_9_manifolds()


@pytest.fixture(scope="session")
def two_sphere_census():
    """The 2-sphere census for n = 4..8, as one list in census order."""
    from walkup.enumeration import enumerate_two_spheres

    return [K for n in range(4, 9) for K in enumerate_two_spheres(n).complexes]


@pytest.fixture(scope="session")
def torus7():
    """The 7-vertex torus: facets (i, i+1, i+3) and (i, i+2, i+3) mod 7."""
    rot = lambda i, k: str((i + k - 1) % 7 + 1)  # noqa: E731
    return from_facets(
        [{str(i), rot(i, 1), rot(i, 3)} for i in range(1, 8)]
        + [{str(i), rot(i, 2), rot(i, 3)} for i in range(1, 8)]
    )


@pytest.fixture(scope="session")
def rp2():
    """The 6-vertex real projective plane, the hemi-icosahedron: |Aut| = 60."""
    return from_facets([
        [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 6, 2],
        [2, 3, 5], [3, 4, 6], [4, 5, 2], [5, 6, 3], [6, 2, 4],
    ])


@pytest.fixture(scope="session")
def kernel_pool(rp2, two_sphere_census):
    """Named complexes on which the mask-level link kernel and the one-pass
    move detector are checked against plain frozenset references: 20 seeded
    random 3-spheres and their neighbourly reductions, a 16-vertex one, the
    named 3-manifolds, three 2-manifolds, two non-manifolds and a non-pure
    complex."""
    from walkup.bistellar import neighbourly_reduction, random_three_sphere

    pool = []
    for seed in range(20):
        K = random_three_sphere(seed)
        pool += [(f"random9:{seed}", K), (f"reduced9:{seed}", neighbourly_reduction(K)[0])]
    pool += [
        ("k39", constructions.walkup_complex(3)),
        ("c37", constructions.cyclic_sphere_c37()),
        ("m10", constructions.connected_sum_c37()),
    ]
    k27 = constructions.walkup_complex(2)
    # the one-point suspension of the torus: the links of 1 and s are tori
    pool.append(("k27+suspension", k27.one_point_suspension("1", "s")))
    # the torus joined with two points: a 9-vertex pseudomanifold, not a manifold
    pool.append(("k27*S0", k27.join(from_facets([["a"], ["b"]]))))
    # non-pure; neither the link of the edge {5, 6} (three points) nor that of
    # {11, 12} (a path of three edges) is a triangle boundary
    pool.append(("non-pure", from_facets(
        [[1, 2, 3, 4], [1, 2, 3, 5], [2, 4, 5], [5, 6, 7], [5, 6, 8], [5, 6, 9], [1, 9], [10]]
        + [[11, 12, 1, 2], [11, 12, 2, 3], [11, 12, 3, 4]]
    )))
    # the vertex cap
    pool.append(("random16:3", random_three_sphere(3, vertices=16)))
    # dimension 2: the 7-vertex torus, RP^2 and an 8-vertex 2-sphere, where
    # i = d = 2 removes a vertex of degree 3
    sphere8 = next(K for K in two_sphere_census if K.vertex_count == 8)
    pool += [("k27", k27), ("rp2", rp2), ("sphere8", sphere8)]
    return pool
