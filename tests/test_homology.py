from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from walkup import constructions, homology
from walkup.core import PreconditionError, _components, from_facets
from walkup.homology import (
    HomologyProfile,
    _eliminate,
    _face_boundary,
    homology as homology_of,
    smith_normal_form,
)


# The dense oracle: whole signed boundary matrices, which the program never
# builds, with faces sorted by bitmask value.


def _boundary_columns(K, i):
    """The columns of `boundary_matrix(K, i)`, each as {row: entry}."""
    if i < 1 or i > K.dim:
        raise PreconditionError(f"boundary dimension {i} out of range 1..{K.dim}")
    row_index = {m: r for r, m in enumerate(K.faces_masks(i - 1))}
    return [{row_index[m]: x for m, x in _face_boundary(cm)} for cm in K.faces_masks(i)]


def boundary_matrix(K, i):
    """The signed boundary from i-chains to (i-1)-chains."""
    cols = _boundary_columns(K, i)
    return [[col.get(r, 0) for col in cols] for r in range(len(K.faces_masks(i - 1)))]


def _rank_rational(mat):
    """Gaussian elimination over exact rationals; the independent rank oracle."""
    m = [[Fraction(x) for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _rank_mod(mat, p):
    m = [[x % p for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_boundary_shapes_and_chain_identity(k39):
    d1 = boundary_matrix(constructions.cycle(3), 1)
    assert len(d1) == 3 and len(d1[0]) == 3
    assert _rank_rational(d1) == 2

    d3 = boundary_matrix(k39, 3)
    assert len(d3) == 54 and len(d3[0]) == 27
    d2 = boundary_matrix(k39, 2)
    product = [
        [sum(d2[r][k] * d3[k][c] for k in range(54)) for c in range(27)]
        for r in range(36)
    ]
    assert all(x == 0 for row in product for x in row)

    with pytest.raises(PreconditionError):
        boundary_matrix(k39, 4)


def test_boundary_squared_zero_catalog(catalog):
    for K in catalog.values():
        mats = [boundary_matrix(K, i) for i in range(1, K.dim + 1)]
        for a, b in zip(mats, mats[1:]):
            rows, mid, cols = len(a), len(b), len(b[0])
            assert all(
                sum(a[r][k] * b[k][c] for k in range(mid)) == 0
                for r in range(rows)
                for c in range(cols)
            )


def test_snf_basics():
    factors, rank = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert factors == [1, 1, 1] and rank == 3
    factors, rank = smith_normal_form([[2]])
    assert factors == [2] and rank == 1
    factors, rank = smith_normal_form([[2, 4], [4, 8]])
    assert rank == 1 and factors == [2]
    # divisibility chain
    factors, _ = smith_normal_form([[2, 0], [0, 3]])
    assert factors == [1, 6]


def test_snf_of_k39_boundaries_vs_oracles(k39):
    # rational and mod-p ranks computed independently before freezing
    d2 = boundary_matrix(k39, 2)
    factors2, rank2 = smith_normal_form(d2)
    assert rank2 == 27 == _rank_rational(d2)
    assert all(f == 1 for f in factors2)
    assert _rank_mod(d2, 2) == 27 and _rank_mod(d2, 3) == 27

    d3 = boundary_matrix(k39, 3)
    factors3, rank3 = smith_normal_form(d3)
    assert rank3 == 27 == _rank_rational(d3)
    assert factors3 == [1] * 26 + [2]
    assert _rank_mod(d3, 2) == 26  # the 2-torsion drops the mod-2 rank
    assert _rank_mod(d3, 3) == 27


def test_homology_profiles(k39, c37, m10):
    profile = homology_of(k39)
    assert profile.betti == (1, 1, 0, 0)
    assert profile.torsion == ((), (), (2,), ())
    assert str(profile) == "H0=Z  H1=Z  H2=Z/2  H3=0"

    assert homology_of(c37) == homology.THREE_SPHERE_PROFILE
    assert homology_of(m10) == homology.THREE_SPHERE_PROFILE

    s24 = constructions.standard_sphere(2)
    assert homology_of(s24) == homology.TWO_SPHERE_PROFILE


def test_torus_homology(torus7):
    profile = homology_of(torus7)
    assert profile.betti == (1, 2, 1)
    assert profile.torsion == ((), (), ())


def test_euler_poincare_identity(catalog, k39, c37, m10):
    for K in list(catalog.values()) + [k39, c37, m10]:
        profile = homology_of(K)
        chi = sum((-1) ** i * b for i, b in enumerate(profile.betti))
        assert chi == K.euler_characteristic()


def test_h3_detects_orientability(catalog, k39, c37, m10):
    assert homology_of(k39).betti[3] == 0
    for K in (c37, m10):
        assert homology_of(K).betti[3] == 1


def test_homology_isomorphism_invariant(k39):
    rng = random.Random(4)
    base = homology_of(k39)
    labels = list(k39.labels)
    for _ in range(20):
        perm = labels[:]
        rng.shuffle(perm)
        relabelled = k39.relabel(dict(zip(labels, perm)))
        assert homology_of(relabelled) == base


def test_h0_counts_components(torus7):
    two_triangles = from_facets([["a", "b"], ["b", "c"], ["a", "c"], ["x", "y"], ["y", "z"], ["x", "z"]])
    assert homology_of(two_triangles) == HomologyProfile((2, 2), ((), ()))
    two_points = from_facets([["p"], ["q"]])
    assert homology_of(two_points) == HomologyProfile((2,), ((),))
    torus_and_point = from_facets(torus7.facets() + [frozenset(["x"])])
    assert homology_of(torus_and_point) == HomologyProfile((2, 2, 1), ((), (), ()))


def _walkup_profile(d):
    """The expected homology of K^d_{2d+3}: the torus for d = 2; S^{d-1} x S^1
    for even d, with H1 = H_{d-1} = H_d = Z; the twisted bundle for odd d,
    with H1 = Z, H_{d-1} = Z/2 and H_d = 0."""
    betti = [1, 1] + [0] * (d - 1)
    torsion = [()] * (d + 1)
    if d % 2 == 0:
        betti[d - 1] += 1
        betti[d] = 1
    else:
        torsion[d - 1] = (2,)
    return HomologyProfile(tuple(betti), tuple(torsion))


def test_walkup_family_homology():
    """Homology has no dimension cap: Walkup's family K^d_{2d+3}, d = 2..6,
    and the boundary of the (d+1)-simplex, d = 4..6, against the dense normal
    form.  At d = 6 the dense normal form takes seconds, so the oracle there
    is the rank of every boundary mod 2: the Betti numbers mod 2 equal the
    free ranks exactly when no homology group has 2-torsion."""
    for d in range(2, 7):
        K = constructions.walkup_complex(d)
        profile = homology_of(K)
        assert profile == _walkup_profile(d), d
        if d <= 5:
            assert profile == _dense_profile(K), d
        else:
            ranks = [0] + [_rank_mod(boundary_matrix(K, i), 2) for i in range(1, d + 1)] + [0]
            fvec = K.f_vector()
            assert tuple(fvec[i] - ranks[i] - ranks[i + 1] for i in range(d + 1)) == profile.betti
    for d in range(4, 7):
        K = constructions.standard_sphere(d)
        sphere = HomologyProfile((1,) + (0,) * (d - 1) + (1,), ((),) * (d + 1))
        assert homology_of(K) == _dense_profile(K) == sphere
    with pytest.raises(PreconditionError):
        boundary_matrix(from_facets([{"a"}]), 1)


def _sparse_rows(mat):
    return [{c: x for c, x in enumerate(row) if x} for row in mat]


def _sparse_smith(rows):
    """The normal form as `homology` composes it: an identity block for the
    unit pivots of `_eliminate`, plus the normal form of its residual core."""
    pivots, core = _eliminate(rows)
    factors, rank = smith_normal_form(core)
    return [1] * len(pivots) + factors, len(pivots) + rank


@st.composite
def _small_matrices(draw):
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    return [draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)) for _ in range(rows)]


@given(_small_matrices())
def test_sparse_smith_equals_dense(mat):
    assert _sparse_smith(_sparse_rows(mat)) == smith_normal_form(mat)


def test_sparse_smith_reduces_a_residual_row_by_a_later_pivot():
    """Each first row has no +-1 entry when it arrives; the pivot that
    clears its column comes after it."""
    for mat in (
        [[2, 2], [1, 0]],  # residual {1: 2}: factors 1, 2
        [[2, 3], [1, 1]],  # residual {1: 1}: factors 1, 1
        [[2, 2], [1, 1]],  # residual cleared: rank 1
        [[2, 0, 4], [0, 3, 3], [1, 1, 0], [0, 1, 1]],
    ):
        assert _sparse_smith(_sparse_rows(mat)) == smith_normal_form(mat), mat


def test_sparse_smith_core_carries_torsion(k39, rp2):
    """Unit pivots give only factors 1, so the 2 comes from the dense core."""
    for K, i in ((k39, 3), (rp2, 2)):
        factors, rank = _sparse_smith(_boundary_columns(K, i))
        assert (factors, rank) == smith_normal_form(boundary_matrix(K, i))
        assert factors == [1] * (rank - 1) + [2]
        assert _sparse_smith(_sparse_rows(boundary_matrix(K, i))) == (factors, rank)
    assert homology_of(k39).torsion == ((), (), (2,), ())
    assert homology_of(rp2).torsion == ((), (2,), ())


@st.composite
def _small_complexes(draw):
    """A complex of at most 3 dimensions on at most 7 vertices."""
    n = draw(st.integers(1, 7))
    facets = draw(st.lists(
        st.sets(st.integers(1, n), min_size=1, max_size=min(4, n)), min_size=1, max_size=12,
    ))
    return from_facets(facets)


def _dense_profile(K):
    """The homology profile from the dense normal form of every boundary,
    the edge boundary included."""
    ranks = [0] * (K.dim + 2)
    torsion = [()] * (K.dim + 1)
    for i in range(1, K.dim + 1):
        factors, ranks[i] = smith_normal_form(boundary_matrix(K, i))
        torsion[i - 1] = tuple(f for f in factors if f > 1)
    fvec = K.f_vector()
    betti = tuple(fvec[i] - ranks[i] - ranks[i + 1] for i in range(K.dim + 1))
    return HomologyProfile(betti, tuple(torsion))


@settings(max_examples=60)
@given(_small_complexes())
def test_homology_matches_the_dense_normal_form(K):
    assert homology_of(K) == _dense_profile(K)


def test_cleared_homology_on_the_censuses(neighbourly_census, two_sphere_census, rp2, k39, monkeypatch):
    """With clearing, homology still equals the dense normal form on every
    neighbourly class, the 2-sphere census, RP^2 and k39, which have
    torsion, and the one-point suspension of k27, a non-manifold.  On a
    neighbourly 3-sphere the triangle boundary is reduced on 28 rows, its
    rank, not on all 54, and the edge boundary on 8 of its 36."""
    k27s = constructions.walkup_complex(2).one_point_suspension("1", "s")
    complexes = list(neighbourly_census.complexes) + two_sphere_census + [rp2, k39, k27s]
    for K in complexes:
        assert homology_of(K) == _dense_profile(K), K
    spheres = [K for K in neighbourly_census.complexes if homology_of(K) == homology.THREE_SPHERE_PROFILE]
    assert len(spheres) == 50
    real = homology._eliminate
    row_counts = []

    def counted(rows):
        row_counts.append(len(rows))
        return real(rows)

    monkeypatch.setattr(homology, "_eliminate", counted)
    for K in spheres:
        homology_of(K)
    # the tetrahedra, the triangles less 26 cleared, the edges less 28 cleared
    assert row_counts == [27, 28, 8] * 50


def test_every_edge_boundary_leaves_no_residual(kernel_pool, two_sphere_census):
    """An edge row stays +-(e_u - e_w) under elimination, so it becomes a
    pivot or vanishes: the core is empty, and the pivots, n less the number
    of components, give the rank of the edge boundary that makes H0 free.
    The pool holds RP^2, torus, non-manifold and non-pure complexes."""
    pool = kernel_pool + [(f"two-sphere {i}", K) for i, K in enumerate(two_sphere_census)]
    for name, K in pool:
        pivots, core = _eliminate(_face_boundary(e) for e in K.faces_masks(1))
        assert core == [], name
        assert all(sorted(row.values()) == [-1, 1] for row in pivots.values()), name
        assert len(pivots) == K.vertex_count - _components(K.facet_masks), name


# Entries of this matrix grow to millions of bits under remainder-swap
# elimination; its factors are seven 1s and 23650.
GROWTH_MATRIX = [
    [2, -3, -3, 2, -3, 0, 0, 1], [2, 0, -3, -2, 0, -1, 3, -2],
    [0, 2, 3, 0, -3, 0, -2, 3], [0, 0, -2, -3, 2, 2, 0, 0],
    [1, 2, 0, 3, 0, 2, -1, -2], [0, -3, 0, 2, 0, -3, -1, -2],
    [2, -3, 3, 0, 1, 0, 1, -1], [-3, 2, 3, -2, 2, -2, 1, 2],
]


def test_snf_stays_small_on_a_growth_matrix():
    start = time.perf_counter()
    assert smith_normal_form(GROWTH_MATRIX) == ([1] * 7 + [23650], 8)
    assert time.perf_counter() - start < 1.0


@st.composite
def _square_ish_matrices(draw):
    rows, cols = draw(st.integers(6, 8)), draw(st.integers(6, 8))
    return [draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)) for _ in range(rows)]


@given(_square_ish_matrices())
def test_snf_matches_sympy(mat):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    diagonal = sympy_snf(Matrix(mat), domain=ZZ)
    factors = sorted(abs(diagonal[i, i]) for i in range(min(diagonal.shape)) if diagonal[i, i])
    assert smith_normal_form(mat) == (factors, len(factors))
