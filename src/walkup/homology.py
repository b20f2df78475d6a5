"""Integer simplicial homology via Smith normal form.

Face boundaries carry signs from the ascending-vertex orientation.
`homology` runs one loop over every boundary, the edges' too (its
docstring says why the edges leave no residual rows).  It reduces each
face's signed boundary (cached per face mask, keyed by the masks of its
boundary faces) as it arrives against a table mapping each pivot column
to the row holding 1 there (Dumas, Heckenbach, Saunders and
Welker, Computing simplicial homology based on efficient Smith normal form
algorithms, 2003).  A row left with a +-1 entry becomes a pivot, with
invariant factor 1, and boundary matrices of manifolds are nearly all such
pivots.  The few other rows go to the dense `smith_normal_form`, which
works modulo twice a non-zero maximal minor, so its entries stay bounded.
Invariant factors are unique, so the split changes no result.

The boundaries are reduced from the top dimension down, with clearing
(Chen and Kerber, Persistent homology computation with a twist, 2011;
Bauer, Kerber and Reininghaus, Clear and compress, 2014): an i-face that
became a pivot column while the boundary of the (i+1)-faces was reduced
gives no row of the boundary of the i-faces.  The pivot row of such a
face c is a boundary, so its own boundary is 0; the row is 1 at c and 0 at
the pivot columns found before c.  So the boundary of c is an integer
combination of the boundaries of later pivot columns and of faces that are
no pivot column, and back-substitution from the last pivot makes every
dropped row an integer combination of the kept ones.  Dropping them is a
unimodular row operation followed by deleting zero rows, which keeps the
rank and the invariant factors.  On a neighbourly 9-vertex 3-sphere the
boundary of the triangles keeps 28 of its 54 rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable

from .core import PreconditionError, SimplicialComplex, _bits

Matrix = list[list[int]]


@dataclass(frozen=True)
class HomologyProfile:
    """Per-dimension Betti numbers and invariant torsion factors (> 1)."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def group(self, i: int) -> str:
        if i >= len(self.betti):
            return "0"
        parts = []
        if self.betti[i] == 1:
            parts.append("Z")
        elif self.betti[i] > 1:
            parts.append(f"Z^{self.betti[i]}")
        parts.extend(f"Z/{t}" for t in self.torsion[i])
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return "  ".join(f"H{i}={self.group(i)}" for i in range(len(self.betti)))


@lru_cache(maxsize=None)
def _face_boundary(face: int) -> tuple[tuple[int, int], ...]:
    """The signed boundary of a face mask, as (boundary face mask, sign)
    pairs in ascending vertex order."""
    return tuple((face ^ (1 << b), -1 if j % 2 else 1) for j, b in enumerate(_bits(face)))


def _pivot(a: Matrix, t: int) -> bool:
    """Move a non-zero entry of the block a[t:][t:] to (t, t), if there is one."""
    found = next(((r, c) for r in range(t, len(a)) for c in range(t, len(a[0])) if a[r][c]), None)
    if found is None:
        return False
    r, c = found
    a[t], a[r] = a[r], a[t]
    for row in a:
        row[t], row[c] = row[c], row[t]
    return True


def _rank_and_minor(mat: Matrix) -> tuple[int, int]:
    """The rank r and a non-zero r x r minor (1 when r = 0), by fraction-free
    (Bareiss) elimination: every entry stays a minor of `mat`."""
    a = [row[:] for row in mat]
    m, n = len(a), len(a[0]) if a else 0
    prev = 1
    for t in range(min(m, n)):
        if not _pivot(a, t):
            return t, prev
        p = a[t][t]
        for r in range(t + 1, m):
            x = a[r][t]
            a[r] = [0] * (t + 1) + [(p * a[r][c] - x * a[t][c]) // prev for c in range(t + 1, n)]
        prev = p
    return min(m, n), prev


def smith_normal_form(mat: Matrix) -> tuple[list[int], int]:
    """Invariant factors d1 | d2 | ... and the rank, over exact integers.

    The product of the r non-zero factors divides every non-zero r x r
    minor D, so working modulo M = 2|D| loses none of them: over Z/M the
    matrix has the factors gcd(d_i, M) = d_i, and M stands for 0.  The
    elimination uses unimodular extended-gcd steps on rows, and on columns
    as rows of the transpose, with entries kept in 0..M-1, so its cost is
    polynomial in the input size.
    """
    rank, minor = _rank_and_minor(mat)
    if rank == 0:
        return [], 0
    M = 2 * abs(minor)
    a = [[x % M for x in row] for row in mat]
    factors = []
    for t in range(min(len(a), len(a[0]))):
        if not _pivot(a, t):
            break
        while True:  # the pivot only falls to proper divisors, so this ends
            for r in range(t + 1, len(a)):
                if a[r][t]:
                    a[t], a[r] = _unimodular(a[t], a[r], t, M)
            if not any(a[t][t + 1:]):
                break
            a = [list(col) for col in zip(*a)]  # clear row t as a column
        factors.append(gcd(a[t][t], M))
    # enforce the divisibility chain d1 | d2 | ...
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if factors[j] % factors[i]:
                g = gcd(factors[i], factors[j])
                factors[i], factors[j] = g, factors[i] * factors[j] // g
    factors.sort()
    return factors[:rank], rank  # the rest stand for 0


def _unimodular(u: list[int], v: list[int], t: int, M: int) -> tuple[list[int], list[int]]:
    """The determinant-1 combination of u and v, with u[t] != 0, that leaves
    gcd(u[t], v[t]) and 0 at position t, and u itself when u[t] | v[t];
    entries modulo M."""
    g = gcd(u[t], v[t])
    a, b = u[t] // g, v[t] // g
    s = pow(a, -1, b) if b > 1 else 1
    k = (1 - s * a) // b  # s*a + k*b = 1
    return [(s * x + k * y) % M for x, y in zip(u, v)], [(a * y - b * x) % M for x, y in zip(u, v)]


def _reduce(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> None:
    """Clear every pivot column of `row` in place with the pivot rows.

    A pivot row is zero on the columns of the pivots found before it, so
    each clearing step trades a pivot column for columns of later pivots
    only, and the steps end."""
    hits = row.keys() & pivots.keys()
    while hits:
        for c in hits:
            q = row.get(c)
            if q:
                for c2, y in pivots[c].items():
                    z = row.get(c2, 0) - q * y
                    if z:
                        row[c2] = z
                    else:
                        del row[c2]
        hits = row.keys() & pivots.keys()


def _eliminate(
    rows: Iterable[dict[int, int] | tuple[tuple[int, int], ...]],
) -> tuple[dict[int, dict[int, int]], Matrix]:
    """The pivot table and the dense residual core of the matrix with these
    rows, each {column: entry} or its (column, entry) pairs.

    Each row, as it arrives, is reduced against the pivot table, which maps
    a pivot column to the row holding 1 there.  A row left with a +-1 entry
    becomes the pivot of that column, negated if the entry is -1; any other
    non-empty row joins the residual rows.  At the end the residual rows are
    reduced against the pivots found after them, and the non-empty ones are
    returned as a dense matrix over the columns they use.
    """
    pivots: dict[int, dict[int, int]] = {}
    residual: list[dict[int, int]] = []
    for items in rows:
        row = dict(items)
        _reduce(row, pivots)
        c = next((c for c, x in row.items() if x == 1 or x == -1), None)
        if c is None:
            if row:
                residual.append(row)
        else:
            pivots[c] = row if row[c] == 1 else {c2: -x for c2, x in row.items()}
    for row in residual:
        _reduce(row, pivots)
    core = [row for row in residual if row]
    cols = sorted({c for row in core for c in row})
    return pivots, [[row.get(c, 0) for c in cols] for row in core]


def homology(K: SimplicialComplex) -> HomologyProfile:
    """H_i = Z^betti_i + torsion, computed from the boundary normal forms,
    reduced in one loop from the top faces down to the edges.

    `_eliminate` added only multiples of pivot rows to other rows, so each
    boundary is row-equivalent to the pivot rows over the residual rows.  On
    the pivot columns, in the order the pivots were found, the pivot rows
    are unit upper-triangular, and the residual rows are zero there.  Column
    operations therefore clear the pivot rows outside the pivot columns,
    then reduce that triangle to the identity, without touching the
    residual rows: the normal form is the block sum of an identity and
    SNF(residual), which gives `ranks[i] = len(pivots) + rank`.

    The edge boundary leaves no residual: each row is +-(e_u - e_w), and
    clearing a column with a pivot row of that form leaves a row of that
    form or zero, so every non-zero row becomes a pivot.  Its rank is thus
    n less the number of components, and H0 is free.  A neighbourly 9-vertex
    3-sphere keeps 8 of its 36 edge rows after clearing.
    """
    d = K.dim
    if d < 0:
        raise PreconditionError("homology of the empty complex is undefined")
    fvec = K.f_vector()
    ranks = [0] * (d + 2)
    torsion: list[tuple[int, ...]] = [()] * (d + 1)
    pivots: dict[int, dict[int, int]] = {}
    for i in range(d, 0, -1):
        # the rows are the i-faces (the transpose, with the same factors),
        # less those that were pivot columns of the boundary one dimension up
        rows = [_face_boundary(cm) for cm in K.faces_masks(i) if cm not in pivots]
        pivots, core = _eliminate(rows)
        factors, rank = smith_normal_form(core)
        ranks[i] = len(pivots) + rank
        torsion[i - 1] = tuple(f for f in factors if f > 1)
    betti = tuple(fvec[i] - ranks[i] - ranks[i + 1] for i in range(d + 1))
    return HomologyProfile(betti, tuple(torsion))


THREE_SPHERE_PROFILE = HomologyProfile((1, 0, 0, 1), ((), (), (), ()))
TWO_SPHERE_PROFILE = HomologyProfile((1, 0, 1), ((), (), ()))
