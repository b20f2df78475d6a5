"""Integer simplicial homology via Smith normal form.

Boundary matrices are exact integer matrices with faces sorted by bitmask
value and signs from the ascending-vertex orientation.  The normal form
first eliminates +-1 pivots on sparse rows; each contributes an invariant
factor 1, and boundary matrices of manifolds are nearly all such pivots.
The residual core goes to the dense `smith_normal_form`, which uses plain
arbitrary-precision integers and smallest-pivot selection.  Invariant
factors are unique, so the split changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PreconditionError, SimplicialComplex, _iter_bits

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


def _boundary_columns(K: SimplicialComplex, i: int) -> list[dict[int, int]]:
    """The columns of `boundary_matrix(K, i)`, each as {row: entry}."""
    if i < 1 or i > K.dim:
        raise PreconditionError(f"boundary dimension {i} out of range 1..{K.dim}")
    row_index = {m: r for r, m in enumerate(K.faces_masks(i - 1))}
    return [
        {row_index[cm ^ (1 << b)]: (-1) ** j for j, b in enumerate(_iter_bits(cm))}  # ascending vertex order
        for cm in K.faces_masks(i)
    ]


def boundary_matrix(K: SimplicialComplex, i: int) -> Matrix:
    """The signed boundary from i-chains to (i-1)-chains."""
    cols = _boundary_columns(K, i)
    return [[col.get(r, 0) for col in cols] for r in range(len(K.faces_masks(i - 1)))]


def smith_normal_form(mat: Matrix) -> tuple[list[int], int]:
    """Invariant factors d1 | d2 | ... and the rank, over exact integers."""
    a = [row[:] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    t = 0
    while True:
        pivot = None
        for r in range(t, m):
            for c in range(t, n):
                if a[r][c] and (pivot is None or abs(a[r][c]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (r, c)
        if pivot is None:
            break
        r0, c0 = pivot
        a[t], a[r0] = a[r0], a[t]
        for row in a:
            row[t], row[c0] = row[c0], row[t]
        while True:
            reduced = False
            for r in range(t + 1, m):
                if a[r][t]:
                    q = a[r][t] // a[t][t]
                    for c in range(t, n):
                        a[r][c] -= q * a[t][c]
                    if a[r][t]:  # remainder became the smaller pivot
                        a[t], a[r] = a[r], a[t]
                        reduced = True
            for c in range(t + 1, n):
                if a[t][c]:
                    q = a[t][c] // a[t][t]
                    for r in range(t, m):
                        a[r][c] -= q * a[r][t]
                    if a[t][c]:
                        for r in range(t, m):
                            a[r][t], a[r][c] = a[r][c], a[r][t]
                        reduced = True
            if not reduced:
                break
        t += 1
    factors = [abs(a[k][k]) for k in range(t)]
    # enforce the divisibility chain d1 | d2 | ...
    from math import gcd

    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if factors[j] % factors[i]:
                g = gcd(factors[i], factors[j])
                factors[i], factors[j] = g, factors[i] * factors[j] // g
    factors.sort()
    return factors, len(factors)


def _sparse_smith(rows: list[dict[int, int]]) -> tuple[list[int], int]:
    """`smith_normal_form` of the matrix with these rows, each {column: entry}.

    A +-1 entry is a pivot with invariant factor 1: row operations clear its
    column, and column operations then clear its row without touching other
    rows.  What no such pivot reaches is the core, left to the dense routine.
    """
    rows = [dict(row) for row in rows]
    units = 0
    pending = list(range(len(rows) - 1, -1, -1))  # first row on top
    while pending:
        row = rows[pending.pop()]
        c = next((c for c, x in row.items() if x == 1 or x == -1), None)
        if c is None:
            continue
        x = row.pop(c)
        for r, other in enumerate(rows):
            if c in other:
                q = other.pop(c) * x
                for c2, y in row.items():
                    z = other.get(c2, 0) - q * y
                    if z:
                        other[c2] = z
                    else:
                        del other[c2]
                pending.append(r)
        row.clear()
        units += 1
    cols = sorted({c for row in rows for c in row})
    factors, rank = smith_normal_form([[row.get(c, 0) for c in cols] for row in rows if row])
    return [1] * units + factors, units + rank


def homology(K: SimplicialComplex) -> HomologyProfile:
    """H_i = Z^betti_i + torsion, computed from the boundary normal forms."""
    d = K.dim
    if d > 3:
        raise PreconditionError(f"homology guardrail: dimension {d} > 3")
    if d < 0:
        raise PreconditionError("homology of the empty complex is undefined")
    fvec = K.f_vector()
    ranks = [0] * (d + 2)
    torsion: list[tuple[int, ...]] = [()] * (d + 1)
    for i in range(1, d + 1):
        factors, rank = _sparse_smith(_boundary_columns(K, i))  # the transpose: same factors
        ranks[i] = rank
        torsion[i - 1] = tuple(f for f in factors if f > 1)
    betti = tuple(fvec[i] - ranks[i] - ranks[i + 1] for i in range(d + 1))
    return HomologyProfile(betti, tuple(torsion))


THREE_SPHERE_PROFILE = HomologyProfile((1, 0, 0, 1), ((), (), (), ()))
TWO_SPHERE_PROFILE = HomologyProfile((1, 0, 1), ((), (), ()))
