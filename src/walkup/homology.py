"""Integer simplicial homology via Smith normal form.

Boundary matrices are exact integer matrices with faces sorted by bitmask
value and signs from the ascending-vertex orientation.  The normal form
first eliminates +-1 pivots on sparse rows; each contributes an invariant
factor 1, and boundary matrices of manifolds are nearly all such pivots.
The residual core goes to the dense `smith_normal_form`, which works modulo
twice a non-zero maximal minor, so its entries stay bounded.  Invariant
factors are unique, so the split changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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
