"""Oracles for the tests: the general fraction-free Cramer solve, the
Leibniz permutation sum and sympy's determinant over ZZ[t].

`cramer_solve` is a dense Bareiss elimination that knows nothing of the
diagram's shape; `kostant.generating_function` is checked against it.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import sympy
from sympy.polys.matrices import DomainMatrix

from dynkinlab.diagram import Diagram
from dynkinlab.errors import DimensionError, RankError
from dynkinlab.exact import IntPoly, _as_poly
from dynkinlab.kostant import mckay_operator

T = IntPoly.x()
SYM_T = sympy.Symbol("t")


def cramer_matrix(diagram: Diagram) -> tuple[tuple[IntPoly, ...], ...]:
    """The rows of M(t) = (1 + t^2) I - t B."""
    q = 1 + T**2
    return tuple(
        tuple((q if i == j else 0) - T * v for j, v in enumerate(row))
        for i, row in enumerate(mckay_operator(diagram).rows)
    )


def cramer_solve(
    rows: Sequence[Sequence[IntPoly | int]], rhs: Sequence[IntPoly | int]
) -> tuple[IntPoly, tuple[IntPoly, ...]]:
    """(det M, (det M_0, ..., det M_(n-1))) for the square matrix M given by
    its rows, M_i being M with column i replaced by rhs, so that M x = rhs
    has x_i = det M_i / det M.

    One fraction-free elimination of [M | rhs], then fraction-free back
    substitution a[i][i] y_i = d rhs'_i - sum_(j > i) a[i][j] y_j with d the
    last pivot, each an exact division (Bareiss 1968; Nakos, Turner and
    Williams 1997).  A row swap negates det and every numerator alike.
    Raises DimensionError unless M is square and rhs has one entry per row,
    and RankError when M is singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionError("square matrix required")
    if len(rhs) != n:
        raise DimensionError("right-hand side length mismatch")
    a = [[_as_poly(v) for v in row] + [_as_poly(b)] for row, b in zip(rows, rhs)]
    # Bareiss: a[k][k] becomes the k-th leading minor of the row-permuted M
    sign, d = 1, IntPoly.one()
    for k in range(n):
        if a[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if pivot is None:
                raise RankError("singular matrix: Cramer's rule needs det != 0")
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        row_k, pk = a[k], a[k][k]
        for row_i in a[k + 1:]:
            aik = row_i[k]
            for j in range(k + 1, n + 1):
                row_i[j] = (pk * row_i[j] - aik * row_k[j]).divexact(d)
        d = pk
    ys = [IntPoly.zero()] * n
    for i in reversed(range(n)):
        acc = d * a[i][n] - sum((a[i][j] * ys[j] for j in range(i + 1, n)), IntPoly.zero())
        ys[i] = acc.divexact(a[i][i])
    return sign * d, tuple(sign * y for y in ys)


def perm_det(rows):
    """Leibniz permutation sum: the determinant straight from its definition."""
    n = len(rows)
    acc = IntPoly.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                clen += 1
            if clen % 2 == 0:
                sign = -sign
        term = IntPoly.one()
        for i in range(n):
            term = term * rows[i][perm[i]]
        acc = acc + (term if sign > 0 else -term)
    return acc


def sympy_det(rows) -> IntPoly:
    """Determinant computed by sympy over its own polynomial ring ZZ[t]."""
    ring = sympy.ZZ[SYM_T]
    elems = [[ring.ring.from_dict({(k,): c for k, c in enumerate(p.coeffs) if c}) for p in row]
             for row in rows]
    got = dict(DomainMatrix(elems, (len(rows), len(rows)), ring).det())
    top = max((k for (k,) in got), default=-1)
    return IntPoly(int(got.get((k,), 0)) for k in range(top + 1))


def det(rows) -> IntPoly:
    """det M from the Cramer solve with a zero right-hand side; 0 when the
    solve reports M singular."""
    try:
        return cramer_solve(rows, [0] * len(rows))[0]
    except RankError:
        return IntPoly.zero()
