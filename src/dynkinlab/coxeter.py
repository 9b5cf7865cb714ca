"""Bicolored Coxeter transformations and their characteristic polynomials.

A reflection acts on root-basis coordinates by S_i = I - e_i (row_i K).
For a bipartite diagram with classes (part_x, part_y) the bicolored pair is
w1 = prod(S_i, i in part_y) and w2 = prod(S_i, i in part_x); the Coxeter
transformation is C = w2 w1.  On a finite diagram whose attachment
vertices u0 share a class, that class is part_y, so w2 fixes beta, the
finite part of the nil root (`orbit`); on an extended diagram the affine
vertex sits in part_y, which makes C independent of the choice up to
similarity.

No reflection is multiplied out: K[i, j] = 0 for i != j in one class, so
the product over a class is the class sum I - sum(e_i K_i), whose class
rows are e_i - K_i and whose other rows are the identity's (Steinberg 1959;
A'Campo 1976).  The class rows, about three nonzeros each, read from K's
nonzero entries, are the pair's one form (`_class_rows`); everything else
is derived from them where it is read.  The walks step by their sparse
products, which sum one colour class each: the order of C is the period
of one vector, a colour class's indicator, stepped through the pair, w1
and then w2, and `orbit` walks beta the same way.  C = w2 w1 has about
four nonzeros per row (317 on D80) and is formed only when
`coxeter_transform` is asked for it, by charpoly and by the checks that
take it as one operator; the dense pair only for the API and the
z-recurrence bounds.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, cycle
from operator import add, neg
from typing import Callable, NamedTuple

from .diagram import Diagram, DiagramId, build
from .errors import (
    DomainError,
    ExcludedDiagramError,
    IdentityViolationError,
    MissingParameterError,
)
from .exact import (
    IntMatrix,
    IntPoly,
    RatFunc,
    _decode,
    _row_product,
    _sparse_rows,
    _terms,
    _trusted_matrix,
    _width,
    charpoly,
)


class BicoloredPair(NamedTuple):
    """The two involutions: w1 reflects part_y, w2 part_x."""

    w1: IntMatrix
    w2: IntMatrix


Parts = tuple[tuple[int, ...], tuple[int, ...]]
ClassRows = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


@lru_cache(maxsize=None)
def _class_rows(cartan: IntMatrix, parts: Parts | None) -> tuple[ClassRows, ClassRows]:
    """(w1's, w2's) class rows: for each vertex i of part_y, then of part_x,
    (i, the nonzeros (j, a) of row i of I - e_i K_i), read off row i of K's
    nonzero entries, a = [i = j] - K_ij; cached per process on all they
    depend on, the Cartan matrix and the bipartition, which two diagrams
    may share."""
    if parts is None:
        raise ExcludedDiagramError("diagram has an odd cycle, hence no bicolored decomposition")
    k, cols, out = cartan.rows, range(cartan.ncols), []
    for part in parts[::-1]:
        rows = []
        for i in part:
            row = k[i]
            rows.append((i, tuple([(j, (i == j) - row[j]) for j in compress(cols, row)])))
        out.append(tuple(rows))
    return tuple(out)


def _factor(rows: ClassRows, n: int) -> list[tuple[tuple[int, int], ...]]:
    """One factor's rows as `_terms`: its class rows, and (i, 1) elsewhere."""
    terms = [((i, 1),) for i in range(n)]
    for i, row in rows:
        terms[i] = row
    return terms


def bicolored_reflections(diagram: Diagram) -> BicoloredPair:
    """The pair as dense matrices, each row its terms times I."""
    n = diagram.size
    eye, classes = _factor((), n), _class_rows(diagram.cartan, diagram.bipartition)
    return BicoloredPair(*(_trusted_matrix(tuple(_row_product(row, eye, n) for row in _factor(rows, n)))
                           for rows in classes))


@lru_cache(maxsize=None)
def _transform(cartan: IntMatrix, parts: Parts | None) -> IntMatrix:
    """C = w2 w1, row i the terms of w2's row i times w1 by `_row_product`:
    w1's own row on part_y, where w2's row is e_i; cached on the class
    rows' key, and formed only when C itself is read."""
    (ys, xs), n = _class_rows(cartan, parts), cartan.nrows
    w1, rows = _factor(ys, n), [()] * n
    for i, _ in ys:
        rows[i] = _row_product(((i, 1),), w1, n)
    for i, row in xs:
        rows[i] = _row_product(row, w1, n)
    return _trusted_matrix(tuple(rows))


def coxeter_transform(diagram: Diagram) -> IntMatrix:
    return _transform(diagram.cartan, diagram.bipartition)


@lru_cache(maxsize=None)
def _products(cartan: IntMatrix, parts: Parts | None) -> tuple[Callable, Callable]:
    """The sparse products of w1 and w2 (`_sparse_rows` over the class
    rows), cached on the same key, as most pairs never walk."""
    return tuple(_sparse_rows(cartan.nrows, rows) for rows in _class_rows(cartan, parts))


def bicolored_products(diagram: Diagram) -> tuple[Callable, Callable]:
    """(x -> w1 x, x -> w2 x), built once per pair for every walk by it;
    refuses an odd cycle."""
    return _products(diagram.cartan, diagram.bipartition)


def coxeter_charpoly(diagram: Diagram) -> IntPoly:
    """det(lambda I - C), from the nx x nx matrix Q = C_xx - I alone.

    In the order (part_x, part_y), with C = w2 w1, C_yy = -I: C's part_y
    rows are w1's, -e_i on part_y.  w2's part_x rows are -e_i - sum over
    j in part_y of K_ij e_j, and w1's part_y rows restricted to part_x are
    -K_yx, so C_xx = -I + K_xy K_yx = -I - C_xy C_yx.  By the Schur
    complement of the (lambda + 1) I block (A'Campo 1976; Steinberg 1959),

      det(lambda I - C) = (lambda + 1)^ny det(lambda I - C_xx - C_xy C_yx / (lambda + 1))
                        = (lambda + 1)^(ny - nx) det((lambda^2 + 1) I - lambda Q),

    and with q = charpoly(Q) = sum q_k mu^k the last determinant is
    lambda^nx q((lambda^2 + 1) / lambda) = sum q_k (lambda^2 + 1)^k lambda^(nx - k).

    C is read through `coxeter_transform` only, and both block facts are
    checked on it: C_yy on its nonzeros, and C_xx + I = -C_xy C_yx one
    part_x row at a time, row i of C plus one `_row_product` of its terms
    against C_yx's, whose part_x entries are those of -e_i; that row's
    part_x entries less e_i are row i of Q.  The sum is evaluated by Horner at
    lambda = 2^w, acc <- acc (lambda^2 + 1) + q_(nx-1-j) lambda^(j+1),
    times (1 + lambda) ny - nx times, and decoded once: each coefficient is
    at most sum |q_k| 2^k 2^max(ny - nx, 0) in absolute value.  For nx > ny
    the result is divided exactly by (1 + lambda)^(nx - ny).
    """
    c = coxeter_transform(diagram)  # refuses an odd cycle
    part_x, part_y = diagram.bipartition
    rows, terms, ys, n = c.rows, _terms(c), set(part_y), c.nrows
    if any([(j, a) for j, a in terms[i] if j in ys] != [(i, -1)] for i in part_y):
        raise IdentityViolationError("C_yy is not -I")
    yx = [[(j, a) for j, a in row if j not in ys] if l in ys else [] for l, row in enumerate(terms)]
    q_rows = []
    for k, i in enumerate(part_x):
        row = rows[i]
        total = list(map(add, row, _row_product(terms[i], yx, n)))  # row i of C + C_xy C_yx
        total[i] += 1
        if any(map(total.__getitem__, part_x)):
            raise IdentityViolationError("C_xx + I is not -C_xy C_yx")
        q_row = list(map(row.__getitem__, part_x))  # row i of C_xx
        q_row[k] -= 1
        q_rows.append(tuple(q_row))
    q = charpoly(_trusted_matrix(tuple(q_rows))).coeffs  # Q = C_xx - I
    nx, lift = len(part_x), len(part_y) - len(part_x)
    w = _width(sum(abs(v) << k for k, v in enumerate(q)) << max(lift, 0))
    acc = q[nx]
    for j in range(nx):
        acc += (acc << 2 * w) + (q[nx - 1 - j] << w * (j + 1))
    for _ in range(lift):
        acc += acc << w
    chi = _decode(acc, w)
    if lift < 0:
        try:
            chi = chi.divexact(IntPoly((1, 1)) ** -lift)
        except ArithmeticError:
            raise IdentityViolationError(f"(1 + lambda)^{-lift} does not divide the Schur form") from None
    return chi


@lru_cache(maxsize=None)
def coxeter_number(diagram: Diagram) -> int:
    """Order of the bicolored Coxeter transformation of a finite diagram:
    the period of x, the indicator vector of the colour class that holds
    vertex 0, under x <- w2 (w1 x), as `orbit.tau_orbit` steps beta.

    One vector suffices (Steinberg 1959; A'Campo 1976).  On a connected
    finite diagram C has order h, and x has a nonzero component on the
    eigenvalue e^(2 pi i / h): Steinberg builds that eigenvector from the
    Perron-Frobenius vector of the bond graph, symmetrised on the
    multiply-laced diagrams, and on one class it is a multiple of a
    positive vector, so its pairing with x does not vanish.  On a connected
    diagram that is not finite type, C grows along a direction that is
    again a multiple of a positive vector on each class (delta's Jordan
    block at 1 if affine, the Perron eigenvalue > 1 if wild), so the orbit
    never closes and the bound refuses it.  A disconnected C is block
    diagonal, and `diagram._two_coloring` gives colour 0 to the least vertex
    of each component, so x meets every component and its period is the
    lcm of their orders.  No shorter start will do: the all-ones vector has
    period 2 on the affine finite part of T(3,3,4), and e_0 alone has
    period 2 on A1 + A2, whose C has order 6.

    The walk stops at the half-turn.  Let u be the involution of x's class
    S, so u x = x - 2x = -x (no two vertices of S are bonded), and v the
    other one.  Step x_(j+1) = v x_j for even j and u x_j for odd j, v
    first.  As u and v are involutions and u x = -x, x_(-1-j) = -x_j; so
    x_m = -x_(m-1) iff x_m = x_(-m) iff (u v)^m x = x, and u v is C or its
    inverse.  The first such m is h, reached in h single-factor products
    instead of 2h.
    """
    if diagram.extended:
        raise DomainError("the affine Coxeter transformation has infinite order")
    w1, w2 = bicolored_products(diagram)  # refuses an odd cycle
    part_x, part_y = diagram.bipartition
    on_x = 0 in part_x  # then u = w2, and w1 steps first
    x = [0] * diagram.size
    for i in part_x if on_x else part_y:
        x[i] = 1
    steps = cycle((w1, w2) if on_x else (w2, w1))
    bound = 10 * diagram.size**2
    for m in range(1, bound + 1):
        back, x = list(map(neg, x)), next(steps)(x)
        if x == back:
            return m
    raise DomainError(f"order exceeds the bound {bound}; diagram is not finite type")


def affine_A_charpoly(n: int, k: int) -> IntPoly:
    """Characteristic polynomial (L^(n-k+1) - 1)(L^k - 1) of the affine
    Coxeter transformation on the (n+1)-cycle with class sizes k, n+1-k."""
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in 1..{n}")
    return (IntPoly.monomial(n - k + 1) - 1) * (IntPoly.monomial(k) - 1)


def char_polys(did: DiagramId, k: int | None = None) -> tuple[IntPoly, IntPoly]:
    """(chi, chi_affine) for a finite catalog diagram.

    chi comes from the finite bicolored transformation.  chi_affine comes
    from the extended partner diagram: the same family for C, D, E, F4, G2,
    the CD diagram for B, and the closed form for family A, which needs the
    conjugacy parameter k of the cycle splitting.
    """
    chi = coxeter_charpoly(build(did))
    if did.family == "A":
        if k is None:
            raise MissingParameterError(
                "family A needs the parameter k to pick an affine transformation"
            )
        return chi, affine_A_charpoly(did.rank, k)
    partner = "CD" if did.family == "B" else did.family
    ext = build(DiagramId(partner, did.rank), extended=True)
    chi_affine = coxeter_charpoly(ext)
    if chi_affine(1) != 0:
        raise IdentityViolationError("affine characteristic polynomial misses lambda = 1")
    return chi, chi_affine


def ebeling_quotient(did: DiagramId, k: int | None = None) -> RatFunc:
    """chi / chi_affine as a reduced rational function in lambda."""
    chi, chi_affine = char_polys(did, k)
    return RatFunc(chi, chi_affine)
