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
A'Campo 1976).  C then has about four nonzeros per row (317 on D80).  Its
part_y rows are w1's, as w2 is the identity there, so forming C sums only
its part_x rows, over the nonzeros of both factors.  The order of C steps
through the pair, w1 and then w2, and each sparse product by a factor
passes the identity rows through, so it sums one colour class only; C
itself is read by charpoly and by the checks that take it as one operator.
"""

from __future__ import annotations

from functools import lru_cache
from operator import neg
from typing import NamedTuple

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
    _order,
    _row_product,
    _terms,
    _trusted_matrix,
    charpoly,
)


class BicoloredPair(NamedTuple):
    """The two involutions: w1 reflects part_y, w2 part_x."""

    w1: IntMatrix
    w2: IntMatrix


def _class_sum(cartan: IntMatrix, part: tuple[int, ...]) -> IntMatrix:
    """prod(S_i, i in part) as the class sum I - sum(e_i (row_i K), i in part)."""
    k, rows = cartan.rows, list(IntMatrix.identity(cartan.nrows).rows)
    for r in set(part):
        row = list(map(neg, k[r]))
        row[r] += 1
        rows[r] = tuple(row)
    return _trusted_matrix(tuple(rows))


@lru_cache(maxsize=None)
def _bicolored(cartan: IntMatrix, parts: tuple[tuple[int, ...], tuple[int, ...]] | None
               ) -> tuple[BicoloredPair, IntMatrix]:
    """The pair and C = w2 w1; cached per process on all they depend on, the
    Cartan matrix and the bipartition, which two diagrams may share.  Row i
    of C is row i of w2 times w1: w1's own row off part_x, where w2's row
    is e_i, and on part_x summed over w2's nonzeros by `_row_product`."""
    if parts is None:
        raise ExcludedDiagramError("diagram has an odd cycle, hence no bicolored decomposition")
    part_x, part_y = parts
    pair = BicoloredPair(w1=_class_sum(cartan, part_y), w2=_class_sum(cartan, part_x))
    rows, right, n = list(pair.w1.rows), _terms(pair.w1), cartan.nrows
    for i in part_x:
        rows[i] = _row_product(pair.w2.rows[i], right, range(n), n)
    return pair, _trusted_matrix(tuple(rows))


def bicolored_reflections(diagram: Diagram) -> BicoloredPair:
    return _bicolored(diagram.cartan, diagram.bipartition)[0]


def coxeter_transform(diagram: Diagram) -> IntMatrix:
    return _bicolored(diagram.cartan, diagram.bipartition)[1]


@lru_cache(maxsize=None)
def coxeter_number(diagram: Diagram) -> int:
    """Order of the bicolored Coxeter transformation of a finite diagram,
    stepped through its pair: C^k = (w2 w1)^k, w1 applied first."""
    if diagram.extended:
        raise DomainError("the affine Coxeter transformation has infinite order")
    bound = 10 * diagram.size**2
    h = _order(bicolored_reflections(diagram), bound)
    if h is None:
        raise DomainError(f"order exceeds the bound {bound}; diagram is not finite type")
    return h


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
    chi = charpoly(coxeter_transform(build(did)))
    if did.family == "A":
        if k is None:
            raise MissingParameterError(
                "family A needs the parameter k to pick an affine transformation"
            )
        return chi, affine_A_charpoly(did.rank, k)
    partner = "CD" if did.family == "B" else did.family
    ext = build(DiagramId(partner, did.rank), extended=True)
    chi_affine = charpoly(coxeter_transform(ext))
    if chi_affine(1) != 0:
        raise IdentityViolationError("affine characteristic polynomial misses lambda = 1")
    return chi, chi_affine


def ebeling_quotient(did: DiagramId, k: int | None = None) -> RatFunc:
    """chi / chi_affine as a reduced rational function in lambda."""
    chi, chi_affine = char_polys(did, k)
    return RatFunc(chi, chi_affine)
