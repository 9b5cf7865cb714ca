"""Kostant generating functions for extended diagrams.

x(t) solves M(t) x = e0 with M(t) = (1 + t^2) I - t B and B = 2I - K the
McKay operator of the extended diagram, a tree F (its finite part) plus
the affine vertex 0.  With q = 1 + t^2 and b_ij = -K_ij, the Schur
complement at vertex 0 gives det M = q det M_F - t^2 sum b_0u adj(M_F)_uw
b_w0 and the Cramer numerators y_0 = det M_F, y_v = t sum adj(M_F)_vu b_u0
(u, w over the neighbours N(0) of vertex 0).  On a tree, adj(M_F)_vu is
t^d prod b_(child, parent) along the path from u down to v times the
determinant of the forest the path leaves (Godsil, Algebraic
Combinatorics, 1993), so one leaf-to-root and one root-to-leaf pass per
u in N(0) give every entry in Z[t] with no division.  Ebeling's
identities compare y_0 and det M with Coxeter characteristic polynomials
at lambda = t^2, computed from C alone.  Every identity on x(t) is checked
on the y_i with det M cleared, and since det M(0) = 1 the series of
y_i / det M expand in integers, one component per call of
`component_series`.  Commands that compare component 0 only expand
component 0 only; `multiplicities` assembles every component.  Nothing
here reduces a fraction.  McKay's relation B v_n = v_(n-1) + v_(n+1) is
checked term by term in one place, `_three_term`, which `mckay` and
`molien` call on their own vectors.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .coxeter import coxeter_transform
from .diagram import SIMPLY_LACED, Diagram, DiagramId, build, finite_part, kostant_numbers
from .errors import DomainError, IdentityViolationError
from .exact import IntMatrix, IntPoly, charpoly, series_expand, vec_add
from .report import Report

T = IntPoly.x()
T2 = IntPoly.monomial(2)
Q = 1 + T2


def _name(diagram: Diagram) -> str:
    base = diagram.did.text if diagram.did else "folded diagram"
    return f"extended {base}" if diagram.extended else base


def mckay_operator(diagram: Diagram) -> IntMatrix:
    """B = 2I - K on an extended diagram."""
    if not diagram.extended:
        raise DomainError("the McKay operator lives on the extended diagram")
    return diagram.bonds


class GeneratingFunction(NamedTuple):
    diagram: Diagram
    numerators: tuple[IntPoly, ...]  # det M_i(t), unreduced
    det_m: IntPoly                   # det M(t), the common denominator


def _adjugate_column(diagram: Diagram, root: int) -> tuple[IntPoly, dict[int, IntPoly]]:
    """(det M_F, {v: adj(M_F)_(v, root)}) with the finite part F rooted at root."""
    k = diagram.cartan
    parent, children, order = {root: 0}, {root: []}, [root]
    for v in order:  # breadth first; order grows while it is walked
        for c in diagram.neighbors(v):
            if c not in (0, parent[v]):
                if c in parent:
                    raise DomainError(f"the finite part of {_name(diagram)} has a cycle")
                parent[c], children[c] = v, []
                children[v].append(c)
                order.append(c)
    if len(order) != diagram.size - 1:
        raise DomainError(f"the finite part of {_name(diagram)} is disconnected")
    # leaf to root: d[v] = D_v and e[v] = E_v for the subtree of v, rest[c] the
    # product of D over the siblings of c
    d, e, rest = {}, {}, {}
    for v in reversed(order):
        cs = children[v]
        for i, c in enumerate(cs):
            rest[c] = math.prod(d[x] for x in cs[:i] + cs[i + 1:])
        e[v] = math.prod(d[c] for c in cs)
        d[v] = Q * e[v] - T2 * sum(k[v, c] * k[c, v] * e[c] * rest[c] for c in cs)
    # root to leaf: path[v] = t^d prod b_(child, parent) from root down to v,
    # times the determinants of the subtrees hanging off the path above v
    path = {root: IntPoly.one()}
    for v in order[1:]:
        path[v] = -k[v, parent[v]] * T * path[parent[v]] * rest[v]
    return d[root], {v: path[v] * e[v] for v in order}


@lru_cache(maxsize=None)
def generating_function(diagram: Diagram) -> GeneratingFunction:
    if not diagram.extended:
        raise DomainError("the generating functions live on the extended diagram")
    if not diagram.u0:
        raise DomainError(f"the affine vertex of {_name(diagram)} has no neighbours")
    k, u0 = diagram.cartan, diagram.u0
    dets, columns = zip(*(_adjugate_column(diagram, u) for u in u0))
    numerators = (dets[0],) + tuple(
        T * sum(-k[u, 0] * adj[v] for u, adj in zip(u0, columns)) for v in range(1, diagram.size)
    )
    det_m = Q * dets[0] - T2 * sum(
        k[0, w] * k[u, 0] * adj[w] for u, adj in zip(u0, columns) for w in u0
    )
    for i, num in enumerate(numerators):
        if num.coeff(0) != (1 if i == 0 else 0):
            raise IdentityViolationError(
                f"component {diagram.labels[i]} has constant term {num.coeff(0)}"
            )
    return GeneratingFunction(diagram, numerators, det_m)


def closed_form_component0(did: DiagramId) -> tuple[IntPoly, IntPoly]:
    """(1 + t^h, (1 - t^a)(1 - t^b)): numerator and denominator of component
    0 for a finite ADE diagram, unreduced."""
    a, b, h, _ = kostant_numbers(did)
    return 1 + T**h, (1 - T**a) * (1 - T**b)


@lru_cache(maxsize=None)
def component_series(diagram: Diagram, i: int, nterms: int) -> tuple[int, ...]:
    """First nterms coefficients of det M_i / det M, checked nonnegative."""
    gf = generating_function(diagram)
    # det M(0) = y_0(0) = 1 (generating_function checks it), so every term is an int
    coeffs = tuple(series_expand(gf.numerators[i], nterms, gf.det_m))
    if coeffs and min(coeffs) < 0:
        k, c = next((k, c) for k, c in enumerate(coeffs) if c < 0)
        raise IdentityViolationError(
            f"component {diagram.labels[i]} coefficient at t^{k} is {c}"
        )
    return coeffs


def multiplicities(diagram: Diagram, nterms: int) -> tuple[tuple[int, ...], ...]:
    """v_n for n < nterms: entry [n][i] is the multiplicity of vertex i at degree n."""
    columns = (component_series(diagram, i, nterms) for i in range(diagram.size))
    return tuple(zip(*columns))


def _three_term(a: IntMatrix, v) -> list[bool]:
    """Whether a v_n = v_(n-1) + v_(n+1), for each n = 1..len(v) - 2."""
    return [a.mulvec(v[n]) == vec_add(v[n - 1], v[n + 1]) for n in range(1, len(v) - 1)]


def verify_kostant_relation(diagram: Diagram, nterms: int = 40) -> Report:
    """B v_n = v_{n-1} + v_{n+1} for 1 <= n < nterms, plus the closed
    rational-function identity t B x = (1 + t^2) x - e0."""
    name = f"kostant relation for {_name(diagram)}"
    b = mckay_operator(diagram)
    try:
        v = multiplicities(diagram, nterms + 1)
    except IdentityViolationError as exc:
        return Report(name, ((f"series expansion: {exc}", False),))
    rec_ok = all(_three_term(b, v))
    # x = y / det M: clear the common denominator and compare in Z[t]
    gf = generating_function(diagram)
    y = gf.numerators
    by = b.mulvec(y)
    func_ok = all(
        T * by[i] == (1 + T**2) * y[i] - (gf.det_m if i == 0 else 0)
        for i in range(diagram.size)
    )
    return Report(
        name,
        (
            ("series coefficients are nonnegative integers", True),
            (f"B v_n = v_(n-1) + v_(n+1) for 1 <= n <= {nterms - 1}", rec_ok),
            ("t B x = (1 + t^2) x - e0", func_ok),
        ),
    )


def verify_ebeling(diagram: Diagram) -> Report:
    """det M_0(t) = chi(t^2) and det M(t) = chi_affine(t^2).

    On the odd cycles, which have no bicolored affine transformation, the
    second identity is replaced by the closed cycle form (t^m - 1)^2.
    """
    if not diagram.extended:
        raise DomainError("Ebeling identities compare an extended diagram")
    gf = generating_function(diagram)
    chi = charpoly(coxeter_transform(finite_part(diagram)))
    checks = [("det M_0(t) = chi(t^2)", gf.numerators[0] == chi.substitute(T2))]
    if diagram.bipartition is not None:
        chi_a = charpoly(coxeter_transform(diagram))
        checks.append(("det M(t) = chi_affine(t^2)", gf.det_m == chi_a.substitute(T2)))
    else:
        m = diagram.size
        checks.append((f"det M(t) = (t^{m} - 1)^2 on the {m}-cycle",
                       gf.det_m == (T**m - 1) ** 2))
    return Report(f"ebeling identities for {_name(diagram)}", tuple(checks))


def verify_closed_form(did: DiagramId) -> Report:
    """Cramer component 0 against (1 + t^h)/((1 - t^a)(1 - t^b)), as
    det M_0 (1 - t^a)(1 - t^b) = (1 + t^h) det M."""
    if did.family not in SIMPLY_LACED:
        raise DomainError("the closed form applies to ADE diagrams")
    gf = generating_function(build(did, extended=True))
    num, den = closed_form_component0(did)
    ok = gf.numerators[0] * den == num * gf.det_m
    return Report(
        f"kostant closed form for {did.text}",
        ((f"[P]_0 = (1 + t^h)/((1 - t^a)(1 - t^b)) for {did.text}", ok),),
    )
