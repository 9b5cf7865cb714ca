"""Kostant generating functions for extended diagrams.

x(t) solves M(t) x = e0 with M(t) = (1 + t^2) I - t B and B = 2I - K the
McKay operator of the extended diagram, a tree F (its finite part) plus the
affine vertex 0; its entries are read from B (`Diagram.bonds`) only.
With q = 1 + t^2 and b_ij = -K_ij, the Schur complement at vertex 0 gives
det M = q det M_F - t^2 sum b_0u adj(M_F)_uw b_w0 and the Cramer numerators
y_0 = det M_F, y_v = t sum adj(M_F)_vu b_u0 (u, w over the neighbours N(0)
of vertex 0; the neighbours of v are the nonzero b_vj, as b_vv = 0).  On a
tree, adj(M_F)_vu is t^d prod b_(child, parent) along the path from u down
to v times the determinant of the forest the path leaves (Godsil, Algebraic
Combinatorics, 1993), so one leaf-to-root and one root-to-leaf pass per
u in N(0) give every entry with no division, on ints at t = 2^w: q x is
x + (x << 2w) and a path product a (factor, depth) pair, stepped by a shift.
Each y_i and det M, a minor of M, has coefficient 1-norm at most the product
of M's row 1-norms 2 + sum_j |b_ij| < 2^(w-1); as evaluation at 2^w is a ring
homomorphism, only these outputs need the bound, each decoded once.  Since
det M(0) = 1 the series of y_i / det M expand in integers:
`component_series` expands one, for the commands that compare component 0
only; `packed_series` all, from one expansion of s = 1/det M and one
product per component at t = 2^w (Kronecker substitution), with the error
naming the first negative slot.  Nothing here reduces a fraction, and
nothing here reads another side: the identities that compare this Cramer
side with the Coxeter, orbit and Molien sides are checked in `mckay`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from typing import NamedTuple, Sequence

from .diagram import Diagram
from .errors import DomainError, IdentityViolationError
from .exact import IntPoly, _decode, _l1, _low_slots, _norm, _pack, _unpack, _width, series_expand


class GeneratingFunction(NamedTuple):
    numerators: tuple[IntPoly, ...]  # det M_i(t), unreduced
    det_m: IntPoly                   # det M(t), the common denominator


def _adjugate_column(diagram: Diagram, root: int, w: int) -> tuple[int, dict[int, int]]:
    """(det M_F, {v: adj(M_F)_(v, root)}) at t = 2^w, the finite part F rooted at root."""
    b, cols = diagram.bonds.rows, range(diagram.size)
    parent, children, order = {root: 0}, {root: []}, [root]
    for v in order:  # breadth first; order grows while it is walked
        for c in compress(cols, b[v]):
            if c not in (0, parent[v]):
                if c in parent:
                    raise DomainError(f"the finite part of {diagram.name} has a cycle")
                parent[c], children[c] = v, []
                children[v].append(c)
                order.append(c)
    if len(order) != diagram.size - 1:
        raise DomainError(f"the finite part of {diagram.name} is disconnected")
    # leaf to root: d[v] = D_v and e[v] = E_v for the subtree of v, rest[c] the
    # product of D over the siblings of c; D_v = (1 + t^2) E_v - t^2 sum(...)
    d, e, rest = {}, {}, {}
    for v in reversed(order):
        cs = children[v]
        for i, c in enumerate(cs):
            rest[c] = math.prod(d[x] for x in cs[:i] + cs[i + 1:])
        ev = e[v] = math.prod(d[c] for c in cs)
        d[v] = ev + ((ev - sum(b[v][c] * b[c][v] * e[c] * rest[c] for c in cs)) << 2 * w)
    # root to leaf: path[v] = (f, depth), t^depth f the product of b_(child, parent)
    # down to v times the determinants of the subtrees off the path above v
    path = {root: (1, 0)}
    for v in order[1:]:
        f, depth = path[parent[v]]
        path[v] = (b[v][parent[v]] * f * rest[v], depth + 1)
    return d[root], {v: (f * e[v]) << (w * depth) for v, (f, depth) in path.items()}


@lru_cache(maxsize=None)
def generating_function(diagram: Diagram) -> GeneratingFunction:
    if not diagram.extended:
        raise DomainError("the generating functions live on the extended diagram")
    if not diagram.u0:
        raise DomainError(f"the affine vertex of {diagram.name} has no neighbours")
    b, u0 = diagram.bonds.rows, diagram.u0
    w = _width(math.prod(2 + sum(map(abs, row)) for row in b))
    dets, columns = zip(*(_adjugate_column(diagram, u, w) for u in u0))
    ys = [dets[0]] + [sum(b[u][0] * adj[v] for u, adj in zip(u0, columns)) << w
                      for v in range(1, diagram.size)]
    cross = sum(b[0][x] * b[u][0] * adj[x] for u, adj in zip(u0, columns) for x in u0)
    det_m = _decode(dets[0] + ((dets[0] - cross) << 2 * w), w)
    numerators = tuple(_decode(y, w) for y in ys)
    for i, num in enumerate(numerators):
        if num.coeff(0) != (1 if i == 0 else 0):
            raise IdentityViolationError(
                f"component {diagram.labels[i]} has constant term {num.coeff(0)}"
            )
    return GeneratingFunction(numerators, det_m)


def component_series(diagram: Diagram, i: int, nterms: int) -> tuple[int, ...]:
    """First nterms coefficients of det M_i / det M, checked nonnegative."""
    gf = generating_function(diagram)
    # det M(0) = y_0(0) = 1 (generating_function checks it), so every term is an int
    coeffs = tuple(series_expand(gf.numerators[i], nterms, gf.det_m))
    if coeffs and min(coeffs) < 0:
        raise _negative(diagram, i, coeffs)
    return coeffs


def _negative(diagram: Diagram, i: int, coeffs: Sequence[int]) -> IdentityViolationError:
    """The error that names the first negative coefficient of component i."""
    k, c = next((k, c) for k, c in enumerate(coeffs) if c < 0)
    return IdentityViolationError(f"component {diagram.labels[i]} coefficient at t^{k} is {c}")


def packed_series(diagram: Diagram, nterms: int
                  ) -> tuple[list[int], int, IdentityViolationError | None, list[int]]:
    """(columns, w, negative, numerators): column i packs v_n[i], n < nterms,
    in signed slots of w bits: the low slots of y_i(2^w) s(2^w), s = 1/det M
    expanded once, as `_low_slots` signs them, and numerators[i] = y_i(2^w)
    packed at the same w.  Slot n is at most c max|s_j|, c the
    largest 1-norm of the y_i and det M, and w keeps ||B|| + 2 times that
    below 2^(w-1): a negative slot sets its top bit, so negative is None or
    names the first, read back by `_unpack`, and B v, v_(n-1) + v_(n+1) and
    t B y - (1 + t^2) y + det M e0 fit the slots."""
    gf = generating_function(diagram)
    s = series_expand(IntPoly.one(), nterms, gf.det_m)
    c = max(map(_l1, (*gf.numerators, gf.det_m)))
    w = _width((_norm(diagram.bonds) + 2) * c * max(map(abs, s), default=1))
    ps, *ys = _pack((s, *(p.coeffs for p in gf.numerators)), w)
    slots = [_low_slots(y * ps, nterms, w) for y in ys]
    negative = next((_negative(diagram, i, _unpack(v, nterms, w)) for i, (v, ok) in enumerate(slots) if not ok), None)
    return [v for v, _ in slots], w, negative, ys

