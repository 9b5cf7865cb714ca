"""Where the sides of each identity meet.

Each identity of the paper is computed two ways, by modules that never
read one another's answers: `kostant` solves M(t) x = e0 by Cramer's rule
on the tree (the Cramer side), `coxeter` forms the bicolored Coxeter
transformation C and its characteristic polynomials, `orbit` walks the
tail of the nil root by C's factors w1 and w2 up to C's order h, and `molien`
closes the binary polyhedral group and sums its Molien series.  Every
function that compares two sides is here, so no side can compute its
answer from another's; a test pins the package's import graph.
Ebeling's identities set y_0 and det M against chi and chi_affine at
lambda = t^2, the closed and orbit forms set the Cramer components against
(1 + t^h) and z(t) over (1 - t^a)(1 - t^b), and the Molien series meets
component 0 (McKay's correspondence).  Each identity on x(t) is checked on
the numerators y_i with det M cleared.  Where an identity multiplies, its
sides are compared as integers at t = 2^w (`exact._pack`; a matrix row by
row), w sized by the rule at `exact._agree`, which compares the closed and
orbit forms.  `exact._three_term` compares McKay's relation t B x + e0 =
(1 + t^2) x by row and degree, on the Cramer side (e0 = det M) and per
vertex under A^semi (`_semi_relation`).  `Report` is every check's answer type.

The semi-affine operator acts on extended coordinates: its finite block is
the adjacency matrix, its affine row is zero, and its affine column keeps
the bonds of the affine vertex.  With that orientation the operator sends
z_0 = alpha_0 to z_1 and annihilates the affine coordinate of every image,
which is exactly what the three-term recurrence (t + 1/t) z(t)_i = sum of
the neighboring z(t)_j needs at the attachment vertex, where the neighbor
sum picks up z(t)_0 = 1 + t^h.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Callable, Iterable, NamedTuple, Sequence

from .coxeter import (bicolored_products, bicolored_reflections, coxeter_charpoly, coxeter_number,
                      coxeter_transform)
from .diagram import BpgId, Diagram, DiagramId, build, finite_part, folded_pair, molien_group
from .errors import CatalogCorruptionError, DomainError
from .exact import (IntMatrix, IntPoly, _agree, _norm, _pack, _sparse_left, _three_term,
                    _trusted_matrix, _unpack, _width)
from .kostant import component_series, generating_function, packed_series
from .molien import _molien_sums, enumerate_group, molien_coeffs
from .orbit import assembling_vectors, z_polynomials

_TOL = 1e-6


def _of_t2(p: IntPoly, q: IntPoly) -> bool:
    """p(t) = q(t^2): p's even coefficients are q's and its odd ones are 0
    (both tuples are trimmed)."""
    return p.coeffs[::2] == q.coeffs and not any(p.coeffs[1::2])


def _title(ext: Diagram) -> str:
    """What a report calls a diagram: its id's text, else `Diagram.name`."""
    return ext.did.text if ext.did else ext.name


class Report(NamedTuple):
    """A verification report: a name and its labelled pass/fail checks."""

    name: str
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def render(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"]
        lines += [f"  {'PASS' if ok else 'FAIL'}  {label}" for label, ok in self.checks]
        return "\n".join(lines)


def kostant_numbers(did: DiagramId) -> tuple[int, int, int, int]:
    """(a, b, h, |H|) for a catalog diagram.

    h is the Coxeter number of the finite part of did's extension, |H| the
    order of the group whose Molien series is component 0 (`molien_group`:
    McKay's group on A/D/E, where |H| = |G|), and a <= b are the roots of
    x^2 - (h + 2) x + 2|H|, which must be integers.
    """
    h = coxeter_number(finite_part(build(did, extended=True)))
    order = molien_group(did).order
    disc = (h + 2) ** 2 - 8 * order  # = (h + 2)^2 mod 8: a root has the parity of h + 2
    root = isqrt(max(disc, 0))
    if root * root != disc:
        raise CatalogCorruptionError(f"x^2 - {h + 2}x + {2 * order} has no integer roots")
    return (h + 2 - root) // 2, (h + 2 + root) // 2, h, order


def closed_form_component0(did: DiagramId) -> tuple[IntPoly, IntPoly]:
    """(1 + t^h, (1 - t^a)(1 - t^b)): numerator and denominator of component
    0 of did's extension, unreduced, with a, b and h from `kostant_numbers`."""
    a, b, h, _ = kostant_numbers(did)
    return 1 + IntPoly.monomial(h), (1 - IntPoly.monomial(a)) * (1 - IntPoly.monomial(b))


@lru_cache(maxsize=None)
def _operator(m: IntMatrix) -> Callable:
    """x -> m x by `_sparse_left`, built once per matrix that two checks
    apply: B = 2I - K (the Kostant relation and McKay's shift) and A^semi
    (the observation and the z-recurrence); cached per process."""
    return _sparse_left(m)


def verify_kostant_relation(diagram: Diagram, nterms: int) -> Report:
    """B v_n = v_{n-1} + v_{n+1} for 1 <= n < nterms, plus the closed
    rational-function identity t B x = (1 + t^2) x - e0."""
    b = _operator(diagram.bonds)  # applied to both sides
    v, w, negative, y = packed_series(diagram, nterms + 1)
    _, holds = _three_term(b(v), v, w, nterms + 1)
    # x = y / det M: t B y + det M e0 = (1 + t^2) y in Z[t], at t = 2^w (injective there)
    rows, _ = _three_term(b(y), y, w, 0, *_pack((generating_function(diagram).det_m.coeffs,), w))  # rows only
    return Report(
        f"kostant relation for {diagram.name}",
        (
            ("series coefficients are nonnegative integers", negative is None),
            (f"B v_n = v_(n-1) + v_(n+1) for 1 <= n <= {nterms - 1}", all(holds[1:-1])),
            ("t B x = (1 + t^2) x - e0", all(rows)),
        ),
    )


def verify_ebeling(diagram: Diagram) -> Report:
    """det M_0(t) = chi(t^2) and det M(t) = chi_affine(t^2).

    On the odd cycles, which have no bicolored affine transformation, the
    second identity is replaced by the closed cycle form (t^m - 1)^2.
    """
    gf = generating_function(diagram)  # raises DomainError on a finite diagram
    chi = coxeter_charpoly(finite_part(diagram))
    checks = [("det M_0(t) = chi(t^2)", _of_t2(gf.numerators[0], chi))]
    if diagram.bipartition is not None:
        chi_a = coxeter_charpoly(diagram)
        checks.append(("det M(t) = chi_affine(t^2)", _of_t2(gf.det_m, chi_a)))
    else:
        m = diagram.size
        checks.append((f"det M(t) = (t^{m} - 1)^2 on the {m}-cycle",
                       gf.det_m == (IntPoly.monomial(m) - 1) ** 2))
    return Report(f"ebeling identities for {diagram.name}", tuple(checks))


def verify_closed_form(did: DiagramId) -> Report:
    """Cramer component 0 against (1 + t^h)/((1 - t^a)(1 - t^b)), as
    det M_0 (1 - t^a)(1 - t^b) = (1 + t^h) det M."""
    gf = generating_function(build(did, extended=True))
    num, den = closed_form_component0(did)
    (ok,) = _agree(gf.numerators[:1], gf.det_m, (num,), den)
    return Report(
        f"kostant closed form for {did.text}",
        ((f"[P]_0 = (1 + t^h)/((1 - t^a)(1 - t^b)) for {did.text}", ok),),
    )


def verify_kostant_form(ext: Diagram) -> Report:
    """Orbit route against the Cramer route on an extended diagram,
    component by component, as det M_i (1 - t^a)(1 - t^b) = z(t)_i det M."""
    zt = z_polynomials(ext)
    if ext.did is None:
        raise DomainError(f"{ext.name}: no Molien group H gives |H| for a and b")
    a, b, _, _ = kostant_numbers(ext.did)
    _, den = closed_form_component0(ext.did)
    gf = generating_function(ext)
    checks = tuple((f"[P]_{label} = z(t)_{label} / ((1 - t^{a})(1 - t^{b}))", ok)
                   for label, ok in zip(ext.labels, _agree(gf.numerators, gf.det_m, zt, den)))
    return Report(f"kostant form via orbit for {ext.did.text}", checks)


def semi_affine(ext: Diagram) -> IntMatrix:
    """The McKay operator B = 2I - K of an extended diagram with its affine
    row zeroed out: finite block = adjacency, affine column = bonds of the
    affine vertex, affine row = 0.
    """
    rows = ext.bonds.rows
    return _trusted_matrix(((0,) * len(rows),) + rows[1:])


def _semi_relation(ext: Diagram, n: int, *routes: Iterable[Sequence[int]]) -> list[tuple[bool, list[bool], list[bool]]]:
    """Per route, the coefficients of one p(t)_i per vertex, packed: (affine,
    rows, degrees), whether A^semi's affine row annihilates p(t), then
    `_three_term` on its finite rows (rows[i - 1] is vertex i) for degrees
    k < n.  Each slot is at most (2 + ||A^semi||) max|p_i|."""
    a_semi = semi_affine(ext)
    semi, bound, out = _operator(a_semi), 2 + _norm(a_semi), []  # for every route
    for rows in map(list, routes):
        w = _width(bound * max(sum(map(abs, row)) for row in rows))
        x = _pack(rows, w)
        bx = semi(x)
        out.append((bx[0] == 0, *_three_term(bx[1:], x[1:], w, n)))
    return out


def verify_z_recurrence(ext: Diagram) -> Report:
    """Three-term recurrences of the assembling vectors of an extended
    diagram, plus the two matrix identities that splice the orbit walk into
    the action of A = 2I - K on the finite part it walked."""
    finite, h, _, z = assembling_vectors(ext)
    ((_, _, holds),) = _semi_relation(ext, h + 1, zip(*z))  # z(t)_i is column i; z_(-1) = z_(h+1) = 0

    # C is coxeter_transform's own operator: as w2 after w1 it would test associativity
    a_fin, pair, c = finite.bonds, bicolored_reflections(finite), coxeter_transform(finite)
    (w1, w2), (a, cx) = bicolored_products(finite), map(_sparse_left, (a_fin, c))  # each applied twice

    na, n1, nc = _norm(a_fin), _norm(pair.w1), _norm(c)
    m1, m2, pc = 1 + n1, 1 + _norm(pair.w2), 1 + nc  # bound ||1 - w1||, ||1 - w2||, ||1 + C||
    w = _width(max(na * m2 * n1 + m1 * pc, na * m1 * nc + m2 * n1 * pc))
    ident = [1 << (w * i) for i in range(finite.size)]  # the packed rows of 1

    def one_minus(f, x: list[int]) -> list[int]:
        return [u - v for u, v in zip(x, f(x))]
    one_plus_c = [u + v for u, v in zip(ident, cx(ident))]
    block1 = a(one_minus(w2, w1(ident))) == one_minus(w1, one_plus_c)
    block2 = a(one_minus(w1, cx(ident))) == one_minus(w2, w1(one_plus_c))

    return Report(
        f"assembling recurrences for {_title(ext)}",
        (
            (f"A z_n = z_(n-1) + z_(n+1) for 1 < n < {h - 1}", all(holds[2:h - 1])),
            ("A z_1 = z_2", holds[1]),
            (f"A z_{h - 1} = z_{h - 2}", holds[h - 1]),
            ("A^semi z_0 = z_1", holds[0]),
            (f"A^semi z_{h} = z_{h - 1}", holds[h]),
            ("A (1 - w2) w1 = (1 - w1)(1 + C)", block1),
            ("A (1 - w1) C = (1 - w2) w1 (1 + C)", block2),
        ),
    )


def verify_observation(ext: Diagram) -> Report:
    """(t + 1/t) z(t)_i = neighbor sum of z(t), for every finite vertex.

    Checked twice: once on the orbit polynomials z(t), once on the Cramer
    numerators, i.e. the generating-function components with their common
    denominator det M(t) cleared; the affine row must annihilate z(t).
    """
    zt, ys = z_polynomials(ext), generating_function(ext).numerators
    (affine, z, _), (_, y, _) = _semi_relation(ext, 0, (p.coeffs for p in zt), (p.coeffs for p in ys))
    checks = [(f"(t + 1/t) z(t)_{label} = neighbor sum, both routes", zi and yi)
              for label, zi, yi in zip(ext.labels[1:], z, y)]
    checks.append(("affine row annihilates z(t)", affine))
    return Report(f"mckay observation for {_title(ext)}", tuple(checks))


def crosscheck(bid: BpgId, nterms: int) -> Report:
    """Molien series against component 0 of the paired diagram, two routes."""
    group = enumerate_group(bid)
    did = bid.paired_diagram()
    ext = build(did, extended=True)
    coeffs, worst = _molien_sums(group, nterms)  # a tuple, as is component0
    component0 = component_series(ext, 0, nterms + 1)
    # y_0 / det M ~ 1 / (|G| (1 - t)^2) at t = 1, so with c_k the coefficients of
    # det M: sum c_k = sum k c_k = 0 and sum k^2 c_k = det M''(1) = 2 |G| y_0(1)
    gf = generating_function(ext)
    moments = [sum(k**j * c for k, c in enumerate(gf.det_m.coeffs)) for j in range(3)]
    checks = [
        (f"group order is {bid.order}",
         moments[:2] == [0, 0] and moments[2] == 2 * group.order * gf.numerators[0](1)),
        (f"float deviation below {_TOL:g}", worst < _TOL),
        (f"molien series matches component 0 of {did.text} through degree {nterms}",
         coeffs == component0),
    ]
    if group.contains_minus_identity():
        checks.append(
            ("-I in group forces m0(odd) = 0", all(c == 0 for c in coeffs[1::2]))
        )
    return Report(f"molien crosscheck {bid.text} vs {did.text}", tuple(checks))


def mckay_matrix_numeric(bid: BpgId, nterms: int) -> Report:
    """Report on the Clebsch-Gordan shift B v_n = v_(n-1) + v_(n+1) on the
    paired diagram, with component 0 sourced from the Molien sum rather
    than from Cramer.

    Traces alone cannot rebuild the full multiplicity matrix (that would
    need the irreducible characters), so the report is limited to what the
    invariant series affords: the full shift on Cramer-sourced vectors plus
    the component-0 three-term identity against the Molien series.
    """
    group = enumerate_group(bid)
    did = bid.paired_diagram()
    ext = build(did, extended=True)
    b = ext.bonds
    # m0[k] = m0(k-1): m0(-1) = 0 is the zero representation, as v_(-1) in _three_term
    m0 = [0, *molien_coeffs(group, nterms + 1)]
    v, w, negative, _ = packed_series(ext, nterms + 2)
    if negative is not None:
        raise negative
    bv = _operator(b)(v)
    _, holds = _three_term(bv, v, w, nterms + 2)
    comp0 = _unpack(bv[0], nterms + 2, w)[:-1] == [m0[n] + m0[n + 2] for n in range(nterms + 1)]
    checks = [
        ("B v_0 = v_1", holds[0]),
        (f"B v_n = v_(n-1) + v_(n+1) for n = 1..{nterms}", all(holds[1:-1])),
        ("(B v_n)_0 = m0(n-1) + m0(n+1) with molien-sourced m0", comp0),
    ]
    if bid.family == "cyclic":  # cyclic:1 has no paired diagram
        s = ext.size  # B = P + P^-1 with P the cyclic shift
        circulant = all(
            b[i, j] == ((i - j) % s == 1) + ((j - i) % s == 1)
            for i in range(s)
            for j in range(s)
        )
        checks.append(("B is the 2-regular circulant", circulant))
    return Report(f"mckay shift for {bid.text} via {did.text}", tuple(checks))


def folded_component_report(did: DiagramId, nterms: int) -> Report:
    """Component 0 of a folded diagram against the Molien series of its
    natural subgroup pair (H, G): it must match that of H and differ from
    that of G.  Each label says what the comparison found."""
    ext = build(did, extended=True)
    component0 = list(component_series(ext, 0, nterms + 1))
    lines = []
    for bid, expect in zip(folded_pair(did), (True, False)):
        coeffs = molien_coeffs(enumerate_group(bid), nterms)
        same = coeffs == component0
        verdict = "matches" if same else "differs from"
        lines.append(
            (f"component 0 {verdict} molien series of {bid.text} (degree <= {nterms})",
             same == expect),
        )
    return Report(f"folded molien exploration for {did.text}", tuple(lines))
