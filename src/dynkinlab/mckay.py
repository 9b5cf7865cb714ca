"""Where the sides of each identity meet.

Each identity of the paper is computed two ways, by modules that never
read one another's answers: `kostant` solves M(t) x = e0 by Cramer's rule
on the tree (the Cramer side), `coxeter` forms the bicolored Coxeter
transformation C and its characteristic polynomials, `orbit` walks the
highest root by C's factors w1 and w2 up to C's order h, and `molien`
closes the binary polyhedral group and sums its Molien series.  Every
function that compares two sides is here, so no side can compute its
answer from another's; a test pins the package's import graph.
Ebeling's identities set y_0 and det M against chi and chi_affine at
lambda = t^2, the closed and orbit forms set the Cramer components against
(1 + t^h) and z(t) over (1 - t^a)(1 - t^b), and the Molien series meets
component 0 (McKay's correspondence).  Each identity on x(t) is checked on
the numerators y_i with det M cleared, in Z[t].  McKay's relation
B v_n = v_(n-1) + v_(n+1) is checked on packed columns in one place,
`exact._three_term`, for the Cramer series and the assembling vectors
alike.  `Report` is the type of every check's answer.

The semi-affine operator acts on extended coordinates: its finite block is
the adjacency matrix, its affine row is zero, and its affine column keeps
the bond multiplicities of the affine vertex.  With that orientation the
operator sends z_0 = alpha_0 to z_1 and annihilates the affine coordinate
of every image, which is exactly what the three-term recurrence
(t + 1/t) z(t)_i = sum of the neighboring z(t)_j needs at the attachment
vertex, where the neighbor sum picks up z(t)_0 = 1 + t^h.
"""

from __future__ import annotations

from typing import NamedTuple

from .coxeter import bicolored_reflections, coxeter_number, coxeter_transform
from .diagram import (
    SIMPLY_LACED,
    BpgId,
    Diagram,
    DiagramId,
    build,
    finite_part,
    folded_pair,
    mckay_group,
    nil_root,
)
from .errors import CatalogCorruptionError, DomainError, IdentityViolationError, UnsupportedFamilyError
from .exact import IntMatrix, IntPoly, _pack, _three_term, _trusted_matrix, _unpack, _width, charpoly
from .kostant import component_series, generating_function, packed_series
from .molien import _molien_sums, enumerate_group, molien_coeffs
from .orbit import assembling_vectors, z_polynomials

T = IntPoly.monomial(1)
T2 = IntPoly.monomial(2)

_TOL = 1e-6


class Report(NamedTuple):
    """A verification report: a name and its labelled pass/fail checks."""

    name: str
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def lines(self) -> list[str]:
        out = [f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"]
        out += [f"  {'PASS' if ok else 'FAIL'}  {label}" for label, ok in self.checks]
        return out

    def render(self) -> str:
        return "\n".join(self.lines())


def kostant_numbers(did: DiagramId) -> tuple[int, int, int, int]:
    """(a, b, h, |G|) for a finite ADE diagram, with a*b = 2|G| certified
    against the order of its McKay group.

    a is twice the largest nil root coordinate, h the Coxeter number and
    b = h + 2 - a.
    """
    if did.family not in SIMPLY_LACED:
        raise UnsupportedFamilyError("Kostant numbers are defined for ADE families")
    a = 2 * max(nil_root(build(did, extended=True)))
    h = coxeter_number(build(did))
    b = h + 2 - a
    order = mckay_group(did).order
    if a * b != 2 * order:
        raise CatalogCorruptionError(f"a*b = {a * b} but 2|G| = {2 * order}")
    return a, b, h, order


def closed_form_component0(did: DiagramId) -> tuple[IntPoly, IntPoly]:
    """(1 + t^h, (1 - t^a)(1 - t^b)): numerator and denominator of component
    0 for a finite ADE diagram, unreduced."""
    a, b, h, _ = kostant_numbers(did)
    return 1 + IntPoly.monomial(h), (1 - IntPoly.monomial(a)) * (1 - IntPoly.monomial(b))


def verify_kostant_relation(diagram: Diagram, nterms: int = 40) -> Report:
    """B v_n = v_{n-1} + v_{n+1} for 1 <= n < nterms, plus the closed
    rational-function identity t B x = (1 + t^2) x - e0."""
    name = f"kostant relation for {diagram.name}"
    b = diagram.bonds
    try:
        v, w = packed_series(diagram, nterms + 1)
    except IdentityViolationError as exc:
        return Report(name, ((f"series expansion: {exc}", False),))
    rec_ok = all(_three_term(b.mulvec(v), v, w, nterms + 1)[1:-1])
    # x = y / det M: clear det M, compare in Z[t] at t = 2^w (injective there)
    gf = generating_function(diagram)
    *y, det_m = _pack((p.coeffs for p in (*gf.numerators, gf.det_m)), w)
    func_ok = all(by << w == (yi << 2 * w) + yi - (i == 0) * det_m
                  for i, (by, yi) in enumerate(zip(b.mulvec(y), y)))
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
                       gf.det_m == (IntPoly.monomial(m) - 1) ** 2))
    return Report(f"ebeling identities for {diagram.name}", tuple(checks))


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


def verify_kostant_form(diagram: Diagram) -> Report:
    """Orbit route against the Cramer route, component by component, as
    det M_i (1 - t^a)(1 - t^b) = z(t)_i det M."""
    a, b, _, _ = kostant_numbers(diagram.did)
    zt = z_polynomials(diagram)
    den = (1 - IntPoly.monomial(a)) * (1 - IntPoly.monomial(b))
    ext = build(diagram.did, extended=True)
    gf = generating_function(ext)
    checks = tuple(
        (
            f"[P]_{ext.labels[i]} = z(t)_{ext.labels[i]} / ((1 - t^{a})(1 - t^{b}))",
            gf.numerators[i] * den == zt[i] * gf.det_m,
        )
        for i in range(ext.size)
    )
    return Report(f"kostant form via orbit for {diagram.did.text}", checks)


def semi_affine(diagram: Diagram) -> IntMatrix:
    """The McKay operator of the extension with the affine row zeroed out.

    Acts on extended coordinates: finite block = adjacency, affine column =
    bonds of the affine vertex, affine row = 0.
    """
    if diagram.extended or diagram.did is None:
        raise UnsupportedFamilyError("semi-affine operator extends a finite diagram")
    rows = build(diagram.did, extended=True).bonds.rows
    return _trusted_matrix(((0,) * len(rows),) + rows[1:])


def verify_z_recurrence(diagram: Diagram) -> Report:
    """Three-term recurrences of the assembling vectors, plus the two
    matrix identities that splice the orbit walk into the adjacency action."""
    table = assembling_vectors(diagram)
    h = table.h
    a_fin = diagram.bonds
    a_semi = semi_affine(diagram)
    z = table.z

    rows = [zn[1:] for zn in z[1:h]]  # the finite parts of z_0 and z_h are 0
    w = _width(max(*map(sum, a_fin.rows), 2) * max(map(max, rows)))
    columns = _pack(zip(*rows), w)
    holds = _three_term(a_fin.mulvec(columns), columns, w, h - 1)
    first, interior, last = holds[0], all(holds[1:-1]), holds[-1]
    bottom = a_semi.mulvec(z[0]) == z[1]
    top = a_semi.mulvec(z[h]) == z[h - 1]

    pair = bicolored_reflections(diagram)
    c = coxeter_transform(diagram)
    ident = IntMatrix.identity(diagram.size)
    block1 = a_fin @ (ident - pair.w2) @ pair.w1 == (ident - pair.w1) @ (ident + c)
    block2 = a_fin @ (ident - pair.w1) @ c == (ident - pair.w2) @ pair.w1 @ (ident + c)

    return Report(
        f"assembling recurrences for {diagram.did.text}",
        (
            (f"A z_n = z_(n-1) + z_(n+1) for 1 < n < {h - 1}", interior),
            ("A z_1 = z_2", first),
            (f"A z_{h - 1} = z_{h - 2}", last),
            ("A^semi z_0 = z_1", bottom),
            (f"A^semi z_{h} = z_{h - 1}", top),
            ("A (1 - w2) w1 = (1 - w1)(1 + C)", block1),
            ("A (1 - w1) C = (1 - w2) w1 (1 + C)", block2),
        ),
    )


def verify_observation(diagram: Diagram) -> Report:
    """(t + 1/t) z(t)_i = neighbor sum of z(t), for every finite vertex.

    Checked twice: once on the orbit polynomials z(t), once on the Cramer
    numerators, i.e. the generating-function components with their common
    denominator det M(t) cleared; the affine row must annihilate z(t).
    """
    a_semi = semi_affine(diagram)
    zt = z_polynomials(diagram)
    ext = build(diagram.did, extended=True)
    y = generating_function(ext).numerators
    q = 1 + T2
    neighbor_z = a_semi.mulvec(zt)
    neighbor_y = a_semi.mulvec(y)
    checks = [
        (f"(t + 1/t) z(t)_{ext.labels[i]} = neighbor sum, both routes",
         q * zt[i] == T * neighbor_z[i] and q * y[i] == T * neighbor_y[i])
        for i in range(1, ext.size)
    ]
    checks.append(("affine row annihilates z(t)", neighbor_z[0].is_zero()))
    return Report(f"mckay observation for {diagram.did.text}", tuple(checks))


def crosscheck(bid: BpgId, nterms: int = 60) -> Report:
    """Molien series against component 0 of the paired diagram, two routes."""
    group = enumerate_group(bid)
    did = bid.paired_diagram()
    ext = build(did, extended=True)
    coeffs, worst = _molien_sums(group, nterms)  # a tuple, as is component0
    component0 = component_series(ext, 0, nterms + 1)
    checks = [
        (f"group order is {bid.order}", group.order == bid.order),
        (f"float deviation below {_TOL:g}", worst < _TOL),
        (f"molien series matches component 0 of {did.text} through degree {nterms}",
         coeffs == component0),
    ]
    if group.contains_minus_identity():
        checks.append(
            ("-I in group forces m0(odd) = 0", all(c == 0 for c in coeffs[1::2]))
        )
    return Report(f"molien crosscheck {bid.text} vs {did.text}", tuple(checks))


def mckay_matrix_numeric(bid: BpgId, nterms: int = 40) -> Report:
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
    v, w = packed_series(ext, nterms + 2)
    bv = b.mulvec(v)
    holds = _three_term(bv, v, w, nterms + 2)[:-1]
    comp0 = _unpack(bv[0], nterms + 2, w)[:-1] == [m0[n] + m0[n + 2] for n in range(nterms + 1)]
    checks = [
        ("B v_0 = v_1", holds[0]),
        (f"B v_n = v_(n-1) + v_(n+1) for n = 1..{nterms}", all(holds[1:])),
        ("(B v_n)_0 = m0(n-1) + m0(n+1) with molien-sourced m0", comp0),
    ]
    if bid.family == "cyclic" and bid.n >= 2:
        s = ext.size  # B = P + P^-1 with P the cyclic shift
        circulant = all(
            b[i, j] == ((i - j) % s == 1) + ((j - i) % s == 1)
            for i in range(s)
            for j in range(s)
        )
        checks.append(("B is the 2-regular circulant", circulant))
    return Report(f"mckay shift for {bid.text} via {did.text}", tuple(checks))


def folded_component_report(did: DiagramId, nterms: int = 24) -> Report:
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
