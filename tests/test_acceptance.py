"""End-to-end checks of the headline results, one test per claim.

Every comparison is exact except the Molien oracle, whose floating-point
sums carry an asserted < 1e-6 margin before being rounded to integers.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import pkgutil
import random
from pathlib import Path

import pytest

import dynkinlab
import dynkinlab.coxeter as coxeter
import dynkinlab.diagram as diagram
import dynkinlab.molien as molien
from dynkinlab.cli import main
from dynkinlab.coxeter import bicolored_reflections, char_polys, coxeter_number, ebeling_quotient
from dynkinlab.diagram import (
    SIMPLY_LACED,
    DiagramId,
    build,
    catalog_extended,
    catalog_groups,
    finite_part,
    folded_pair,
    nil_root,
)
from dynkinlab.errors import RankError
from dynkinlab.exact import IntMatrix, IntPoly, charpoly
from dynkinlab.kostant import multiplicities
from dynkinlab.mckay import (
    crosscheck,
    kostant_numbers,
    verify_closed_form,
    verify_ebeling,
    verify_kostant_relation,
    verify_observation,
)
from dynkinlab.molien import enumerate_group, molien_coeffs
from dynkinlab.orbit import assembling_vectors, render_orbit_table, render_z_polynomials, render_z_table, z_polynomials
from oracles import cramer_solve, lincomb, parse_poly, zeros

L = IntPoly.monomial(1)
GOLDEN = Path(__file__).parent / "golden"


def _eval_matrix(p: IntPoly, m: IntMatrix) -> IntMatrix:
    """p(m) by Horner's rule."""
    n = m.nrows
    acc = zeros(n, n)
    for c in reversed(p.coeffs):
        acc = lincomb((1, acc @ m), (c, IntMatrix.identity(n)))
    return acc


def test_char_polynomial_table():
    """chi and chi_affine for every family, against the classical factored
    forms, cross-multiplied where the form is a quotient."""
    chi, aff = char_polys(DiagramId("D", 4))
    assert chi == (L + 1) * (L**3 + 1)
    assert aff == (L - 1) ** 2 * (L + 1) ** 3
    for n in range(3, 9):
        chi, aff = char_polys(DiagramId("D", n + 1))
        assert chi == (L + 1) * (L**n + 1)
        assert aff == (L ** (n - 1) - 1) * (L - 1) * (L + 1) ** 2
    chi, aff = char_polys(DiagramId("E6"))
    assert chi * (L**2 + 1) * (L - 1) == (L**6 + 1) * (L**3 - 1)
    assert aff == (L**3 - 1) ** 2 * (L + 1)
    chi, aff = char_polys(DiagramId("E7"))
    assert chi * (L**3 + 1) == (L + 1) * (L**9 + 1)
    assert aff == (L**4 - 1) * (L**3 - 1) * (L + 1)
    chi, aff = char_polys(DiagramId("E8"))
    assert chi * (L**5 + 1) * (L**3 + 1) == (L**15 + 1) * (L + 1)
    assert aff == (L**5 - 1) * (L**3 - 1) * (L + 1)
    for n in range(2, 7):
        chi, aff = char_polys(DiagramId("B", n))
        assert chi == L**n + 1
        assert aff == (L ** (n - 1) - 1) * (L**2 - 1)
        chi, aff = char_polys(DiagramId("C", n))
        assert chi == L**n + 1
        assert aff == (L**n - 1) * (L - 1)
    chi, aff = char_polys(DiagramId("F4"))
    assert chi * (L**2 + 1) == L**6 + 1
    assert aff == (L**2 - 1) * (L**3 - 1)
    chi, aff = char_polys(DiagramId("G2"))
    assert chi * (L + 1) == L**3 + 1
    assert aff == (L - 1) ** 2 * (L + 1)
    for n, k in ((4, 1), (4, 2), (5, 3), (7, 4)):
        chi, aff = char_polys(DiagramId("A", n), k=k)
        assert chi * (L - 1) == L ** (n + 1) - 1
        assert aff == (L ** (n - k + 1) - 1) * (L**k - 1)


def test_poincare_series_determinant_identity():
    """det M_0(t) = chi(t^2) and det M(t) = chi_affine(t^2) across the
    whole extended catalog, folded families included."""
    for ext in catalog_extended():
        rep = verify_ebeling(ext)
        assert rep.passed, rep.render()


def test_closed_form_and_degree_table():
    """The closed form holds on every catalog diagram, the folds with |H|
    of their Molien pair (H, G); the A/D/E numbers are the table's."""
    expected = {
        "E6": (6, 8, 12, 24),
        "E7": (8, 12, 18, 48),
        "E8": (12, 20, 30, 120),
    }
    for ext in catalog_extended():
        did = ext.did
        rep = verify_closed_form(did)
        assert rep.passed, rep.render()
        a, b, h, order = kostant_numbers(did)
        assert a * b == 2 * order and a + b == h + 2
        if did.family not in SIMPLY_LACED:
            assert order == folded_pair(did)[0].order
        elif did.family == "A":
            assert (a, b, h, order) == (2, did.rank + 1, did.rank + 1, did.rank + 1)
        elif did.family == "D":
            n = did.rank - 2
            assert (a, b, h, order) == (4, 2 * n, 2 * n + 2, 4 * n)
        else:
            assert (a, b, h, order) == expected[did.family]


def test_e6_golden_tables():
    d = build(DiagramId("E6"), extended=True)
    table = assembling_vectors(d)
    assert render_orbit_table(table) == (GOLDEN / "e6_orbit_table.txt").read_text()
    assert render_z_table(table) == (GOLDEN / "e6_z_vectors.txt").read_text()
    assert render_z_polynomials(d) == (GOLDEN / "e6_z_polynomials.txt").read_text()


def test_e6_x1_multiplicities():
    ext = build(DiagramId("E6"), extended=True)
    x1 = ext.labels.index("x1")
    series = multiplicities(ext, 21)
    for n in range(21):
        if n in (16, 20):
            want = 2
        elif n in (4, 8, 10, 12, 14, 18):
            want = 1
        else:
            want = 0  # covers {1, 2, 3, 5, 6} and every odd degree
        assert series[n][x1] == want, (n, series[n][x1])


def test_mckay_observation_with_worked_identities():
    for name in ("A3", "A5", "D4", "D5", "D6", "E6", "E7", "E8"):
        rep = verify_observation(build(DiagramId.parse(name), extended=True))
        assert rep.passed, rep.render()

    zt = z_polynomials(build(DiagramId("E6"), extended=True))
    t = IntPoly.monomial(1)
    q = 1 + t**2
    a0, x0, x1, y1, y2, y3 = zt[0], zt[1], zt[2], zt[4], zt[5], zt[6]
    around_x0 = parse_poly("t + 2*t^3 + 3*t^5 + 3*t^7 + 2*t^9 + t^11")
    assert y1 + y2 + y3 == around_x0 and q * x0 == t * around_x0
    around_x1 = parse_poly("t^3 + t^5 + t^7 + t^9")
    assert y1 == around_x1 and q * x1 == t * around_x1
    around_y3 = parse_poly("1 + t^2 + t^4 + 2*t^6 + t^8 + t^10 + t^12")
    assert a0 == parse_poly("1 + t^12")
    assert x0 + a0 == around_y3 and q * y3 == t * around_y3


def test_quotient_coincidences():
    assert ebeling_quotient(DiagramId("D", 4)) == ebeling_quotient(DiagramId("G2"))
    assert ebeling_quotient(DiagramId("E6")) == ebeling_quotient(DiagramId("F4"))
    for n in (4, 5, 6):
        assert ebeling_quotient(DiagramId("D", n + 1)) == ebeling_quotient(DiagramId("B", n))
    for n in (2, 3, 4, 5):
        assert ebeling_quotient(DiagramId("A", 2 * n - 1), k=n) == ebeling_quotient(DiagramId("C", n))


def test_molien_oracle_agreement():
    groups = catalog_groups()
    assert len(groups) == 15
    for bid in groups:
        group = enumerate_group(bid)
        assert group.order == bid.order
        ext = build(bid.paired_diagram(), extended=True)
        component0 = [v[0] for v in multiplicities(ext, 61)]
        assert molien_coeffs(group, 60) == component0
        rep = crosscheck(bid, 60)  # includes the < 1e-6 deviation check
        assert rep.passed, rep.render()


def test_tensor_shift_relation_catalog():
    for ext in catalog_extended():
        rep = verify_kostant_relation(ext, 40)
        assert rep.passed, rep.render()


def test_property_suites():
    rng = random.Random(97)

    # Cayley-Hamilton on random small integer matrices
    for _ in range(25):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        assert _eval_matrix(charpoly(m), m) == zeros(n, n)

    # bicolored reflections square to the identity on every finite diagram
    for ext in catalog_extended():
        d = finite_part(ext)
        pair = bicolored_reflections(d)
        ident = IntMatrix.identity(d.size)
        assert pair.w1 @ pair.w1 == ident
        assert pair.w2 @ pair.w2 == ident

    # nil roots are strictly positive with affine coordinate 1
    for ext in catalog_extended():
        delta = nil_root(ext)
        assert delta[0] == 1
        assert all(c >= 1 for c in delta)

    # series integrality and nonnegativity to degree 59
    for ext in catalog_extended():
        vectors = multiplicities(ext, 60)  # raises on any violation
        assert all(c >= 0 for v in vectors for c in v)

    # determinant by permutation expansion agrees with the pivoting routine
    x = IntPoly.monomial(1)
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = [
            [IntPoly([rng.randint(-2, 2), rng.randint(-2, 2)]) for _ in range(n)]
            for _ in range(n)
        ]
        brute = IntPoly()
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = IntPoly.one() * sign
            for i in range(n):
                term = term * rows[i][perm[i]]
            brute = brute + term
        try:
            det = cramer_solve(rows, [0] * n)[0]
        except RankError:  # the solve reports a singular matrix
            det = IntPoly()
        assert det == brute


def _clear_package_caches() -> None:
    """Empty every cache the package defines, module globals and class
    attributes alike, as a fresh process starts with none."""
    for info in pkgutil.iter_modules(dynkinlab.__path__):
        module = importlib.import_module(f"dynkinlab.{info.name}")
        members = list(vars(module).values())
        members += [getattr(v, "__func__", v) for cls in members
                    if inspect.isclass(cls) and cls.__module__ == module.__name__
                    for v in vars(cls).values()]
        for obj in members:
            if not inspect.isclass(obj) and callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _count_orders(monkeypatch) -> list:
    """Record the matrix of every Coxeter number the package computes."""
    orders, real = [], coxeter._order

    def counted(m, limit):
        orders.append(m)
        return real(m, limit)

    monkeypatch.setattr(coxeter, "_order", counted)
    return orders


def test_verify_all_derives_each_shared_fact_once(capsys, monkeypatch):
    """From cold, one `verify all` solves each nil root, finds each Coxeter
    number, sums each Molien series and finds each prime field once, however
    many checks read it; it also forms each C = w2 w1 and each 2I - K once.
    A warm second run prints the same bytes."""
    _clear_package_caches()
    solved, products = [], []
    real, matmul = diagram.nullspace_primitive, IntMatrix.__matmul__

    def counted(m):
        solved.append(m)
        return real(m)

    def counted_product(a, b):
        products.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(diagram, "nullspace_primitive", counted)
    monkeypatch.setattr(IntMatrix, "__matmul__", counted_product)
    orders = _count_orders(monkeypatch)
    assert main(["verify", "all", "--terms", "40"]) == 0
    cold = capsys.readouterr().out
    # C and its pair depend on (Cartan matrix, bipartition) only: finite_part(ext)
    # and build(did) share one C, and ebeling, orbit and z-recurrence read it
    exts = catalog_extended()
    ade = [build(ext.did) for ext in exts if ext.did.family in SIMPLY_LACED]
    keys = {(d.cartan, d.bipartition) for d in (*map(finite_part, exts), *exts, *ade) if d.bipartition}
    assert len(products) == len(set(products)) == len(keys) == 78
    assert coxeter._bicolored.cache_info().misses == len(keys)
    # 2I - K is read on every extended diagram and on the even-h finite ADE ones
    even = {d.cartan for d in ade if coxeter_number(d) % 2 == 0}
    assert diagram._bonds.cache_info().misses == len({ext.cartan for ext in exts} | even) == 55
    # only the orbit walk reads nil roots, on the 14 even-h A/D/E diagrams;
    # the 18 A/D/E Coxeter numbers are read by the walk, kostant_numbers and
    # the choice of the walk's targets
    walked = {ext.cartan for ext in exts if ext.did.family in SIMPLY_LACED
              and coxeter_number(finite_part(ext)) % 2 == 0}
    assert len(solved) == len(set(solved)) == len(walked) == 14 and set(solved) == walked
    assert len(orders) == len(set(orders)) == len(ade) == 18
    sums, fields = molien._molien_sums.cache_info(), molien._field.cache_info()
    # molien and mckay-shift sum each catalog group to 40 and 41 terms, and
    # molien-folded both groups of each fold's Molien pair to 40
    folded = {bid for ext in catalog_extended() if ext.did.family not in SIMPLY_LACED
              for bid in folded_pair(ext.did)}
    pairs = {(bid, n) for bid in catalog_groups() for n in (40, 41)} | {(bid, 40) for bid in folded}
    assert sums.misses == len(pairs) == 34
    assert fields.misses == len({enumerate_group(bid).level for bid, _ in pairs}) == 3
    assert main(["verify", "all", "--terms", "40"]) == 0
    assert capsys.readouterr().out == cold


@pytest.mark.parametrize("argv", [["verify", "orbit-form", "D16"], ["zpoly", "D24"],
                                  ["verify", "orbit-form", "B16"]])
def test_one_walk_finds_its_coxeter_number_once(capsys, monkeypatch, argv):
    """The walk, Kostant's numbers and the finite part they read agree on
    one F, so a cold single command orders its C once."""
    _clear_package_caches()
    orders = _count_orders(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(orders) == 1
