"""Adjacency action on the assembling vectors, and the packed comparisons
of `mckay` against the IntPoly and IntMatrix products of
`oracles.product_route`."""

import pytest

import dynkinlab.exact as exact
import dynkinlab.kostant as kostant
import dynkinlab.mckay as mckay
from dynkinlab.coxeter import coxeter_number
from dynkinlab.cli import main
from dynkinlab.diagram import SIMPLY_LACED, BpgId, DiagramId, build, catalog_extended, finite_part
from dynkinlab.errors import DomainError, ExcludedDiagramError
from dynkinlab.exact import IntMatrix, IntPoly, _decode, _trusted_matrix
from dynkinlab.kostant import generating_function
from dynkinlab.mckay import (
    semi_affine,
    verify_closed_form,
    verify_ebeling,
    verify_kostant_form,
    verify_kostant_relation,
    verify_observation,
    verify_z_recurrence,
)
from dynkinlab.orbit import assembling_vectors, z_polynomials
from oracles import HYPERBOLIC, dense_neighbors, identity, lincomb, parse_poly, product_route, star_tree


def fin(name: str):
    return build(DiagramId.parse(name))


def ext(name: str):
    return build(DiagramId.parse(name), extended=True)


FOLDS = [e.did.text for e in catalog_extended() if e.did.family not in SIMPLY_LACED]


def test_adjacency_frozen():
    assert fin("A2").bonds.rows == ((0, 1), (1, 0))
    # d1 - d2 < (f1, f2)
    assert fin("D4").bonds.rows == (
        (0, 1, 0, 0),
        (1, 0, 1, 1),
        (0, 1, 0, 0),
        (0, 1, 0, 0),
    )
    # x0, x1, x2, y1, y2, y3 with bonds x0-y1, x0-y2, x0-y3, x1-y1, x2-y2
    assert fin("E6").bonds.rows == (
        (0, 0, 0, 1, 1, 1),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (1, 1, 0, 0, 0, 0),
        (1, 0, 1, 0, 0, 0),
        (1, 0, 0, 0, 0, 0),
    )


def test_adjacency_matches_neighbor_lists():
    for ext in catalog_extended():
        if ext.did.family not in ("A", "D", "E6", "E7", "E8"):
            continue
        d = finite_part(ext)
        a = d.bonds
        for i in range(d.size):
            for j in range(d.size):
                assert a[i, j] == (1 if j in dense_neighbors(d.cartan.rows, i) else 0)


def test_recurrence_checks_refuse_only_odd_h():
    """B3 and G2 pass; odd h is refused by the walk, and so is a finite
    diagram, which has no affine vertex to start from."""
    for check in (verify_z_recurrence, verify_observation):
        for name in ("B3", "G2"):
            assert check(ext(name)).passed, (check.__name__, name)
        for diagram, error in ((ext("A2"), ExcludedDiagramError), (fin("A3"), DomainError)):
            with pytest.raises(error) as refused:
                check(diagram)
            assert type(refused.value) is error, (check.__name__, diagram.name)


def test_semi_affine_frozen():
    # extension of A3 is a 4-cycle: two unit entries in the affine column
    assert semi_affine(ext("A3")).rows == (
        (0, 0, 0, 0),
        (1, 0, 1, 0),
        (0, 1, 0, 1),
        (1, 0, 1, 0),
    )
    # A1 extension carries a double bond
    assert semi_affine(ext("A1")).rows == ((0, 0), (2, 0))
    m = semi_affine(ext("E6"))
    assert m.rows[0] == (0,) * 7
    assert tuple(m[i, 0] for i in range(7)) == (0, 0, 0, 0, 0, 0, 1)  # y3 only


def test_semi_affine_blocks():
    """Finite block is the adjacency matrix; the affine column marks u0."""
    for name in ("A5", "D6", "E7"):
        d = fin(name)
        m = semi_affine(ext(name))
        a = d.bonds
        assert (m.nrows, m.ncols) == (d.size + 1, d.size + 1)
        assert all(m[i + 1, j + 1] == a[i, j] for i in range(d.size) for j in range(d.size))
        marked = tuple(i for i in range(1, d.size + 1) if m[i, 0])
        assert marked == tuple(v + 1 for v in d.u0)


def test_z_recurrence_reports_pass():
    for name in ("A3", "A5", "D4", "D5", "D6", "E6", "E7", "E8", *FOLDS):
        rep = verify_z_recurrence(ext(name))
        assert rep.passed, rep.render()


_INTERIOR = "A z_n = z_(n-1) + z_(n+1) for 1 < n < 11"


def _failed_with_z_off_by_one(monkeypatch, n: int, i: int) -> set[str]:
    """The lines of E6's z-recurrence that FAIL with entry i of z_n off by one."""
    d = ext("E6")
    table = assembling_vectors(d)
    z = [list(zn) for zn in table.z]
    z[n][i] += 1
    broken = table._replace(z=tuple(map(tuple, z)))
    monkeypatch.setattr(mckay, "assembling_vectors", lambda g: broken)
    return {label for label, ok in verify_z_recurrence(d).checks if not ok}


@pytest.mark.parametrize("n, failed", [
    (1, {"A z_1 = z_2", _INTERIOR, "A^semi z_0 = z_1"}),
    (3, {_INTERIOR}),
    (11, {_INTERIOR, "A z_11 = z_10", "A^semi z_12 = z_11"}),
    (12, {"A z_11 = z_10", "A^semi z_12 = z_11"}),  # z_h is read by degree h - 1 as by degree h
])
def test_z_recurrence_lines_fail_alone(monkeypatch, n, failed):
    """E6 with the x0 entry of z_n off by one: exactly the lines whose
    degree reads z_n fail."""
    assert _failed_with_z_off_by_one(monkeypatch, n, 1) == failed


def test_z_recurrence_reads_the_affine_entries_at_the_attachment_vertex(monkeypatch):
    """The affine entry of z_n, 0 < n < h, enters the recurrence through
    A^semi's affine column, at the vertex the affine vertex attaches to: off
    by one, it fails the line of degree n."""
    assert _failed_with_z_off_by_one(monkeypatch, 1, 0) == {"A z_1 = z_2"}
    assert _failed_with_z_off_by_one(monkeypatch, 5, 0) == {_INTERIOR}
    assert _failed_with_z_off_by_one(monkeypatch, 11, 0) == {"A z_11 = z_10"}


def test_z_recurrence_rejects_odd_coxeter_number():
    with pytest.raises(ExcludedDiagramError):
        verify_z_recurrence(ext("A2"))


def test_observation_reports_pass():
    for name in ("A3", "A5", "D4", "D5", "D6", "E6", "E7", "E8", *FOLDS):
        rep = verify_observation(ext(name))
        assert rep.passed, rep.render()


@pytest.mark.parametrize("name", FOLDS)
def test_observation_reads_the_rows_of_b(monkeypatch, capsys, name):
    """McKay's observation holds with the rows of B = 2I - K, the paper's
    i <- j; with the rows of B^T it fails on every fold, whose B is not
    symmetric, so the orientation is pinned."""
    def transposed(e):
        rows = tuple(zip(*e.bonds.rows))
        return _trusted_matrix(((0,) * len(rows),) + rows[1:])

    monkeypatch.setattr(mckay, "semi_affine", transposed)
    assert main(["verify", "mckay-observation", name]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_observation_worked_values():
    """Neighbor sums at x0, x1 and y3 of E6, written out term by term."""
    zt = z_polynomials(ext("E6"))
    t = IntPoly.monomial(1)
    q = 1 + t**2
    # indices in extended order: a0 x0 x1 x2 y1 y2 y3
    a0, x0, x1, y1, y2, y3 = zt[0], zt[1], zt[2], zt[4], zt[5], zt[6]

    around_x0 = parse_poly("t + 2*t^3 + 3*t^5 + 3*t^7 + 2*t^9 + t^11")
    assert y1 + y2 + y3 == around_x0
    assert q * x0 == t * around_x0

    around_x1 = parse_poly("t^3 + t^5 + t^7 + t^9")
    assert y1 == around_x1
    assert q * x1 == t * around_x1

    # the affine term 1 + t^12 enters at the attachment vertex
    assert a0 == parse_poly("1 + t^12")
    around_y3 = parse_poly("1 + t^2 + t^4 + 2*t^6 + t^8 + t^10 + t^12")
    assert x0 + a0 == around_y3
    assert q * y3 == t * around_y3


def test_semi_affine_equals_two_i_minus_cartan_inside():
    d = fin("D5")
    inner = lincomb((2, identity(d.size)), (-1, d.cartan))
    assert d.bonds == inner


# each check's packed route, its lines in the order `product_route` gives them
PACKED = {
    "closed-form": lambda did: verify_closed_form(did).checks,
    "orbit-form": lambda d: verify_kostant_form(d).checks,
    "mckay-observation": lambda d: verify_observation(d).checks,
    "blocks": lambda d: verify_z_recurrence(d).checks[-2:],
}


def _cases():
    """closed-form on the 41 catalog diagrams, the other three on the 37 of
    even Coxeter number, and all four on D32, A31 and D128."""
    dids = [e.did for e in catalog_extended()]
    for did in dids + [DiagramId.parse(t) for t in ("D32", "A31", "D128")]:
        yield "closed-form", did
        e = build(did, extended=True)
        if coxeter_number(finite_part(e)) % 2 == 0:
            yield from ((check, e) for check in ("orbit-form", "mckay-observation", "blocks"))


def _bump(polys, i):
    return tuple(p + IntPoly.monomial(3) if j == i else p for j, p in enumerate(polys))


def _largest(side) -> int:
    entries = side.coeffs if isinstance(side, IntPoly) else [v for row in side.rows for v in row]
    return max(map(abs, entries), default=0)


@pytest.mark.parametrize("perturb", [None, ("C", 0), ("C", -1), ("z", 1), ("y", 0), ("y", 1)],
                         ids=["as-built", "C_00", "C_last", "z_1", "y_0", "y_1"])
def test_packed_comparisons_agree_with_the_product_route(monkeypatch, perturb):
    """Every line of the four checks reads the same boolean packed as through
    IntPoly and IntMatrix products, with every side as built or with one
    side off where `mckay` reads it: entry (i, i) of C by one (i = -1 the
    last), or z(t)_i or the Cramer numerator y_i by t^3.  The width w each
    comparison chooses, by `mckay._width` or inside `exact._agree`, holds
    both sides, so also their difference, below 2^(w-1)."""
    kind, i = perturb or (None, None)
    if kind == "C":
        real_c = mckay.coxeter_transform

        def off_by_one(d):
            rows = [list(row) for row in real_c(d).rows]
            rows[i][i] += 1
            return IntMatrix(rows)

        monkeypatch.setattr(mckay, "coxeter_transform", off_by_one)
    elif kind == "z":
        real_z = mckay.z_polynomials
        monkeypatch.setattr(mckay, "z_polynomials", lambda d: _bump(real_z(d), i))
    elif kind == "y":
        real_gf = mckay.generating_function
        monkeypatch.setattr(mckay, "generating_function",
                            lambda d: real_gf(d)._replace(numerators=_bump(real_gf(d).numerators, i)))
    widths = []
    for module in (mckay, exact):
        monkeypatch.setattr(module, "_width",
                            lambda bound, real=module._width: widths.append(real(bound)) or widths[-1])
    flipped = 0
    for check, target in _cases():
        widths.clear()
        packed = [ok for _, ok in PACKED[check](target)]
        # the observation sizes its z route last but one and its y route last, the order of
        # each line's pairs; every other check sizes its compared sides last, z-recurrence its blocks
        ws = widths[-2:] if check == "mckay-observation" else widths[-1:]
        lines = product_route(check, target)
        assert packed == [all(lhs == rhs for lhs, rhs in pairs) for pairs in lines], (check, target)
        for lhs, rhs, w in ((*pair, w) for pairs in lines for pair, w in zip(pairs, ws)):
            diff = lhs - rhs if isinstance(lhs, IntPoly) else lincomb((1, lhs), (-1, rhs))
            assert _largest(diff) <= _largest(lhs) + _largest(rhs) < 1 << (w - 1), (check, target)
        flipped += not all(packed)
    assert (flipped > 0) == (kind is not None)


# Every width bound held at its edge.  At t = 2^8 a side can be swapped for
# one of equal value there and other coefficients: 3 p against the 8-bit
# digits of p(2^8) / 3 where p(1) = 0 (as 2^8 = 1 mod 3), or the digits of
# q(2^8) p(2^8), which differ from q p once q p overflows a slot.  The true
# difference of the two sides is then (2^8 - t) times a nonzero factor: the
# packed comparison FAILs at the width its bound gives, 16 bits, and PASSes
# with that width cut by a byte, as it would under a bound that gave 8.

X = 1 << 8


def _digits(x: int) -> IntPoly:
    """The polynomial in slots of 8 bits whose value at 2^8 is x."""
    return _decode(x, 8)


def _real_and_cut(monkeypatch, module, run):
    """(the labels run() FAILs, the widths module._width gives it, the labels
    it FAILs with each of those widths cut by a byte, to no less than 8)."""
    real, widths, failed = module._width, [], []
    for width in (lambda bound: widths.append(real(bound)) or widths[-1],
                  lambda bound: max(8, real(bound) - 8)):
        with monkeypatch.context() as m:
            m.setattr(module, "_width", width)
            failed.append({label for label, ok in run().checks if not ok})
    return failed[0], widths, failed[1]


def _patch_gf(monkeypatch, module, ext, **fields):
    real = module.generating_function
    gf = real(ext)._replace(**fields)
    monkeypatch.setattr(module, "generating_function", lambda g: gf if g == ext else real(g))


@pytest.mark.parametrize("side", ["cramer", "closed"])
def test_closed_form_width_at_its_edge(monkeypatch, side):
    """3 y_0 against den / 3, or 3 (1 + t^h) against det M / 3, at t = 2^8:
    each term of the bound in its turn the one the width needs."""
    did, ext = DiagramId("E6"), build(DiagramId("E6"), extended=True)
    num, den = mckay.closed_form_component0(did)
    (y0, *ys), det_m = generating_function(ext)
    if side == "cramer":
        _patch_gf(monkeypatch, mckay, ext, numerators=(3 * y0, *ys))
        monkeypatch.setattr(mckay, "closed_form_component0", lambda d: (num, _digits(den(X) // 3)))
    else:
        _patch_gf(monkeypatch, mckay, ext, det_m=_digits(det_m(X) // 3))
        monkeypatch.setattr(mckay, "closed_form_component0", lambda d: (3 * num, den))
    assert _real_and_cut(monkeypatch, exact, lambda: verify_closed_form(did)) == (
        {"[P]_0 = (1 + t^h)/((1 - t^a)(1 - t^b)) for E6"}, [16], set())


def test_orbit_form_width_at_its_edge(monkeypatch):
    """3 z(t) against det M / 3 at t = 2^8: every vertex's line."""
    d = ext("E6")
    zt = z_polynomials(d)
    _patch_gf(monkeypatch, mckay, d, det_m=_digits(generating_function(d).det_m(X) // 3))
    monkeypatch.setattr(mckay, "z_polynomials", lambda g: tuple(3 * p for p in zt))
    labels = {label for label, _ in verify_kostant_form(d).checks}
    assert _real_and_cut(monkeypatch, exact, lambda: verify_kostant_form(d)) == (labels, [16], set())


@pytest.mark.parametrize("route", ["z", "y"])
def test_observation_width_at_its_edge(monkeypatch, route):
    """The digits of 100 p(2^8) for every z(t)_i, or every Cramer numerator:
    each route sizes its own width, and only the perturbed one needs 16."""
    d = ext("E6")
    if route == "z":
        zt = z_polynomials(d)
        monkeypatch.setattr(mckay, "z_polynomials", lambda g: tuple(_digits(100 * p(X)) for p in zt))
    else:
        ys = generating_function(d).numerators
        _patch_gf(monkeypatch, mckay, d, numerators=tuple(_digits(100 * p(X)) for p in ys))
    failed, widths, cut = _real_and_cut(monkeypatch, mckay, lambda: verify_observation(d))
    assert failed and widths == {"z": [16, 8], "y": [8, 16]}[route] and cut == set()


def test_z_recurrence_column_width_at_its_edge(monkeypatch):
    """Every column z(t)_i of the z table replaced by the digits of 100
    z(t)_i(2^8): at 2^8 the packed comparison reads 100 times what it reads
    unperturbed, so with the width cut to 8 every recurrence line, the ends
    included, PASSes; at the width the bound gives, 16, the degrees whose
    slots carried FAIL.  E6, A3 and C3 between them reach all five lines."""
    cases = {
        "E6": {"A z_n = z_(n-1) + z_(n+1) for 1 < n < 11"},
        "A3": {"A z_n = z_(n-1) + z_(n+1) for 1 < n < 3", "A z_1 = z_2", "A z_3 = z_2", "A^semi z_4 = z_3"},
        # the affine vertex bonds twice, so z_1 holds a 2: 100 times it carries where 100 z_0 does not
        "C3": {"A z_1 = z_2", "A^semi z_0 = z_1", "A^semi z_6 = z_5"},
    }
    for name, failed in cases.items():
        d = ext(name)
        table = assembling_vectors(d)
        columns = [_digits(100 * p(X)) for p in z_polynomials(d)]
        z = tuple(tuple(c.coeff(k) for c in columns) for k in range(max(len(c.coeffs) for c in columns)))
        with monkeypatch.context() as m:
            m.setattr(mckay, "assembling_vectors", lambda g: table._replace(z=z))
            got, widths, cut = _real_and_cut(m, mckay, lambda: verify_z_recurrence(d))
        assert got == failed and widths[0] == 16 and cut == set(), name  # widths[1] sizes the blocks


def test_block_width_at_its_edge(monkeypatch):
    """Row 0 of C plus (2^8, -1, 0, ..., 0), which packs to the same row at
    2^8: both block identities."""
    d = ext("E6")
    rows = [list(row) for row in mckay.coxeter_transform(finite_part(d)).rows]
    rows[0][0] += X
    rows[0][1] -= 1
    monkeypatch.setattr(mckay, "coxeter_transform", lambda g: IntMatrix(rows))
    blocks = {"A (1 - w2) w1 = (1 - w1)(1 + C)", "A (1 - w1) C = (1 - w2) w1 (1 + C)"}
    assert _real_and_cut(monkeypatch, mckay, lambda: verify_z_recurrence(d)) == (blocks, [8, 16], set())


def test_packed_series_width_at_its_edge(monkeypatch):
    """Every y_i and det M replaced by the digits of q(2^8) times its value
    at 2^8, q = 1 + 100 t^8: below t^8 they keep their coefficients, so the
    series lines read the true v_0..v_6, and only the Z[t] line, at the
    width `packed_series` gives, can tell."""
    ext = build(DiagramId("E6"), extended=True)
    gf, q = generating_function(ext), (1 + 100 * IntPoly.monomial(8))(X)
    fields = {"numerators": tuple(_digits(q * p(X)) for p in gf.numerators), "det_m": _digits(q * gf.det_m(X))}
    _patch_gf(monkeypatch, mckay, ext, **fields)
    _patch_gf(monkeypatch, kostant, ext, **fields)
    assert _real_and_cut(monkeypatch, kostant, lambda: verify_kostant_relation(ext, 6)) == (
        {"t B x = (1 + t^2) x - e0"}, [16], set())


@pytest.mark.parametrize("pqr", [*HYPERBOLIC, (3, 3, 3)], ids=lambda pqr: "T_{%d,%d,%d}" % pqr)
def test_general_checks_pass_on_the_wild_tree_controls(pqr):
    """Ebeling's two determinant lines hold for the bicolored C of every
    bipartite graph, det((1 + t^2) I - t B) = chi_C(t^2) (A'Campo, Invent.
    Math. 33, 1976), and the Kostant relation is Cramer's rule restated: both
    checks are general, so they PASS on hyperbolic trees, which have no McKay
    group, as on the affine T_{3,3,3}."""
    tree = star_tree(*pqr)
    for report in (verify_ebeling(tree), verify_kostant_relation(tree, 200)):
        assert report.passed, report.render()


# ways to move a side of Ebeling's identities off q(t^2): an odd coefficient
# inside the degree or just above it, or an even one off by one, inside or
# above the top
_OFF_T2 = {
    "odd": lambda p: p + IntPoly.monomial(3),
    "odd above the top": lambda p: p + IntPoly.monomial(p.degree + 1),
    "even off by one": lambda p: p + IntPoly.monomial(2),
    "even above the top": lambda p: p + IntPoly.monomial(p.degree + 2),
}


@pytest.mark.parametrize("way", list(_OFF_T2))
@pytest.mark.parametrize("name, side, line", [
    ("E6", "numerators", "det M_0(t) = chi(t^2)"),
    ("E6", "det_m", "det M(t) = chi_affine(t^2)"),
    ("A4", "det_m", "det M(t) = (t^5 - 1)^2 on the 5-cycle"),
])
def test_ebeling_lines_fail_alone(monkeypatch, name, side, line, way):
    """A Cramer side moved off chi(t^2), or off the cycle form, FAILs its
    own line and no other."""
    d = ext(name)
    gf = generating_function(d)
    assert gf.numerators[0].degree % 2 == gf.det_m.degree % 2 == 0
    off = _OFF_T2[way]
    if side == "numerators":
        _patch_gf(monkeypatch, mckay, d, numerators=(off(gf.numerators[0]), *gf.numerators[1:]))
    else:
        _patch_gf(monkeypatch, mckay, d, det_m=off(gf.det_m))
    assert {label for label, ok in verify_ebeling(d).checks if not ok} == {line}


_CONTROLS = [*HYPERBOLIC, (3, 3, 3)]


def _tree_id(pqr) -> str:
    return "T_{%d,%d,%d}" % pqr


def _refused_as_hyperbolic(check, pqr) -> bool:
    """On a hyperbolic tree the finite part is affine, so the walk refuses it
    for that reason; T_{3,3,3}, extended E6 in another order, walks."""
    if pqr not in HYPERBOLIC:
        return False
    with pytest.raises(DomainError, match="diagram is not finite type"):
        check(star_tree(*pqr))
    return True


@pytest.mark.parametrize("pqr", _CONTROLS, ids=_tree_id)
def test_z_recurrence_on_the_wild_tree_controls(pqr):
    """A paper check: refused where the walk has no finite type to walk,
    and every line PASSes on T_{3,3,3}, named by the tree's own name."""
    if not _refused_as_hyperbolic(verify_z_recurrence, pqr):
        tree = star_tree(*pqr)
        report = verify_z_recurrence(tree)
        assert report.passed and report.name == f"assembling recurrences for {tree.name}", report.render()


@pytest.mark.parametrize("pqr", _CONTROLS, ids=_tree_id)
def test_observation_on_the_wild_tree_controls(pqr):
    """A paper check: refused where the walk has no finite type to walk,
    and both routes PASS on T_{3,3,3}, named by the tree's own name."""
    if not _refused_as_hyperbolic(verify_observation, pqr):
        tree = star_tree(*pqr)
        report = verify_observation(tree)
        assert report.passed and report.name == f"mckay observation for {tree.name}", report.render()


@pytest.mark.parametrize("pqr", _CONTROLS, ids=_tree_id)
def test_kostant_form_on_the_wild_tree_controls(pqr):
    """A paper check: refused where the walk has no finite type to walk;
    on T_{3,3,3} the walk succeeds and the check refuses for want of the
    Molien group whose order gives Kostant's numbers a and b."""
    if not _refused_as_hyperbolic(verify_kostant_form, pqr):
        with pytest.raises(DomainError, match="no catalog id: no Molien group H gives"):
            verify_kostant_form(star_tree(*pqr))


def test_affine_control_is_extended_e6():
    """T_{3,3,3} with its affine vertex at the end of an arm is extended E6
    in another vertex order: the same det M and component 0."""
    tree, e6 = generating_function(star_tree(3, 3, 3)), generating_function(build(DiagramId("E6"), extended=True))
    assert tree.det_m == e6.det_m and tree.numerators[0] == e6.numerators[0]


def test_the_first_call_refuses_what_no_guard_checks():
    """verify_ebeling leaves a finite diagram to generating_function, and
    mckay_matrix_numeric leaves cyclic:1 to paired_diagram, before its
    circulant line reads n: each raises DomainError."""
    with pytest.raises(DomainError, match="live on the extended diagram"):
        verify_ebeling(build(DiagramId("E6")))
    with pytest.raises(DomainError, match="cyclic:1 has no paired diagram"):
        mckay.mckay_matrix_numeric(BpgId("cyclic", 1), 2)
