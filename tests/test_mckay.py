"""Adjacency action on the assembling vectors."""

import pytest

import dynkinlab.mckay as mckay
from dynkinlab.diagram import DiagramId, build, catalog_extended, finite_part
from dynkinlab.errors import DomainError, ExcludedDiagramError, UnsupportedFamilyError
from dynkinlab.exact import IntMatrix, IntPoly
from dynkinlab.mckay import semi_affine, verify_observation, verify_z_recurrence
from dynkinlab.orbit import assembling_vectors, z_polynomials
from oracles import parse_poly


def fin(name: str):
    return build(DiagramId.parse(name))


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
                assert a[i, j] == (1 if j in d.neighbors(i) else 0)


def test_recurrence_checks_refuse_outside_finite_ade():
    """Each check raises the error of the first guard it meets: the walk's,
    or on an extended diagram the semi-affine operator's."""
    for check, name, extended, error in (
        (verify_z_recurrence, "B3", False, UnsupportedFamilyError),
        (verify_z_recurrence, "G2", False, UnsupportedFamilyError),
        (verify_z_recurrence, "A3", True, DomainError),
        (verify_observation, "B3", False, UnsupportedFamilyError),
        (verify_observation, "G2", False, UnsupportedFamilyError),
        (verify_observation, "A3", True, UnsupportedFamilyError),
    ):
        with pytest.raises(error) as refused:
            check(build(DiagramId.parse(name), extended=extended))
        assert type(refused.value) is error, (check.__name__, name)


def test_semi_affine_frozen():
    # extension of A3 is a 4-cycle: two unit entries in the affine column
    assert semi_affine(fin("A3")).rows == (
        (0, 0, 0, 0),
        (1, 0, 1, 0),
        (0, 1, 0, 1),
        (1, 0, 1, 0),
    )
    # A1 extension carries a double bond
    assert semi_affine(fin("A1")).rows == ((0, 0), (2, 0))
    m = semi_affine(fin("E6"))
    assert m.rows[0] == (0,) * 7
    assert tuple(m[i, 0] for i in range(7)) == (0, 0, 0, 0, 0, 0, 1)  # y3 only


def test_semi_affine_blocks():
    """Finite block is the adjacency matrix; the affine column marks u0."""
    for name in ("A5", "D6", "E7"):
        d = fin(name)
        m = semi_affine(d)
        a = d.bonds
        assert m.shape == (d.size + 1, d.size + 1)
        assert all(m[i + 1, j + 1] == a[i, j] for i in range(d.size) for j in range(d.size))
        marked = tuple(i for i in range(1, d.size + 1) if m[i, 0])
        assert marked == tuple(v + 1 for v in d.u0)


def test_z_recurrence_reports_pass():
    for name in ("A3", "A5", "D4", "D5", "D6", "E6", "E7", "E8"):
        rep = verify_z_recurrence(fin(name))
        assert rep.passed, rep.render()


_INTERIOR = "A z_n = z_(n-1) + z_(n+1) for 1 < n < 11"


@pytest.mark.parametrize("n, failed", [
    (1, {"A z_1 = z_2", _INTERIOR, "A^semi z_0 = z_1"}),
    (3, {_INTERIOR}),
    (11, {_INTERIOR, "A z_11 = z_10", "A^semi z_12 = z_11"}),
    (12, {"A^semi z_12 = z_11"}),  # the finite rows of z_h, which A^semi alone reads
])
def test_z_recurrence_lines_fail_alone(monkeypatch, n, failed):
    """E6 with the x0 entry of z_n off by one: exactly the lines that read z_n fail."""
    d = fin("E6")
    table = assembling_vectors(d)
    z = [list(zn) for zn in table.z]
    z[n][1] += 1
    broken = table._replace(z=tuple(map(tuple, z)))
    monkeypatch.setattr(mckay, "assembling_vectors", lambda g: broken)
    rep = verify_z_recurrence(d)
    assert {label for label, ok in rep.checks if not ok} == failed


def test_z_recurrence_rejects_odd_coxeter_number():
    with pytest.raises(ExcludedDiagramError):
        verify_z_recurrence(fin("A2"))


def test_observation_reports_pass():
    for name in ("A3", "A5", "D4", "D5", "D6", "E6", "E7", "E8"):
        rep = verify_observation(fin(name))
        assert rep.passed, rep.render()


def test_observation_worked_values():
    """Neighbor sums at x0, x1 and y3 of E6, written out term by term."""
    zt = z_polynomials(fin("E6"))
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
    inner = IntMatrix.identity(d.size) * 2 - d.cartan
    assert d.bonds == inner
