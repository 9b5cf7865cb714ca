"""Adjacency action on the assembling vectors."""

import pytest

from dynkinlab.diagram import DiagramId, build, catalog_extended, finite_part
from dynkinlab.errors import ExcludedDiagramError, UnsupportedFamilyError
from dynkinlab.exact import IntMatrix, IntPoly
from dynkinlab.mckay import adjacency, semi_affine, verify_observation, verify_z_recurrence
from dynkinlab.orbit import z_polynomials
from oracles import parse_poly


def fin(name: str):
    return build(DiagramId.parse(name))


def test_adjacency_frozen():
    assert adjacency(fin("A2")).rows == ((0, 1), (1, 0))
    # d1 - d2 < (f1, f2)
    assert adjacency(fin("D4")).rows == (
        (0, 1, 0, 0),
        (1, 0, 1, 1),
        (0, 1, 0, 0),
        (0, 1, 0, 0),
    )
    # x0, x1, x2, y1, y2, y3 with bonds x0-y1, x0-y2, x0-y3, x1-y1, x2-y2
    assert adjacency(fin("E6")).rows == (
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
        a = adjacency(d)
        for i in range(d.size):
            for j in range(d.size):
                assert a[i, j] == (1 if j in d.neighbors(i) else 0)


def test_adjacency_domain():
    with pytest.raises(UnsupportedFamilyError):
        adjacency(fin("B3"))
    with pytest.raises(UnsupportedFamilyError):
        adjacency(fin("G2"))
    with pytest.raises(UnsupportedFamilyError):
        adjacency(build(DiagramId.parse("A3"), extended=True))


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
        a = adjacency(d)
        assert m.shape == (d.size + 1, d.size + 1)
        assert all(m[i + 1, j + 1] == a[i, j] for i in range(d.size) for j in range(d.size))
        marked = tuple(i for i in range(1, d.size + 1) if m[i, 0])
        assert marked == tuple(v + 1 for v in d.u0)


def test_z_recurrence_reports_pass():
    for name in ("A3", "A5", "D4", "D5", "D6", "E6", "E7", "E8"):
        rep = verify_z_recurrence(fin(name))
        assert rep.passed, rep.render()


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
    t = IntPoly.x()
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
    assert adjacency(d) == inner
