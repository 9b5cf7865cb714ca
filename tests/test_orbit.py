"""Orbit of the highest root and the assembling vectors."""

from __future__ import annotations

from pathlib import Path

import pytest

from dynkinlab.diagram import DiagramId, build
from dynkinlab.errors import ExcludedDiagramError, UnsupportedFamilyError
from dynkinlab.exact import IntPoly, RatFunc
from dynkinlab.kostant import generating_function
from dynkinlab.orbit import (
    assembling_vectors,
    render_orbit_table,
    render_z_polynomials,
    render_z_table,
    tau_orbit,
    verify_kostant_form,
    z_polynomials,
)

GOLDEN = Path(__file__).parent / "golden"
T = IntPoly.x()


def test_tau_orbit_e6():
    taus = tau_orbit(build(DiagramId("E6")))
    assert len(taus) == 12
    assert taus[0] == (3, 1, 1, 2, 2, 2)
    assert taus[5] == (1, 0, 0, 0, 0, 0)
    assert taus[11] == (-3, -1, -1, -2, -2, -2)


def test_tau_orbit_a3():
    taus = tau_orbit(build(DiagramId("A", 3)))
    assert taus == ((1, 1, 1), (0, 1, 0), (0, -1, 0), (-1, -1, -1))


def test_excluded_odd_coxeter_number():
    with pytest.raises(ExcludedDiagramError):
        tau_orbit(build(DiagramId("A", 2)))
    with pytest.raises(ExcludedDiagramError):
        tau_orbit(build(DiagramId("A", 4)))
    with pytest.raises(UnsupportedFamilyError):
        tau_orbit(build(DiagramId("B", 3)))


def test_assembling_vectors_e6():
    table = assembling_vectors(build(DiagramId("E6")))
    assert table.h == 12
    # z_6 = 2 alpha_x0, z_1 = z_11 = alpha_y3, boundary z_0 = z_12 = alpha_0
    assert table.z[6] == (0, 2, 0, 0, 0, 0, 0)
    assert table.z[1] == (0, 0, 0, 0, 0, 0, 1)
    assert table.z[11] == table.z[1]
    assert table.z[0] == (1, 0, 0, 0, 0, 0, 0)
    assert table.z[12] == table.z[0]


def test_assembling_vectors_d4():
    table = assembling_vectors(build(DiagramId("D", 4)))
    assert table.h == 6
    assert table.z[3] == (0, 0, 2, 0, 0)  # twice the center d2


def test_z_polynomials_values():
    zt = z_polynomials(build(DiagramId("E6")))
    assert zt[0] == 1 + T**12
    assert zt[1] == T**2 + T**4 + 2 * T**6 + T**8 + T**10
    assert zt[6] == T + T**5 + T**7 + T**11
    for did in (DiagramId("A", 3), DiagramId("D", 5), DiagramId("E7")):
        d = build(did)
        h = assembling_vectors(d).h
        assert z_polynomials(d)[0] == 1 + T**h


def test_verify_kostant_form():
    r = verify_kostant_form(build(DiagramId("E6")))
    assert r.passed and len(r.checks) == 7
    assert verify_kostant_form(build(DiagramId("A", 3))).passed
    d4 = build(DiagramId("D", 4))
    assert verify_kostant_form(d4).passed
    gf = generating_function(build(DiagramId("D", 4), extended=True))
    assert RatFunc(gf.numerators[0], gf.det_m) == RatFunc(1 + T**6, (1 - T**4) ** 2)


def test_sum_of_values_matches_total_mass():
    for did in (DiagramId("A", 5), DiagramId("D", 6), DiagramId("E7")):
        table = assembling_vectors(build(did))
        zt = z_polynomials(table.diagram)
        assert sum(p(1) for p in zt) == sum(sum(zn) for zn in table.z)


def test_golden_e6_orbit_table():
    table = assembling_vectors(build(DiagramId("E6")))
    assert render_orbit_table(table) == (GOLDEN / "e6_orbit_table.txt").read_text()


def test_golden_e6_z_vectors():
    table = assembling_vectors(build(DiagramId("E6")))
    assert render_z_table(table) == (GOLDEN / "e6_z_vectors.txt").read_text()


def test_golden_e6_z_polynomials():
    out = render_z_polynomials(build(DiagramId("E6")))
    assert out == (GOLDEN / "e6_z_polynomials.txt").read_text()
