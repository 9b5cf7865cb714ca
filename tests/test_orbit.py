"""Orbit of the highest root and the assembling vectors."""

from __future__ import annotations

from pathlib import Path

import pytest

import dynkinlab.exact as exact
import dynkinlab.orbit as orbit
from dynkinlab.coxeter import coxeter_number
from dynkinlab.diagram import DiagramId, build
from dynkinlab.errors import (
    CatalogCorruptionError,
    DomainError,
    ExcludedDiagramError,
    IdentityViolationError,
    UnsupportedFamilyError,
)
from dynkinlab.exact import IntPoly, RatFunc
from dynkinlab.kostant import generating_function
from dynkinlab.mckay import verify_kostant_form
from dynkinlab.orbit import (
    assembling_vectors,
    render_orbit_table,
    render_z_polynomials,
    render_z_table,
    tau_orbit,
    z_polynomials,
)

GOLDEN = Path(__file__).parent / "golden"
T = IntPoly.monomial(1)


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


@pytest.fixture
def cold_orbit():
    """Empty the orbit caches before and after: a walk cached from the real
    matrices would hide a patch, and one made under a patch would outlive it."""
    caches = (tau_orbit, assembling_vectors)
    for c in caches:
        c.cache_clear()
    yield
    for c in caches:
        c.cache_clear()


def test_swapped_involutions_do_not_fix_the_highest_root(cold_orbit, monkeypatch):
    real = orbit.bicolored_reflections
    monkeypatch.setattr(orbit, "bicolored_reflections",
                        lambda d: real(d)._replace(w1=real(d).w2, w2=real(d).w1))
    for name in ("E6", "D5", "A3", "E8"):
        with pytest.raises(CatalogCorruptionError) as exc:
            tau_orbit(build(DiagramId.parse(name)))
        assert str(exc.value) == "w2 does not fix the highest root", name


def test_a_longer_walk_does_not_end_at_minus_beta(cold_orbit, monkeypatch):
    real = orbit.coxeter_number
    monkeypatch.setattr(orbit, "coxeter_number", lambda d: real(d) + 2)
    with pytest.raises(IdentityViolationError) as exc:
        tau_orbit(build(DiagramId("E6")))
    assert str(exc.value) == "tau^(h-1) beta is not -beta"


def test_walk_builds_the_sparse_products_once(cold_orbit, monkeypatch):
    """D128 has h = 254: each involution's product is built before the walk,
    not at each of its 253 steps.  The Coxeter number, whose matrix order
    builds one more, is cached first."""
    d = build(DiagramId("D", 128))
    assert coxeter_number(d) == 254
    real, built = exact._sparse_left, []

    def counting(m):
        built.append((m.nrows, m.ncols))
        return real(m)

    monkeypatch.setattr(exact, "_sparse_left", counting)
    monkeypatch.setattr(orbit, "_sparse_left", counting, raising=False)
    taus = tau_orbit(d)
    assert len(taus) == 254 and len(built) <= 3


@pytest.mark.parametrize("n, vertex, message", [
    (1, 0, "assembling vector z_1 has a negative entry"),    # z_1 = beta - tau beta
    (6, 0, "z_g is not twice the branch vertex"),            # moves one x0 from z_6 to z_7
    (7, 3, "z_7 breaks the palindrome symmetry"),            # moves one y1 from z_7 to z_8
])
def test_perturbed_walk_is_refused(cold_orbit, monkeypatch, n, vertex, message):
    """E6 with tau^(n) beta one higher at one vertex; every other step is kept."""
    d = build(DiagramId("E6"))
    walk = [list(v) for v in tau_orbit(d)]
    walk[n][vertex] += 1
    monkeypatch.setattr(orbit, "tau_orbit", lambda g: tuple(map(tuple, walk)))
    with pytest.raises(IdentityViolationError) as exc:
        assembling_vectors(d)
    assert str(exc.value) == message


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


def test_grid_cells_hold_three_characters():
    """A cell is three characters wide: 999 and -99 render, 1000 and -100
    raise DomainError (an input error, exit 1), on a chain and on the E6
    grid with its blank cells."""
    a2, e6 = build(DiagramId("A", 2)), build(DiagramId("E6"))
    assert orbit._render_blocks(a2, [("v", (999, -99))]) == "v\n999-99\n"
    assert orbit._render_blocks(e6, [("v", (999, -99, 0, 1, 2, -99))]) == (
        "v\n-99  1999  2  0\n      -99\n"
    )
    for d, vec in ((a2, (1000, 0)), (a2, (0, -100)), (e6, (0, 0, 0, 0, 0, 1000)), (e6, (-100,) * 6)):
        with pytest.raises(DomainError) as err:
            orbit._render_blocks(d, [("v", vec)])
        assert str(err.value) == "cell overflow"
