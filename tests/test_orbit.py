"""Orbit of beta = delta[1:] and the assembling vectors, walked from the
extended diagram."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import dynkinlab.coxeter as coxeter
import dynkinlab.exact as exact
import dynkinlab.orbit as orbit
from dynkinlab.coxeter import coxeter_number
from dynkinlab.diagram import DiagramId, build, catalog_extended, finite_part
from dynkinlab.errors import (
    CatalogCorruptionError,
    DomainError,
    ExcludedDiagramError,
    IdentityViolationError,
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
from oracles import HYPERBOLIC, block_render, star_tree

GOLDEN = Path(__file__).parent / "golden"
T = IntPoly.monomial(1)


def ext(name: str):
    return build(DiagramId.parse(name), extended=True)


def test_tau_orbit_e6():
    taus = tau_orbit(ext("E6"))
    assert len(taus) == 12
    assert taus[0] == (3, 1, 1, 2, 2, 2)
    assert taus[5] == (1, 0, 0, 0, 0, 0)
    assert taus[11] == (-3, -1, -1, -2, -2, -2)


def test_tau_orbit_a3():
    taus = tau_orbit(ext("A3"))
    assert taus == ((1, 1, 1), (0, 1, 0), (0, -1, 0), (-1, -1, -1))


def test_excluded_odd_coxeter_number():
    """Odd h is the one refusal left; B3 and G2 walk."""
    for name, h in (("A2", 3), ("A4", 5)):
        with pytest.raises(ExcludedDiagramError) as exc:
            tau_orbit(ext(name))
        assert str(exc.value) == f"Coxeter number {h} is odd, the bicolored orbit does not close"
    assert len(tau_orbit(ext("B3"))) == 6 and len(tau_orbit(ext("G2"))) == 6
    with pytest.raises(DomainError):
        tau_orbit(build(DiagramId("E6")))  # the walk starts from the extended diagram


def test_the_walk_runs_on_every_even_h_catalog_diagram():
    """The 14 even-h A/D/E diagrams and the 23 folds: every z_n >= 0, z_g
    twice a unit vector and the palindrome hold, as assembling_vectors
    checks, and z(t)_0 = 1 + t^h."""
    walked = 0
    for e in catalog_extended():
        if e.did.family == "A" and e.did.rank % 2 == 0:
            continue  # h = rank + 1 is odd
        table = assembling_vectors(e)
        assert table.h == coxeter_number(finite_part(e)) and table.h % 2 == 0
        assert z_polynomials(e)[0] == 1 + T**table.h
        walked += 1
    assert walked == 14 + 23


@pytest.mark.parametrize("name, vertex", [
    ("E6", "x0"), ("D6", "d4"), ("A5", "a3"),
    ("B3", "f1+f2"), ("C3", "a3"), ("F4", "e2+e4"), ("G2", "d2"),
    ("F4dual", "x0"), ("G2dual", "y1+y2+y3"), ("DD4", "d3"), ("CD3", "d2+d4"),
])
def test_z_g_is_twice_one_vertex(name, vertex):
    """On A/D/E the vertex is the branch vertex, or the middle of the chain."""
    e = ext(name)
    table = assembling_vectors(e)
    assert table.z[table.h // 2] == tuple(2 * (label == vertex) for label in e.labels)


@pytest.mark.parametrize("pqr", HYPERBOLIC)
def test_wild_trees_are_refused_for_their_real_reason(pqr):
    """T_{p,q,r} without its affine vertex is affine, not finite: the walk
    stops at its Coxeter number, never at a family guard."""
    with pytest.raises(DomainError) as exc:
        assembling_vectors(star_tree(*pqr))
    assert str(exc.value).endswith("diagram is not finite type")


def test_wild_tree_walks_where_it_is_affine():
    """T_{3,3,3} is extended E6 labelled another way: its finite part is E6."""
    table = assembling_vectors(star_tree(3, 3, 3))
    assert table.h == 12 and sorted(table.tau_beta[0]) == [1, 1, 2, 2, 2, 3]


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
    """The walk reads w1 and w2 as the pair's cached products; swapped, w2
    no longer fixes beta."""
    real = orbit.bicolored_products
    monkeypatch.setattr(orbit, "bicolored_products", lambda d: real(d)[::-1])
    for name in ("E6", "D5", "A3", "E8", "B3", "G2", "DD4"):
        with pytest.raises(CatalogCorruptionError) as exc:
            tau_orbit(ext(name))
        assert str(exc.value) == "w2 does not fix beta", name


def test_a_longer_walk_does_not_end_at_minus_beta(cold_orbit, monkeypatch):
    real = orbit.coxeter_number
    monkeypatch.setattr(orbit, "coxeter_number", lambda d: real(d) + 2)
    with pytest.raises(IdentityViolationError) as exc:
        tau_orbit(ext("E6"))
    assert str(exc.value) == "tau^(h-1) beta is not -beta"


def test_walk_builds_the_sparse_products_once(cold_orbit, monkeypatch):
    """D128 has h = 254: the walk steps by the products of w1 and w2 that
    the Coxeter number's walk built, cached first, so it builds none, not
    one at each of its 253 steps, and reads no class rows again."""
    d = ext("D128")
    assert coxeter_number(finite_part(d)) == 254
    rows = coxeter._class_rows.cache_info()
    built = []

    def counting(real):
        def counted(*args):
            built.append(real.__name__)
            return real(*args)
        return counted

    for name in ("_sparse_left", "_sparse_rows"):
        real = getattr(exact, name)
        for module in (exact, coxeter, orbit):  # orbit too, were it to build its own again
            monkeypatch.setattr(module, name, counting(real), raising=False)
    taus = tau_orbit(d)
    assert len(taus) == 254 and built == []
    assert coxeter._class_rows.cache_info().misses == rows.misses


@pytest.mark.parametrize("n, vertex, message", [
    (1, 0, "assembling vector z_1 has a negative entry"),    # z_1 = beta - tau beta
    (6, 0, "z_g is not twice a unit vector"),                # moves one x0 from z_6 to z_7
    (7, 3, "z_7 breaks the palindrome symmetry"),            # moves one y1 from z_7 to z_8
])
def test_perturbed_walk_is_refused(cold_orbit, monkeypatch, n, vertex, message):
    """E6 with tau^(n) beta one higher at one vertex; every other step is kept."""
    d = ext("E6")
    walk = [list(v) for v in tau_orbit(d)]
    walk[n][vertex] += 1
    monkeypatch.setattr(orbit, "tau_orbit", lambda g: tuple(map(tuple, walk)))
    with pytest.raises(IdentityViolationError) as exc:
        assembling_vectors(d)
    assert str(exc.value) == message


def test_assembling_vectors_e6():
    table = assembling_vectors(ext("E6"))
    assert table.h == 12
    # z_6 = 2 alpha_x0, z_1 = z_11 = alpha_y3, boundary z_0 = z_12 = alpha_0
    assert table.z[6] == (0, 2, 0, 0, 0, 0, 0)
    assert table.z[1] == (0, 0, 0, 0, 0, 0, 1)
    assert table.z[11] == table.z[1]
    assert table.z[0] == (1, 0, 0, 0, 0, 0, 0)
    assert table.z[12] == table.z[0]


def test_assembling_vectors_d4():
    table = assembling_vectors(ext("D4"))
    assert table.h == 6
    assert table.z[3] == (0, 0, 2, 0, 0)  # twice the center d2


def test_z_polynomials_values():
    zt = z_polynomials(ext("E6"))
    assert zt[0] == 1 + T**12
    assert zt[1] == T**2 + T**4 + 2 * T**6 + T**8 + T**10
    assert zt[6] == T + T**5 + T**7 + T**11
    for name in ("A3", "D5", "E7"):
        d = ext(name)
        h = assembling_vectors(d).h
        assert z_polynomials(d)[0] == 1 + T**h


def test_verify_kostant_form():
    r = verify_kostant_form(ext("E6"))
    assert r.passed and len(r.checks) == 7
    assert verify_kostant_form(ext("A3")).passed
    d4 = ext("D4")
    assert verify_kostant_form(d4).passed
    gf = generating_function(d4)
    assert RatFunc(gf.numerators[0], gf.det_m) == RatFunc(1 + T**6, (1 - T**4) ** 2)


def test_sum_of_values_matches_total_mass():
    for name in ("A5", "D6", "E7", "B4", "G2dual"):
        table = assembling_vectors(ext(name))
        zt = z_polynomials(ext(name))
        assert sum(p(1) for p in zt) == sum(sum(zn) for zn in table.z)


def test_golden_e6_orbit_table():
    table = assembling_vectors(ext("E6"))
    assert render_orbit_table(table) == (GOLDEN / "e6_orbit_table.txt").read_text()


def test_golden_e6_z_vectors():
    table = assembling_vectors(ext("E6"))
    assert render_z_table(table) == (GOLDEN / "e6_z_vectors.txt").read_text()


def test_golden_e6_z_polynomials():
    out = render_z_polynomials(ext("E6"))
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


def test_render_blocks_against_the_per_block_oracle():
    """One format call per table renders what one call per block and per
    display row renders: on the 41 catalog finite parts, the 18 A/D/E grids,
    A1's one-cell grid among them, and the folds, which have none, with
    random vectors up to both cell limits, one block and many; on extended
    diagrams, which have no grid; and as the orbit and z tables of every
    even-h catalog diagram.  Overflow is refused alike."""
    rng = random.Random(40)
    finite = [finite_part(e) for e in catalog_extended()]
    grids = [d for d in finite if d.display is not None]
    assert len(finite) == 41 and len(grids) == 18 and grids[0].size == 1
    for d in [*finite, ext("E6"), ext("A1")]:
        for blocks in (1, 2, 7):
            titled = [(f"v{b}", tuple(rng.choice((-99, 999, 0, rng.randint(-99, 999))) for _ in range(d.size)))
                      for b in range(blocks)]
            assert orbit._render_blocks(d, titled) == block_render(d, titled), d.labels
            assert orbit._render_blocks(d, iter(titled)) == block_render(d, titled)
        if d.display is not None:
            for bad in (-100, 1000):
                titled = [("v", (0,) * d.size), ("w", (bad,) + (0,) * (d.size - 1))]
                for render in (orbit._render_blocks, block_render):
                    with pytest.raises(DomainError) as err:
                        render(d, titled)
                    assert str(err.value) == "cell overflow"
    walked = 0
    for e in catalog_extended():
        if coxeter_number(finite_part(e)) % 2:
            continue
        table = assembling_vectors(e)
        taus = [(f"tau^({n})beta", vec) for n, vec in enumerate(table.tau_beta)]
        zs = [(f"z_{n}", table.z[n][1:]) for n in range(1, table.h)]
        assert render_orbit_table(table) == block_render(table.diagram, taus), e.labels
        assert render_z_table(table) == block_render(table.diagram, zs), e.labels
        walked += 1
    assert walked > 20
