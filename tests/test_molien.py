"""Group enumeration and the Molien oracle.

The expected coefficient lists were derived by hand before wiring the
oracle: invariants of -I on binary forms give n+1 in even degrees, and
(1+t^12)/((1-t^6)(1-t^8)) was multiplied out for the tetrahedral case.
"""

import math
import random
import re

import pytest

import dynkinlab.mckay as mckay
import dynkinlab.molien as molien
from dynkinlab.diagram import Diagram, DiagramId, build, catalog_groups
from dynkinlab.errors import (
    DomainError,
    DynkinlabError,
    GeneratorSetError,
    IdentityViolationError,
    UnsupportedFamilyError,
)
from dynkinlab.exact import IntMatrix
from dynkinlab.mckay import crosscheck, folded_component_report, mckay_matrix_numeric
from dynkinlab.molien import BpgId, enumerate_group, molien_coeffs

from oracles import (
    bfs_enumerate_group,
    float_contains_minus_identity,
    float_enumerate_group,
    float_molien_sums,
    full_scan_classes,
    loop_molien_sums,
)


def grp(text: str):
    return enumerate_group(BpgId.parse(text))


def test_orders():
    expected = {
        "cyclic:1": 1,
        "cyclic:7": 7,
        "binary_dihedral:2": 8,
        "binary_dihedral:5": 20,
        "binary_tetrahedral": 24,
        "binary_octahedral": 48,
        "binary_icosahedral": 120,
    }
    for text, order in expected.items():
        assert grp(text).order == order


def test_id_validation():
    with pytest.raises(DomainError):
        BpgId("cyclic", 0)
    with pytest.raises(DomainError):
        BpgId("binary_dihedral", 1)
    with pytest.raises(DomainError):
        BpgId("binary_tetrahedral", 3)
    with pytest.raises(UnsupportedFamilyError):
        BpgId("dihedral", 3)
    assert BpgId.parse("binary_dihedral:3").text == "binary_dihedral:3"
    assert BpgId.parse("binary_icosahedral").text == "binary_icosahedral"
    assert repr(BpgId("cyclic", 3)) == "BpgId(family='cyclic', n=3)"
    with pytest.raises(DomainError, match="^cyclic group needs n >= 1$"):
        BpgId("cyclic", 0)
    with pytest.raises(DomainError, match="^binary_icosahedral takes no parameter$"):
        BpgId("binary_icosahedral", 2)


def test_group_parameter_takes_ascii_digits_only():
    # str.isdigit() also holds for superscripts, which int() rejects, and
    # for other scripts' digits
    for text in ("cyclic:\u00b2", "cyclic:\u0663", "binary_dihedral:\uff13", "cyclic:", "cyclic:-2"):
        with pytest.raises(DomainError, match="bad group parameter"):
            BpgId.parse(text)


def test_pairing():
    assert BpgId.parse("cyclic:5").paired_diagram() == DiagramId.parse("A4")
    assert BpgId.parse("binary_dihedral:4").paired_diagram() == DiagramId.parse("D6")
    assert BpgId.parse("binary_octahedral").paired_diagram() == DiagramId.parse("E7")
    with pytest.raises(DomainError):
        BpgId.parse("cyclic:1").paired_diagram()


def class_traces(group) -> list[float]:
    """Each element's trace 2 cos(2 pi j / L), read off the trace classes."""
    return sorted(2 * math.cos(2 * math.pi * j / group.level)
                  for j, count in group.classes for _ in range(count))


def test_cyclic_traces():
    traces = class_traces(grp("cyclic:5"))
    wanted = sorted(2 * math.cos(2 * math.pi * k / 5) for k in range(5))
    assert len(traces) == len(wanted)
    assert all(abs(a - b) < 1e-9 for a, b in zip(traces, wanted))


def test_elements_unitary_unimodular():
    group = grp("binary_octahedral")
    p = group.p
    for m in group.elements:
        assert (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p == 1
    for m in float_enumerate_group(BpgId.parse("binary_octahedral")):
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert abs(det - 1) < 1e-9
        for row in (0, 1):
            assert abs(abs(m[row][0]) ** 2 + abs(m[row][1]) ** 2 - 1) < 1e-9
        dot = m[0][0] * m[1][0].conjugate() + m[0][1] * m[1][1].conjugate()
        assert abs(dot) < 1e-9


def patched_closure(monkeypatch, text, gens):
    """Close the group named by text from the generators gens(p, level, zeta)."""
    monkeypatch.setattr(molien, "_generators", lambda bid, p, level, zeta: gens(p, level, zeta))
    enumerate_group.cache_clear()  # make the closure run again
    try:
        return enumerate_group(BpgId.parse(text))
    finally:
        enumerate_group.cache_clear()


def test_closure_guards_order(monkeypatch):
    bad = (((1, 0), (0, 1)),)  # identity alone can never close to 24 elements
    with pytest.raises(GeneratorSetError):
        patched_closure(monkeypatch, "binary_tetrahedral", lambda p, level, zeta: bad)


def test_generator_with_determinant_not_one(monkeypatch):
    # diag(zeta, 1) has determinant zeta, not 1
    with pytest.raises(GeneratorSetError, match="determinant"):
        patched_closure(monkeypatch, "cyclic:120",
                        lambda p, level, zeta: (((zeta, 0), (0, 1)),))


def test_trace_outside_the_table(monkeypatch):
    """binary_dihedral:4 has order 16 and level 120, so a diagonal generator
    of order 16 closes to 16 elements whose traces are no zeta^j + zeta^-j."""

    def order_16(p, level, zeta):
        assert level == 120 and (p - 1) % 16 == 0
        lam = next(x for x in range(2, p) if pow(x, 8, p) == p - 1)
        return (((lam, 0), (0, pow(lam, -1, p))),)

    with pytest.raises(GeneratorSetError, match="trace"):
        patched_closure(monkeypatch, "binary_dihedral:4", order_16)


# (group, order of its first generator, (index, generators so far) for each
# later generator): <i> has index 6 in the tetrahedral group, which has
# index 2 in the octahedral
_COSETS = (
    ("cyclic:1", 1, ()),
    ("cyclic:1021", 1021, ()),
    ("binary_dihedral:200", 400, ((2, 2),)),
    ("binary_dihedral:256", 512, ((2, 2),)),
    ("binary_tetrahedral", 4, ((6, 2),)),
    ("binary_octahedral", 4, ((6, 2), (2, 3))),
    ("binary_icosahedral", 6, ((20, 2),)),
)


@pytest.mark.parametrize("text, first, cosets", _COSETS, ids=[c[0] for c in _COSETS])
def test_closure_forms_each_element_once(monkeypatch, text, first, cosets):
    """The coset closure forms |G| - 1 elements by batches, plus the tail of
    the last doubling past the identity (2^k - ord g for the least
    2^k >= ord g, first = ord g of the first generator), one squaring per
    doubling without the identity, and one representative product per
    generator so far for each new coset: (index, generators so far) per
    generator in cosets.  The breadth-first closure formed |G| products per
    generator, 1600 on binary_dihedral:200 where this count is 921."""
    products = 0
    times = molien._times

    def counted(xs, y, p):
        nonlocal products
        products += len(xs)
        return times(xs, y, p)

    monkeypatch.setattr(molien, "_times", counted)
    enumerate_group.cache_clear()
    try:
        order = enumerate_group(BpgId.parse(text)).order
    finally:
        enumerate_group.cache_clear()
    k = (first - 1).bit_length()  # 2^k is the least power of 2 at or above first
    squarings = k if first == 1 << k else k - 1
    reps = sum((index - 1) * gens for index, gens in cosets)
    assert products == order - 1 + (1 << k) - first + squarings + reps


_CLOSURE_GROUPS = (
    [g.text for g in catalog_groups()]
    + [f"cyclic:{n}" for n in (1, 1021, 1024)]
    + [f"binary_dihedral:{n}" for n in (*range(2, 9), 126, 199, 251, 256)]
)


@pytest.mark.parametrize("text", _CLOSURE_GROUPS)
def test_coset_closure_against_breadth_first_closure(text):
    """The coset closure finds the elements, the order and the trace classes
    of the breadth-first closure."""
    group, oracle = grp(text), bfs_enumerate_group(BpgId.parse(text))
    assert group.order == oracle.order == len(set(group.elements))
    assert set(group.elements) == set(oracle.elements)
    assert (group.p, group.level, group.classes) == (oracle.p, oracle.level, oracle.classes)


@pytest.mark.parametrize(
    "text",
    [g.text for g in catalog_groups()]
    + [f"binary_dihedral:{n}" for n in (198, 199, 200, 201, 202, 251, 256)]
    + [f"cyclic:{n}" for n in (1, 2, 129, 1021, 1024)],
)
def test_class_scan_against_full_scan(text):
    """The scan over the multiples of L / gcd(L, |G|) finds the classes of
    the scan over every j in 0..L/2."""
    group = grp(text)
    assert group.classes == full_scan_classes(group)
    step = group.level // math.gcd(group.level, group.order)
    assert all(j % step == 0 for j, _ in group.classes)


@pytest.mark.parametrize(
    "text",
    [g.text for g in catalog_groups()]
    + ["cyclic:1", "cyclic:129", "cyclic:1024", "binary_dihedral:256"]
    + [f"binary_dihedral:{n}" for n in range(198, 203)],
)
def test_exact_closure_against_float_oracle(text):
    """The closure's traces and the integer Molien sums against the float
    closure with one recurrence per element, through 3000 terms."""
    group = grp(text)
    floats = float_enumerate_group(BpgId.parse(text))
    assert group.order == len(floats)
    traces = sorted((m[0][0] + m[1][1]).real for m in floats)
    assert all(abs((m[0][0] + m[1][1]).imag) < 1e-9 for m in floats)
    assert all(abs(a - b) < 1e-9 for a, b in zip(class_traces(group), traces))
    assert group.contains_minus_identity() == float_contains_minus_identity(floats)
    assert molien_coeffs(group, 3000) == float_molien_sums(floats, 3000)[0]


def with_classes(group, edit):
    """group with its trace classes of order 5 passed through edit."""
    fives = [c for c in group.classes if group.level // math.gcd(c[0], group.level) == 5]
    others = [c for c in group.classes if c not in fives]
    return group._replace(classes=tuple(others + edit(fives)))


def test_sums_need_galois_stable_classes():
    """The two classes of order 5 in the icosahedral group, 12 elements
    each, share one Ramanujan sum only while their counts agree."""
    group = grp("binary_icosahedral")
    assert molien_coeffs(with_classes(group, lambda c: c), 60) == molien_coeffs(group, 60)
    for edit in (lambda c: [(c[0][0], c[0][1] + 1)] + c[1:], lambda c: c[1:]):
        with pytest.raises(GeneratorSetError, match="order 5 are not Galois stable"):
            molien_coeffs(with_classes(group, edit), 60)


def test_sums_check_each_coefficient():
    # 11 elements named for binary_dihedral:3 (order 12): T(2) = 11 - 12
    short = grp("binary_dihedral:3")
    with pytest.raises(IdentityViolationError, match=re.escape("degree 2: -1 is not a multiple of |G| = 11")):
        molien_coeffs(short._replace(elements=short.elements[:-1]), 4)
    # cyclic:2 = {I, -I} with |G| read as 1: T(2) = 1 + 4 > 3 |G|
    pair = grp("cyclic:2")
    with pytest.raises(IdentityViolationError, match="invariant dimension 5 above dim Sym"):
        molien_coeffs(pair._replace(elements=pair.elements[:1]), 4)


def test_power_trace_sums_once_per_gcd(monkeypatch):
    seen = []
    power_sum = molien._power_trace_sum
    factored = []
    prime_factors = molien._prime_factors

    def counted(weights, d, *args):
        seen.append(d)
        return power_sum(weights, d, *args)

    def counted_factors(n):
        factored.append(n)
        return prime_factors(n)

    monkeypatch.setattr(molien, "_power_trace_sum", counted)
    monkeypatch.setattr(molien, "_prime_factors", counted_factors)
    for text in ("binary_dihedral:201", "cyclic:1024"):
        group = grp(text)
        seen.clear()
        factored.clear()
        molien._molien_sums.cache_clear()  # a cached sum would count nothing
        molien_coeffs(group, 3000)
        assert sorted(seen) == sorted({math.gcd(n, group.level) for n in range(1, 3001)})
        assert factored == [group.level]  # L is factored once per sum


@pytest.mark.parametrize(
    "text",
    [g.text for g in catalog_groups()]
    + ["cyclic:1", "cyclic:1024", "cyclic:1021"]
    + [f"binary_dihedral:{n}" for n in (198, 199, 200, 201, 202, 255, 256)],
)
def test_sums_match_loop_oracle(text):
    """The per-class sums equal the per-term loop with trial-division
    Ramanujan sums at 0, 1, 2 and around one and two periods L of gcd(n, L),
    capped at 100000; cyclic:1021 has the largest L under the order limit."""
    group = grp(text)
    level = group.level
    terms = {min(n, 100000) for n in (0, 1, 2, level - 1, level, level + 1, 2 * level + 3)}
    if text in ("cyclic:1021", "cyclic:1024"):
        terms.add(100000)
    for nterms in sorted(terms):
        assert molien._molien_sums(group, nterms) == loop_molien_sums(group, nterms), nterms


@pytest.mark.parametrize("text, classes, message", [
    # cyclic:3 with one more element of trace 2 and one of trace -2 taken
    # away: P(n) gains 4 at odd n only, so T(1) = 4 and every even T(n) stays
    # a multiple of 3
    ("cyclic:3", ((0, 2), (40, 2), (60, -1)),
     "molien coefficient at degree 1: 4 is not a multiple of |G| = 3"),
    # cyclic:2 = {I, -I}: moving |G| elements from trace 2 to trace -2 takes
    # 8 from P(n) at odd n only, and the reverse adds 8
    ("cyclic:2", ((0, -1), (60, 3)), "negative invariant dimension -4 at degree 1"),
    ("cyclic:2", ((0, 3), (60, -1)), "invariant dimension 4 above dim Sym^1 = 2 at degree 1"),
], ids=["divisibility", "negative", "above"])
def test_sums_fail_at_the_first_odd_witness(text, classes, message):
    """Each tampered group first fails at an odd degree, and only at odd
    degrees, so a check made at even degrees alone would pass it."""
    group = grp(text)._replace(classes=classes)
    for sums in (molien._molien_sums, loop_molien_sums):
        with pytest.raises(IdentityViolationError) as err:
            sums(group, 40)
        assert str(err.value) == message


def test_range_witness_comes_before_a_later_divisibility_failure():
    """cyclic:3 with T(1) = -6: a_1 = -2 is the first witness, although P(2)
    is not a multiple of |G| = 3 either."""
    group = grp("cyclic:3")._replace(classes=((0, -3), (40, 2), (60, -1)))
    for sums in (molien._molien_sums, loop_molien_sums):
        with pytest.raises(IdentityViolationError) as err:
            sums(group, 40)
        assert str(err.value) == "negative invariant dimension -2 at degree 1"


def _tampered(group, rng: random.Random):
    """group with the counts of the classes of one or two element orders
    shifted, by one amount per order, so the classes stay Galois stable."""
    level = group.level
    orders = sorted({level // math.gcd(j, level) for j, _ in group.classes})
    shift = {m: rng.randint(-3, 3) for m in rng.sample(orders, min(2, len(orders)))}
    return group._replace(classes=tuple(
        (j, count + shift.get(level // math.gcd(j, level), 0)) for j, count in group.classes
    ))


def _outcome(sums, group, nterms: int):
    try:
        return sums(group, nterms)
    except DynkinlabError as err:
        return type(err), str(err)


def test_one_pass_matches_loop_oracle_on_tampered_classes():
    """The one-pass sums against the per-degree loop on seeded tamperings of
    the catalog groups' class counts: equal coefficients, or the same
    exception with the same first witness."""
    rng = random.Random(22)
    seen = set()
    for bid in catalog_groups():
        group = enumerate_group(bid)
        level = group.level
        for _ in range(6):
            tampered = _tampered(group, rng)
            for nterms in (0, 1, 2, 3, 13, 40, level - 1, level, level + 3):
                expected = _outcome(loop_molien_sums, tampered, nterms)
                assert _outcome(molien._molien_sums, tampered, nterms) == expected, (
                    bid.text, tampered.classes, nterms)
                # the first word of the message names the failed check
                seen.add(expected[1].split()[0] if isinstance(expected[1], str) else "coefficients")
    assert seen == {"coefficients", "molien", "negative", "invariant"}


def test_enumeration_is_cached_and_immutable():
    enumerate_group.cache_clear()
    first = grp("binary_octahedral")
    assert grp("binary_octahedral") is first
    assert enumerate_group.cache_info().misses == 1
    with pytest.raises(AttributeError):
        first.elements = ()
    assert isinstance(first.elements, tuple)
    assert all(isinstance(row, tuple) for m in first.elements for row in m)


def test_molien_frozen_values():
    assert molien_coeffs(grp("cyclic:2"), 4) == [1, 0, 3, 0, 5]
    assert molien_coeffs(grp("binary_tetrahedral"), 12) == [
        1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 2,
    ]
    for text in ("cyclic:6", "binary_dihedral:3", "binary_icosahedral"):
        assert molien_coeffs(grp(text), 0) == [1]


def test_minus_identity_parity():
    g = grp("binary_dihedral:3")
    assert g.contains_minus_identity()
    assert all(c == 0 for c in molien_coeffs(g, 21)[1::2])
    g3 = grp("cyclic:3")
    assert not g3.contains_minus_identity()
    assert any(c != 0 for c in molien_coeffs(g3, 9)[1::2])


def test_crosscheck_reports():
    for text, n in (("cyclic:3", 30), ("binary_dihedral:2", 40), ("binary_icosahedral", 60)):
        rep = crosscheck(BpgId.parse(text), n)
        assert rep.passed, rep.render()


@pytest.mark.parametrize("text", ["cyclic:3", "binary_tetrahedral"])
def test_crosscheck_group_order_line_fails_alone(monkeypatch, text):
    """The group order is read off the Cramer side, det M''(1) = 2 |G| y_0(1):
    y_0 one higher, through `mckay`'s binding of the tree solve only, fails
    that line alone, as the Molien line reads `kostant`'s binding."""
    bid = BpgId.parse(text)
    real = mckay.generating_function

    def y0_off(ext):
        gf = real(ext)
        return gf._replace(numerators=(gf.numerators[0] + 1, *gf.numerators[1:]))

    monkeypatch.setattr(mckay, "generating_function", y0_off)
    rep = crosscheck(bid, 30)
    assert [label for label, ok in rep.checks if not ok] == [f"group order is {bid.order}"]


def test_mckay_shift_reports():
    for text in ("cyclic:2", "cyclic:4", "binary_tetrahedral"):
        rep = mckay_matrix_numeric(BpgId.parse(text), 24)
        assert rep.passed, rep.render()


_BOUNDARY = "B v_0 = v_1"
_SHIFT = "B v_n = v_(n-1) + v_(n+1) for n = 1..24"
_COMPONENT0 = "(B v_n)_0 = m0(n-1) + m0(n+1) with molien-sourced m0"
_CIRCULANT = "B is the 2-regular circulant"


@pytest.mark.parametrize("text", ["cyclic:4", "binary_tetrahedral"])
def test_mckay_shift_lines_fail_alone(monkeypatch, text):
    """A Molien coefficient off by one fails the component-0 line only; v_0
    off by one at the affine vertex fails the two lines that read v_0."""
    bid = BpgId.parse(text)
    real_m0, real_v = mckay.molien_coeffs, mckay.packed_series

    def m0_off(group, nterms):
        m0 = list(real_m0(group, nterms))
        m0[5] += 1
        return m0

    def v0_off(d, nterms):
        v, w, negative, y = real_v(d, nterms)
        return [v[0] + 1, *v[1:]], w, negative, y  # slot 0 of column 0

    for name, patched, failed in (
        ("molien_coeffs", m0_off, {_COMPONENT0}),
        ("packed_series", v0_off, {_BOUNDARY, _SHIFT}),
    ):
        with monkeypatch.context() as m:
            m.setattr(mckay, name, patched)
            rep = mckay_matrix_numeric(bid, 24)
        assert {label for label, ok in rep.checks if not ok} == failed, name


def test_mckay_shift_extra_bond_breaks_the_circulant(monkeypatch):
    """An extra bond 0 - 2 on the 4-cycle of cyclic:4: B is no longer the
    circulant, and every line that multiplies by B fails with it."""
    real = Diagram.bonds.fget
    cycle = build(DiagramId("A", 3), extended=True)

    def extra_bond(d):
        rows = [list(row) for row in real(d).rows]
        if d == cycle:
            rows[0][2] += 1
            rows[2][0] += 1
        return IntMatrix(rows)

    monkeypatch.setattr(Diagram, "bonds", property(extra_bond))
    rep = mckay_matrix_numeric(BpgId.parse("cyclic:4"), 24)
    failed = {label for label, ok in rep.checks if not ok}
    assert failed == {_BOUNDARY, _SHIFT, _COMPONENT0, _CIRCULANT}


def test_folded_exploration():
    """Across the folded catalog component 0 follows the smaller group of
    the pair, and the report asserts it."""
    for name, small in (("F4", "binary_tetrahedral"), ("G2", "binary_dihedral:2")):
        rep = folded_component_report(DiagramId.parse(name), 24)
        assert rep.passed
        labels = [label for label, _ in rep.checks]
        assert any("matches" in s and small in s for s in labels)
        assert any(s.startswith("component 0 differs") for s in labels)
