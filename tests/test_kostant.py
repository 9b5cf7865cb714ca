"""Generating functions: Cramer components, closed forms, Ebeling identities."""

from __future__ import annotations

import random

import pytest

import dynkinlab.kostant as kostant
import dynkinlab.mckay as mckay
from dynkinlab.diagram import Diagram, DiagramId, _make, build, catalog_extended
from dynkinlab.errors import DomainError, IdentityViolationError
from dynkinlab.exact import IntMatrix, IntPoly, RatFunc, _pack, _three_term, _unpack, _width, series_expand
from dynkinlab.kostant import component_series, generating_function, packed_series
from dynkinlab.mckay import (
    closed_form_component0,
    mckay_matrix_numeric,
    verify_closed_form,
    verify_ebeling,
    verify_kostant_relation,
)
from dynkinlab.molien import BpgId
from oracles import (cramer_matrix, cramer_solve, list_three_term, matvec, multiplicities, relation_rows, sympy_det,
                     tree_solve)

T = IntPoly.monomial(1)


def _ext(text: str) -> Diagram:
    return build(DiagramId.parse(text), extended=True)


def _hand_made(bonds, n: int) -> Diagram:
    """An extended diagram on vertices 0..n-1 from {(v, c): (b_vc, b_cv)}."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (v, c), (b_vc, b_cv) in bonds.items():
        rows[v][c], rows[c][v] = -b_vc, -b_cv
    u0 = tuple(j for j in range(1, n) if rows[0][j])
    return Diagram(None, True, tuple(f"v{i}" for i in range(n)), IntMatrix(rows), None, u0)


def _assert_solve_matches_oracle(d: Diagram) -> tuple[IntPoly, tuple[IntPoly, ...]]:
    gf = generating_function(d)
    expected = cramer_solve(cramer_matrix(d), [1] + [0] * (d.size - 1))
    assert (gf.det_m, gf.numerators) == expected, d.labels
    return expected


def test_mckay_operator_a1():
    assert _ext("A1").bonds == IntMatrix(((0, 2), (2, 0)))


def test_cramer_matrix_determinants():
    for text, det_m in (("A1", (1 - T**2) ** 2), ("E6", (T**6 - 1) ** 2 * (T**2 + 1))):
        rows = cramer_matrix(_ext(text))
        assert cramer_solve(rows, [0] * len(rows))[0] == det_m


def test_tree_solve_matches_the_bareiss_oracle():
    for d in catalog_extended():
        _assert_solve_matches_oracle(d)
    for text in ("A32", "D32", "B32", "C32", "DD32", "CD32"):
        _assert_solve_matches_oracle(_ext(text))


def test_tree_solve_on_random_trees():
    # asymmetric bonds tell the path product b_(child, parent) from its
    # transpose, which no symmetric (ADE) tree can
    rng = random.Random(20261018)
    pairs = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1))
    seen_sizes, seen_cycles = set(), 0
    for trial in range(90):
        n = 2 + trial % 8
        bonds = {(rng.randrange(1, c), c): rng.choice(pairs) for c in range(2, n)}
        ends = rng.sample(range(1, n), 2) if n > 2 and rng.random() < 0.3 else [rng.randrange(1, n)]
        for u in ends:
            bonds[0, u] = rng.choice(pairs + ((2, 2),)) if len(ends) == 1 else rng.choice(pairs)
        d = _hand_made(bonds, n)
        det_m, numerators = _assert_solve_matches_oracle(d)
        rows = cramer_matrix(d)
        assert det_m == sympy_det(rows)
        for i in range(n):
            replaced = [row[:i] + (IntPoly.one() if k == 0 else IntPoly(),) + row[i + 1:]
                        for k, row in enumerate(rows)]
            assert numerators[i] == sympy_det(replaced), (bonds, i)
        seen_sizes.add(n)
        seen_cycles += len(ends) == 2
    assert seen_sizes == set(range(2, 10)) and seen_cycles >= 10


def _assert_solve_matches_tree_oracle(d: Diagram) -> None:
    gf = generating_function(d)
    assert (gf.det_m, gf.numerators) == tree_solve(d), d.labels


def test_packed_solve_matches_the_z_t_tree_oracle():
    for d in catalog_extended():
        _assert_solve_matches_tree_oracle(d)
    for text in ("D128", "A127", "A128", "B128", "C128", "DD128", "CD64"):
        _assert_solve_matches_tree_oracle(_ext(text))


def test_packed_solve_on_large_random_trees():
    # wide stars with bonds of product 3 or 4 push the coefficients past 32
    # bits, where a slot too narrow for the bound would corrupt the decode
    rng = random.Random(20261019)
    pairs = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2))
    widest = 0
    for trial in range(156):
        n = 2 + trial % 39
        star = trial % 3 == 0
        bonds = {(rng.randrange(1, min(c, 3)) if star else rng.randrange(1, c), c): rng.choice(pairs)
                 for c in range(2, n)}
        ends = rng.sample(range(1, n), 2) if n > 2 and rng.random() < 0.3 else [rng.randrange(1, n)]
        for u in ends:
            bonds[0, u] = rng.choice(pairs)
        d = _hand_made(bonds, n)
        _assert_solve_matches_tree_oracle(d)
        gf = generating_function(d)
        widest = max(widest, *(abs(c).bit_length() for p in (gf.det_m, *gf.numerators)
                               for c in p.coeffs))
    assert widest > 32


def test_tree_solve_domain_errors():
    with pytest.raises(DomainError, match="extended"):
        generating_function(build(DiagramId("E6")))
    one = (1, 1)
    with pytest.raises(DomainError, match="cycle"):  # a triangle in F
        generating_function(_hand_made({(0, 1): one, (1, 2): one, (2, 3): one, (1, 3): one}, 4))
    with pytest.raises(DomainError, match="disconnected"):  # vertex 0 joins two parts of F
        generating_function(_hand_made({(0, 1): one, (0, 2): one}, 3))
    with pytest.raises(DomainError, match="disconnected"):
        generating_function(_hand_made({(0, 1): one, (2, 3): one}, 4))
    with pytest.raises(DomainError, match="no neighbours"):
        generating_function(_hand_made({(1, 2): one}, 3))
    # the messages name the diagram; _make checks the matrix as build does
    lonely = _make(None, True, ("a0", "v1"), IntMatrix(((2, 0), (0, 2))))
    with pytest.raises(DomainError) as exc:
        generating_function(lonely)
    assert str(exc.value) == "the affine vertex of extended diagram with no catalog id has no neighbours"
    split = _make(None, True, ("a0", "v1", "v2"), IntMatrix(((2, -1, 0), (-1, 2, 0), (0, 0, 2))))
    with pytest.raises(DomainError) as exc:
        generating_function(split)
    assert str(exc.value) == "the finite part of extended diagram with no catalog id is disconnected"


def test_generating_function_a1():
    gf = generating_function(_ext("A1"))
    assert RatFunc(gf.numerators[0], gf.det_m) == RatFunc(1 + T**2, (1 - T**2) ** 2)
    assert RatFunc(gf.numerators[1], gf.det_m) == RatFunc(2 * T, (1 - T**2) ** 2)


def test_generating_function_e6_components():
    ext = _ext("E6")
    gf = generating_function(ext)
    den = (1 - T**6) * (1 - T**8)
    assert RatFunc(gf.numerators[0], gf.det_m) == RatFunc(1 + T**12, den)
    # y3 carries the attachment vertex
    y3 = ext.index_of("y3")
    assert RatFunc(gf.numerators[y3], gf.det_m) == RatFunc(T + T**5 + T**7 + T**11, den)
    x1 = ext.index_of("x1")
    assert RatFunc(gf.numerators[x1], gf.det_m) == RatFunc(T**4 + T**8, den)


def test_closed_form_component0():
    # the pair is returned unreduced
    assert closed_form_component0(DiagramId("E7")) == (1 + T**18, (1 - T**8) * (1 - T**12))
    assert closed_form_component0(DiagramId("A", 1)) == (1 + T**2, (1 - T**2) ** 2)
    assert closed_form_component0(DiagramId("D", 4)) == (1 + T**6, (1 - T**4) ** 2)


def test_closed_form_matches_cramer_for_ade():
    for text in ("A1", "A2", "A5", "D4", "D7", "E6", "E7", "E8"):
        did = DiagramId.parse(text)
        gf = generating_function(build(did, extended=True))
        assert RatFunc(gf.numerators[0], gf.det_m) == RatFunc(*closed_form_component0(did))
        assert verify_closed_form(did).passed


def test_multiplicities_a1():
    vectors = multiplicities(_ext("A1"), 5)
    assert [v[0] for v in vectors] == [1, 0, 3, 0, 5]
    assert [v[1] for v in vectors] == [0, 2, 0, 4, 0]


def test_component_series_is_a_column_of_multiplicities():
    n = 60
    for d in (*catalog_extended(), _ext("D128"), _ext("A128")):
        gf = generating_function(d)
        columns = [component_series(d, i, n) for i in range(d.size)]
        vectors = multiplicities(d, n)
        for i, col in enumerate(columns):
            assert col == tuple(v[i] for v in vectors), (d.did, i)
            # the series times det M is the numerator through degree n - 1
            prod = IntPoly(col) * gf.det_m
            assert all(prod.coeff(k) == gf.numerators[i].coeff(k) for k in range(n)), (d.did, i)


def test_packed_series_where_the_slots_fill():
    """Long enough that the entries would not fit slots one byte narrower:
    every column still equals the per-component recurrence."""
    for text, n in (("A1", 3000), ("E8", 3000), ("G2", 1000), ("C2", 300)):
        d = _ext(text)
        columns, w, negative, _ = packed_series(d, n)
        assert negative is None, text
        rows = [component_series(d, i, n) for i in range(d.size)]
        assert max(map(max, rows)) >= 2 ** (w - 9), text
        assert columns == _pack(rows, w), text


def test_packed_series_returns_the_numerators_at_its_width():
    """The numerators packed_series forms for the product are y_i(2^w) at
    the width of its columns, as `_pack` writes generating_function's: on
    the catalog, and at the rank limit where the width is widest."""
    for d in (*catalog_extended(), _ext("D128"), _ext("A127")):
        _, w, _, numerators = packed_series(d, 3)
        assert numerators == _pack((p.coeffs for p in generating_function(d).numerators), w), d.name


def _relation_vectors(rng, b: IntMatrix, n: int, scale: int) -> list[tuple[int, ...]]:
    """v_0 random, v_(k+1) = B v_k - v_(k-1) from v_(-1) = 0, then about one
    vector in three with one entry moved: some relations hold, some fail."""
    v = [tuple(rng.randrange(-scale, scale + 1) for _ in range(b.ncols))]
    prev = (0,) * b.ncols
    while len(v) < n:
        prev, nxt = v[-1], tuple(x - y for x, y in zip(matvec(b, v[-1]), prev))
        v.append(nxt)
    for k in range(n):
        if rng.random() < 0.35:
            vk = list(v[k])
            vk[rng.randrange(b.ncols)] += rng.choice((-1, 1)) * rng.randrange(1, scale + 2)
            v[k] = tuple(vk)
    return v


def test_packed_three_term_against_the_list_oracle():
    """Random signed B and vectors, N in {1, 2, 3} and longer, slots of 8 to
    well over 64 bits."""
    rng = random.Random(11)
    for trial in range(300):
        size = rng.randrange(1, 6)
        b = IntMatrix([[rng.randrange(-2, 3) for _ in range(size)] for _ in range(size)])
        n = rng.choice((1, 2, 3, rng.randrange(4, 12)))
        v = _relation_vectors(rng, b, n, rng.choice((1, 100, 2**70)))
        r = max(sum(map(abs, row)) for row in b.rows)
        w = _width(max(r, 2) * max(abs(x) for vk in v for x in vk))
        columns = _pack(zip(*v), w)
        zero = (0,) * size
        expected = list_three_term(b, [zero, *v, zero])
        rows = relation_rows(b, [IntPoly(col) for col in zip(*v)])
        assert _three_term(matvec(b, columns), columns, w, n) == (rows, expected), (trial, b, v)


def test_packed_three_term_with_a_negative_slot_0():
    """v_0 = -1 and N = 1: the packed column shifted right is -1, not the
    empty column 0, so a check by >> would read v_1 = -1 and fail B v_0 = 0
    = v_(-1) + v_1."""
    b = IntMatrix(((0,),))
    (col,) = _pack([[-1]], 8)
    assert col >> 8 == -1
    assert _three_term(matvec(b, [col]), [col], 8, 1) == ([False], [True])  # the row is 0 = -1 - t^2
    (col,) = _pack([[-1, 0]], 8)
    assert _three_term(matvec(b, [col]), [col], 8, 2) == ([False], [True, False])


def test_negative_coefficient_names_its_component_and_degree(monkeypatch):
    d = _ext("E6")
    gf = generating_function(d)
    i, k = d.size - 1, 7
    coeff = component_series(d, i, 12)[k]
    nums = list(gf.numerators)
    # det M(0) = 1, so this lowers the series by coeff + 3 at t^k and keeps lower degrees
    nums[i] = nums[i] - (coeff + 3) * IntPoly.monomial(k)
    broken = gf._replace(numerators=tuple(nums))
    real = kostant.generating_function
    monkeypatch.setattr(kostant, "generating_function", lambda g: broken if g == d else real(g))
    message = f"component {d.labels[i]} coefficient at t^{k} is -3"
    with pytest.raises(IdentityViolationError) as exc:
        component_series(d, i, 12)
    assert str(exc.value) == message
    # the packed columns name it too, from the one expansion of 1/det M
    calls, expand = [], kostant.series_expand
    monkeypatch.setattr(kostant, "series_expand", lambda *args: calls.append(args) or expand(*args))
    with pytest.raises(IdentityViolationError) as exc:
        multiplicities(d, 12)
    assert str(exc.value) == message
    assert len(calls) == 1
    with pytest.raises(IdentityViolationError) as exc:
        mckay_matrix_numeric(BpgId.parse("binary_tetrahedral"), 11)  # McKay group of E6
    assert str(exc.value) == message
    assert min(component_series(d, 0, 12)) >= 0  # component 0 is not broken
    # the columns come back signed with the error, not in its place
    columns, w, negative, _ = packed_series(d, 12)
    assert str(negative) == message
    vectors = list(zip(*(_unpack(col, 12, w) for col in columns)))
    assert vectors[k][i] == -3 and min(min(v) for v in vectors[:k]) >= 0
    # with mckay reading the broken numerators too, the report keeps its
    # three lines: the nonnegativity line reads the sign, the shift line the
    # signed columns, exactly, and the Z[t] line the numerators
    monkeypatch.setattr(mckay, "generating_function", kostant.generating_function)
    r = verify_kostant_relation(d, 11)
    zero = (0,) * d.size
    shift = all(list_three_term(d.bonds, [zero, *vectors])[1:])
    assert r.checks == (
        ("series coefficients are nonnegative integers", False),
        ("B v_n = v_(n-1) + v_(n+1) for 1 <= n <= 10", shift),
        ("t B x = (1 + t^2) x - e0", False),
    )
    assert not shift


def test_packed_series_names_the_first_negative_column(monkeypatch):
    """y_1 and y_6 of E6 lowered by 10 t^9 and 10 t^5: every column comes
    back equal to its signed series, and the witness names column 1, the
    first with a negative slot, though column 6 turns negative at a lower
    degree."""
    d = _ext("E6")
    gf = generating_function(d)
    nums = list(gf.numerators)
    nums[1] -= 10 * IntPoly.monomial(9)
    nums[6] -= 10 * IntPoly.monomial(5)
    broken = gf._replace(numerators=tuple(nums))
    real = kostant.generating_function
    monkeypatch.setattr(kostant, "generating_function", lambda g: broken if g == d else real(g))
    columns, w, negative, _ = packed_series(d, 12)
    rows = [series_expand(p, 12, gf.det_m) for p in nums]
    assert columns == _pack(rows, w)
    k = next(k for k, c in enumerate(rows[1]) if c < 0)
    assert min(rows[6][:k]) < 0
    assert str(negative) == f"component {d.labels[1]} coefficient at t^{k} is {rows[1][k]}"


def test_kostant_relation_reports():
    assert verify_kostant_relation(_ext("E6"), 40).passed
    r = verify_kostant_relation(_ext("A1"), 10)
    assert r.passed
    # spot value: 2 m_1(1) = m_0(0) + m_0(2)
    v = multiplicities(_ext("A1"), 3)
    assert 2 * v[1][1] == v[0][0] + v[2][0]
    assert verify_kostant_relation(_ext("F4"), 40).passed


@pytest.mark.parametrize("n", [5, 20])
def test_kostant_relation_shift_line_fails_alone(monkeypatch, n):
    """Extended E6 at 20 terms with one entry of v_n off by one, v_20 being
    the last vector read: the recurrence line fails and the other two, which
    never read v, still pass."""
    real = mckay.packed_series

    def patched(d, nterms):
        v, w, negative, y = real(d, nterms)
        v[2] += 1 << (w * n)  # slot n of column 2
        return v, w, negative, y

    monkeypatch.setattr(mckay, "packed_series", patched)
    r = verify_kostant_relation(_ext("E6"), 20)
    assert [label for label, ok in r.checks if not ok] == [
        "B v_n = v_(n-1) + v_(n+1) for 1 <= n <= 19"
    ]


def test_ebeling_reports_spot():
    for text in ("A1", "A2", "A3", "D4", "E6", "G2", "F4dual", "B3", "C3", "DD3", "CD3"):
        assert verify_ebeling(_ext(text)).passed, text


def test_series_nonnegative_integers_on_catalog():
    for d in catalog_extended():
        assert all(all(c >= 0 for c in v) for v in multiplicities(d, 30))


def test_generating_function_constant_terms():
    for text in ("A4", "D5", "E7", "C4", "DD4"):
        gf = generating_function(_ext(text))
        assert gf.numerators[0].coeff(0) == 1
        assert all(num.coeff(0) == 0 for num in gf.numerators[1:])
        assert gf.det_m.coeff(0) == 1
