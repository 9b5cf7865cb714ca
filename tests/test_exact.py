"""Exact arithmetic kernel: frozen oracle values and randomized properties."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import sympy

from dynkinlab import exact as exact_module
from dynkinlab.coxeter import bicolored_reflections, coxeter_transform
from dynkinlab.diagram import DiagramId, build, catalog_extended, finite_part
from dynkinlab.errors import DimensionError, DomainError, PoleAtOriginError, RankError
from dynkinlab.exact import (
    IntMatrix,
    IntPoly,
    RatFunc,
    charpoly,
    format_poly,
    format_ratfunc,
    nullspace_primitive,
    poly_gcd,
    series_expand,
    _agree,
    _decode,
    _echelon,
    _fits,
    _l1,
    _low_slots,
    _norm,
    _order,
    _pack,
    _sparse_left,
    _three_term,
    _unpack,
    _width,
)
from dynkinlab.kostant import generating_function
from oracles import (
    cramer_solve,
    det,
    gather_series,
    gauss_jordan_nullspace,
    lincomb,
    list_charpoly,
    list_matmul,
    list_three_term,
    matvec,
    parse_poly,
    perm_det,
    relation_rows,
    sympy_det,
    zeros,
)

T = IntPoly.monomial(1)


def int_det(m: IntMatrix) -> int:
    """Determinant of an integer matrix, read off its characteristic polynomial."""
    p = charpoly(m)
    return p.coeff(0) if m.nrows % 2 == 0 else -p.coeff(0)


def eval_matrix(p: IntPoly, m: IntMatrix) -> IntMatrix:
    """p(m) by Horner's rule."""
    n = m.nrows
    acc = zeros(n, n)
    for c in reversed(p.coeffs):
        acc = lincomb((1, acc @ m), (c, IntMatrix.identity(n)))
    return acc


def lambda_identity_minus(m: IntMatrix) -> tuple[tuple[IntPoly, ...], ...]:
    """The rows of x*I - m over Z[x]."""
    x = IntPoly.monomial(1)
    return tuple(
        tuple(x - m.rows[i][j] if i == j else IntPoly((-m.rows[i][j],)) for j in range(m.ncols))
        for i in range(m.nrows)
    )


def random_poly_rows(rng, n, density=0.6):
    return [
        [
            IntPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
            if rng.random() < density else IntPoly()
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def test_poly_normalization():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0)).coeffs == ()
    assert IntPoly().is_zero()
    assert IntPoly((5,)).degree == 0
    assert IntPoly().degree == -1


def test_public_constructor_checks_types_and_results_stay_trimmed():
    with pytest.raises(TypeError):
        IntPoly((1, 2.0))
    with pytest.raises(TypeError):
        IntPoly((Fraction(1, 2),))
    # kernel results skip the type check but are still trimmed
    assert ((T + 1) - T).coeffs == (1,)
    assert ((T**2 + T) + (-(T**2))).coeffs == (0, 1)
    assert (3 * T - 3 * T).coeffs == ()
    assert (2 * T**2 + 4).primitive().coeffs == (2, 0, 1)
    assert (T**2 - 1).divexact(T - 1).coeffs == (1, 1)


def test_poly_arithmetic():
    p = 1 + 2 * T**3 - T**5
    assert p.coeffs == (1, 0, 0, 2, 0, -1)
    assert (T - 1) * (T + 1) == T**2 - 1
    assert (T + 1) ** 2 == T**2 + 2 * T + 1
    assert p(1) == 2
    assert p(Fraction(1, 2)) == Fraction(1, 1) + Fraction(2, 8) - Fraction(1, 32)
    # a zero factor, the empty polynomial or the int 0, on either side
    for q in (T - 2, -3 * T**4 + 6, IntPoly((5,)), IntPoly()):
        for zero in (IntPoly(), 0):
            for product in (q * zero, zero * q):
                assert isinstance(product, IntPoly) and product.coeffs == (), (q, zero)


@pytest.mark.parametrize("c", (-2, 0, 1, 7))
def test_constant_poly_hashes_like_its_int(c):
    p = IntPoly((c,))
    assert p == c and hash(p) == hash(c)
    assert len({p, c}) == 1
    assert {c: "x"}[p] == "x"


def test_poly_divexact():
    assert (T**3 + 1).divexact(T + 1) == T**2 - T + 1
    assert (T**2 - 1).divexact(T - 1) == T + 1
    with pytest.raises(ArithmeticError):
        (T**2 + 1).divexact(T + 1)


def test_poly_gcd():
    assert poly_gcd(T**3 + 1, T + 1) == T + 1
    assert poly_gcd(IntPoly(), IntPoly()) == IntPoly()
    assert poly_gcd(2 * T - 2, 4 * T - 4) == 2 * T - 2
    # sign normalization: leading coefficient of the gcd is positive
    assert poly_gcd(-T + 1, T**2 - 1) == T - 1


def _sympy_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    x = sympy.Symbol("x")
    p, q = (sympy.Poly(list(reversed(f.coeffs)) or [0], x, domain="ZZ") for f in (p, q))
    return IntPoly(int(c) for c in reversed(sympy.gcd(p, q).all_coeffs()))


def test_poly_gcd_with_zero_operands_against_sympy():
    """gcd(p, 0) = gcd(0, p) is p with content kept and sign made positive,
    and gcd(0, 0) = 0, from the remainder sequence alone: operands with a
    negative leading coefficient and content above 1, constants among them,
    in both orders, and random pairs of which some are zero."""
    zero = IntPoly()
    signed = (-6 * T**2 + 6, -4 * T + 4, 9 * T**3 - 3 * T, IntPoly((-6,)), IntPoly((4,)), T**2 + 1)
    for p in (zero, *signed):
        for q in (zero, *signed):
            assert poly_gcd(p, q) == _sympy_gcd(p, q), (p, q)
    assert poly_gcd(zero, -6 * T**2 + 6) == poly_gcd(-6 * T**2 + 6, zero) == 6 * T**2 - 6
    assert poly_gcd(zero, IntPoly((-6,))) == 6
    rng = random.Random(1967)
    for _ in range(200):
        p, q = (rng.choice((0, -1, 1, 2, -3)) * IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
                for _ in range(2))
        assert poly_gcd(p, q) == _sympy_gcd(p, q), (p, q)


def test_charpoly_frozen_values():
    assert charpoly(IntMatrix(())) == IntPoly.one()
    assert charpoly(IntMatrix.identity(2)) == (T - 1) ** 2
    assert charpoly(IntMatrix(((0, 0, 0),) * 3)) == T**3  # row norm 0
    # Coxeter transformation of the rank-2 chain
    assert charpoly(IntMatrix(((0, -1), (1, -1)))) == T**2 + T + 1


def test_det_poly_frozen_values():
    q = 1 + T**2
    assert det(((q, 0), (0, q))) == q**2
    # rank-1 affine chain: ((1+t^2, -2t), (-2t, 1+t^2))
    m = ((q, -2 * T), (-2 * T, q))
    assert det(m) == (1 - T**2) ** 2


def test_det_poly_six_cycle():
    # (1+t^2) I - t A for the 6-cycle has determinant (t^6 - 1)^2
    q = 1 + T**2
    rows = [[IntPoly()] * 6 for _ in range(6)]
    for i in range(6):
        rows[i][i] = q
        rows[i][(i + 1) % 6] = -T
        rows[i][(i - 1) % 6] = -T
    assert det(rows) == (T**6 - 1) ** 2


def test_det_poly_pivoting():
    # antidiagonal matrix forces row swaps inside Bareiss
    n = 5
    rows = [
        [(1 + T) if j == n - 1 - i else IntPoly() for j in range(n)] for i in range(n)
    ]
    assert det(rows) == (1 + T) ** 5

    # a singular matrix with a zero column block
    rows = [[IntPoly()] * 5 for _ in range(5)]
    for i in range(5):
        rows[i][0] = IntPoly((i + 1,))
        rows[i][1] = IntPoly((2 * (i + 1),))
        rows[i][2] = T
        rows[i][3] = T**2
        rows[i][4] = IntPoly((1,))
    with pytest.raises(RankError):
        cramer_solve(rows, [0] * 5)


def test_series_frozen_values():
    e = RatFunc(1, 1 - T)
    assert series_expand(e.num, 5, e.den) == [1, 1, 1, 1, 1]
    f = RatFunc(1 + T**12, (1 - T**6) * (1 - T**8))
    assert series_expand(f.num, 13, f.den) == [1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 2]
    g = RatFunc(T**4 + T**8, (1 - T**6) * (1 - T**8))
    coeffs = series_expand(g.num, 22, g.den)
    assert coeffs[4] == 1
    assert all(coeffs[k] == 0 for k in range(1, 22, 2))


def test_series_with_a_non_unit_constant_term():
    # 1 / (2 - t) = sum t^k / 2^(k+1) is not in Z[[t]]
    with pytest.raises(DomainError, match="constant term 2 is not a unit"):
        series_expand(IntPoly.one(), 4, 2 - T)


def test_series_pole_at_origin():
    with pytest.raises(PoleAtOriginError):
        f = RatFunc(1, T)
        series_expand(f.num, 3, f.den)


def test_nullspace_frozen_values():
    assert nullspace_primitive(IntMatrix(((2, -2), (-2, 2)))) == (1, 1)
    # four outer vertices joined to a single center, center listed last
    k4 = IntMatrix(
        (
            (2, 0, 0, 0, -1),
            (0, 2, 0, 0, -1),
            (0, 0, 2, 0, -1),
            (0, 0, 0, 2, -1),
            (-1, -1, -1, -1, 2),
        )
    )
    assert nullspace_primitive(k4) == (1, 1, 1, 1, 2)
    with pytest.raises(RankError):
        nullspace_primitive(IntMatrix.identity(2))
    with pytest.raises(RankError):
        nullspace_primitive(zeros(2, 2))


def sympy_primitive_kernel(m: IntMatrix) -> tuple[int, ...] | None:
    """The primitive integer kernel vector with positive entries, from sympy's
    rational nullspace; None unless the kernel is one-dimensional and one
    sign of its generator is strictly positive."""
    basis = sympy.Matrix(m.rows).nullspace()
    if len(basis) != 1:
        return None
    v = list(basis[0])
    scale = sympy.ilcm(*(sympy.fraction(x)[1] for x in v))
    ints = [int(x * scale) for x in v]
    g = sympy.igcd(*ints)
    ints = [x // g for x in ints]
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    return tuple(ints) if all(x > 0 for x in ints) else None


def random_corank_one(rng, n: int, kernel: list[int]) -> IntMatrix:
    """A random n x len(kernel) integer matrix with `kernel` (last entry 1)
    in its kernel: len(kernel) - 1 random rows orthogonal to it, then
    integer combinations of those up to n rows, shuffled."""
    cols = len(kernel)
    rows = []
    for _ in range(cols - 1):
        head = [rng.randint(-3, 3) for _ in range(cols - 1)]
        rows.append(head + [-sum(a * v for a, v in zip(head, kernel))])
    while len(rows) < n:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    rng.shuffle(rows)
    return IntMatrix(rows)


def test_nullspace_against_sympy_on_extended_cartan_matrices():
    for ext in catalog_extended():
        expected = sympy_primitive_kernel(ext.cartan)
        assert expected is not None, ext.did.text
        assert nullspace_primitive(ext.cartan) == expected, ext.did.text


def test_nullspace_against_sympy_random():
    rng = random.Random(60810)
    seen = {"vector": 0, "rank": 0}
    for _ in range(120):
        cols = rng.randint(2, 9)
        sign = rng.choice((1, -1, 1))
        kernel = [sign * rng.randint(1, 4) for _ in range(cols - 1)] + [1]
        m = random_corank_one(rng, rng.randint(cols - 1, cols + 1), kernel)
        expected = sympy_primitive_kernel(m)
        if expected is None:
            seen["rank"] += 1
            with pytest.raises(RankError):
                nullspace_primitive(m)
        else:
            seen["vector"] += 1
            assert nullspace_primitive(m) == expected
    assert min(seen.values()) >= 20  # both branches are exercised


def test_nullspace_rank_errors():
    with pytest.raises(RankError, match="kernel dimension is 0"):
        nullspace_primitive(IntMatrix(((2, -1), (-1, 2))))
    with pytest.raises(RankError, match="kernel dimension is 2"):
        nullspace_primitive(IntMatrix(((1, 1, 1),)))
    with pytest.raises(RankError, match="not strictly positive"):
        nullspace_primitive(IntMatrix(((1, 1), (2, 2))))
    with pytest.raises(RankError, match="not strictly positive"):
        nullspace_primitive(IntMatrix(((1, 0, 0), (0, 1, -1))))


def random_shaped_corank_one(rng, n: int, cycle: bool) -> list[list[int]]:
    """The rows of an n x n matrix supported on the diagonal and the edges of
    a random labelled tree, or of a cycle through all n vertices, with a
    random kernel vector v (some entries negative): edge entries a_ij are
    random, row i is v_i a_i off the diagonal and -sum_j a_ij v_j on it."""
    signs = (1, 1, 1, 1, -1) if rng.random() < 0.3 else (1,)
    v = [rng.choice(signs) * rng.randint(1, 5) for _ in range(n)]
    order = rng.sample(range(n), n)
    if cycle:
        edges = list(zip(order, order[1:] + order[:1]))
    else:
        edges = [(order[k], order[rng.randrange(k)]) for k in range(1, n)]
    a = [[0] * n for _ in range(n)]
    for i, j in edges:
        a[i][j], a[j][i] = rng.choice((-3, -2, -1, -1, 1)), rng.choice((-2, -1, -1, 2))
    rows = [[v[i] * x for x in row] for i, row in enumerate(a)]
    for i in range(n):
        rows[i][i] = -sum(x * y for x, y in zip(a[i], v))
    return rows


def random_elimination_inputs(rng):
    """Random corank-one matrices, tree- and cycle-shaped up to n = 40 and
    dense up to 16 columns, shuffled so that pivots need row swaps; some are
    made non-square by two dropped rows or one added row, some regular by
    one changed entry."""
    for case in range(240):
        n = rng.randint(2, 40)
        if case % 3 == 2:
            cols = rng.randint(2, 16)
            signs = (1, 1, -1) if rng.random() < 0.3 else (1,)
            kernel = [rng.choice(signs) * rng.randint(1, 4) for _ in range(cols - 1)] + [1]
            rows = [list(row) for row in random_corank_one(rng, cols - 1, kernel).rows]
        else:
            rows = random_shaped_corank_one(rng, n, cycle=case % 3 == 1)
        change = rng.randrange(6)
        if change == 0 and len(rows) > 2:
            del rows[:2]
        elif change == 1:
            rows.append([2 * x - y for x, y in zip(rng.choice(rows), rng.choice(rows))])
        elif change == 2:
            i = rng.randrange(len(rows))
            rows[i][rng.randrange(len(rows[i]))] += 1
        rng.shuffle(rows)
        yield IntMatrix(rows)


def kernel_or_error(solve, m: IntMatrix):
    try:
        return solve(m)
    except RankError as exc:
        return str(exc)


def test_nullspace_against_gauss_jordan_oracle():
    seen: dict[str, int] = {}
    for m in random_elimination_inputs(random.Random(1961)):
        got = kernel_or_error(nullspace_primitive, m)
        assert got == kernel_or_error(gauss_jordan_nullspace, m), m
        key = got if isinstance(got, str) else "vector"
        seen[key] = seen.get(key, 0) + 1
    for key in ("vector", "kernel dimension is 0, expected 1",
                "kernel dimension is 2, expected 1", "kernel vector is not strictly positive"):
        assert seen.get(key, 0) >= 15, seen


def test_echelon_rows_are_primitive_and_triangular():
    """Each changed row is divided by its gcd, so from primitive input rows
    every pivot row is primitive; it starts at its pivot, stores no zero,
    and there is one pivot row per unit of rank."""
    for m in random_elimination_inputs(random.Random(1968)):
        m = IntMatrix([x // math.gcd(*row) for x in row] if any(row) else row for row in m.rows)
        pivots = _echelon(m)
        got = kernel_or_error(gauss_jordan_nullspace, m)
        dim = isinstance(got, str) and got.startswith("kernel dimension")
        corank = int(got.split()[3][:-1]) if dim else 1
        assert len(pivots) == m.ncols - corank
        assert [c for c, _ in pivots] == sorted({c for c, _ in pivots})
        for c, row in pivots:
            assert min(row) == c and 0 not in row.values()
            assert math.gcd(*row.values()) == 1, (m, c, row)


def naive_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The triple loop straight from the definition."""
    return IntMatrix(
        tuple(sum(a[i, k] * b[k, j] for k in range(a.ncols)) for j in range(b.ncols))
        for i in range(a.nrows)
    )


def _random_factor(rng: random.Random, rows: int, cols: int) -> IntMatrix:
    """A random matrix, dense to very sparse, with entries +-1, small and
    large; an all-zero row and an all-zero column, each half the time."""
    density = rng.choice((0.1, 0.3, 0.6, 1.0))
    out = [[rng.choice((1, -1, rng.randint(-9, 9), rng.randint(-10**12, 10**12)))
            if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.5:
        out[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.5:
        j = rng.randrange(cols)
        for row in out:
            row[j] = 0
    return IntMatrix(out)


def test_matmul_against_triple_loop():
    rng = random.Random(1976)
    for _ in range(300):
        n, k, m = rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12)
        a, b = _random_factor(rng, n, k), _random_factor(rng, k, m)
        assert a @ b == naive_matmul(a, b) == list_matmul(a, b)
        assert ((a @ b).nrows, (a @ b).ncols) == (n, m)
    # entries +-1 take the addition and subtraction shortcuts
    a = IntMatrix(((1, -1, 0), (-1, 0, 2)))
    b = IntMatrix(((3, 4), (5, 6), (7, 8)))
    assert a @ b == naive_matmul(a, b) == IntMatrix(((-2, -2), (11, 12)))
    # k x 0 times 0 x 0 (a matrix with no rows has shape (0, 0))
    for k in range(4):
        empty_cols = IntMatrix(((),) * k)
        assert (empty_cols.nrows, empty_cols.ncols) == (k, 0)
        assert empty_cols @ IntMatrix(()) == naive_matmul(empty_cols, IntMatrix(())) == empty_cols
    assert IntMatrix(()) @ IntMatrix(()) == IntMatrix(())
    with pytest.raises(DimensionError):
        IntMatrix(((1, 2),)) @ IntMatrix(((1, 2),))
    with pytest.raises(DimensionError):
        IntMatrix(()) @ IntMatrix(((1, 2),))


def test_coxeter_transform_against_triple_loop():
    """C = w2 w1 on every bipartite catalog diagram, finite and extended, and
    at the rank limit, where w1 and w2 have a few nonzeros per row."""
    diagrams = [d for ext in catalog_extended() for d in (ext, finite_part(ext))]
    diagrams += [build(DiagramId.parse(name)) for name in ("D128", "A127", "B128")]
    diagrams = [d for d in diagrams if d.bipartition is not None]
    assert len(diagrams) > 80
    for d in diagrams:
        pair = bicolored_reflections(d)
        assert coxeter_transform(d) == naive_matmul(pair.w2, pair.w1), d.labels


def test_sparse_left_against_the_dense_sum():
    """The sparse product against sum(a * b) over every entry of the row,
    on int and IntPoly vectors; an identity row i gives x[i] itself, not a
    sum equal to it, and an all-zero row gives the vector's zero.  Square
    and non-square matrices, with and without identity rows."""
    rng = random.Random(1977)
    kept_rows = 0
    for _ in range(120):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(k)] for _ in range(n - 1)] + [[0] * k]
        for i in range(min(n - 1, k)):
            if rng.random() < 0.4:
                rows[i] = [int(j == i) for j in range(k)]
        m = IntMatrix(rows)
        kept = [i for i, row in enumerate(m.rows) if i < k and row == tuple(int(j == i) for j in range(k))]
        kept_rows += len(kept)
        product = _sparse_left(m)
        ints = tuple(rng.randint(-9, 9) << 80 for _ in range(k))
        polys = tuple(IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 4))])
                      for _ in range(k))
        for v in (ints, polys):
            out = product(v)
            assert tuple(out) == matvec(m, v)
            assert all(out[i] is v[i] for i in kept)
        assert type(product(ints)[-1]) is int
        last = product(polys)[-1]
        assert isinstance(last, IntPoly) and last.is_zero()
    assert kept_rows > 50
    assert _sparse_left(IntMatrix(()))(()) == []
    assert _sparse_left(IntMatrix(((),) * 3))(()) == [0, 0, 0]
    # a bicolored involution of D37 sums only its class rows; the rest pass through
    pair = bicolored_reflections(build(DiagramId("D", 37)))
    x = [IntPoly((i, 1)) for i in range(37)]
    for w in pair:
        out = _sparse_left(w)(x)
        moved = [i for i in range(37) if out[i] is not x[i]]
        assert moved == [i for i, row in enumerate(w.rows) if row[i] == -1]
        assert tuple(out) == matvec(w, x)


def test_int_matrix_is_a_plain_value():
    """No slot but the rows, so no product, order or polynomial is kept on it."""
    assert IntMatrix.__slots__ == ("rows",)
    m = IntMatrix(((0, 1), (-1, -1)))  # order 3
    rows, twin = m.rows, IntMatrix(m.rows)
    assert _sparse_left(m)((1, 2)) == [2, -3]
    assert (m @ m).rows == ((-1, -1), (1, 0))
    assert charpoly(m) == IntPoly((1, 1, 1))
    assert _order((m,), 10) == 3
    assert m.rows is rows and m == twin and hash(m) == hash(twin)
    with pytest.raises(AttributeError):
        m.rows = ()


def test_norm_against_the_dense_row_sums():
    """||shift I + m|| is the largest row sum of |entries| of shift I + m,
    formed entry by entry, for signed matrices and the shifts -1, 0 and 1
    that the package asks for."""
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 7)
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        for shift in (-1, 0, 1):
            dense = lincomb((shift, IntMatrix.identity(n)), (1, m))
            assert _norm(m, shift) == max(sum(map(abs, row)) for row in dense.rows), (m, shift)


@pytest.mark.parametrize("bound", [0, 1, 127, 128, 2**63 - 1, 2**63, 2**100])
def test_width_is_the_least_byte_multiple_above_the_bound(bound):
    w = _width(bound)
    assert w % 8 == 0 and bound < 2 ** (w - 1)
    assert w == 8 or bound >= 2 ** (w - 9)


def test_pack_and_unpack_against_the_shift_sum():
    """_pack is sum(v << (w j)) by bytes, _unpack its inverse, for signed
    entries up to the slot limit, slots wider than 64 bits and short rows;
    _decode reads a polynomial back with its slot count from the top bit."""
    rng = random.Random(17)
    for w in (8, 16, 24, 32, 64, 72, 136):
        half = 1 << (w - 1)
        for n in (0, 1, 2, 3, 40):
            rows = [[rng.choice((-half, half - 1, 0, rng.randrange(-half, half))) for _ in range(n)]
                    for _ in range(4)]
            packed = _pack(rows, w)
            assert packed == [sum(v << (w * j) for j, v in enumerate(row)) for row in rows]
            assert [_unpack(x, n, w) for x in packed] == rows
    # the accepted range is [-2^(w-1), 2^(w-1)) at the struct widths and off them
    for w in (8, 16, 24, 32, 64):
        half = 1 << (w - 1)
        for v in (half, -half - 1):
            for row in ([v], [0, v, 0], [half - 1] * 3 + [v]):
                with pytest.raises(OverflowError):
                    _pack([[1, -1], row], w)
    # _decode reads bit_length() // w + 1 slots: the zero value, one slot, and
    # a top slot of either sign over lower slots of either extreme; a top slot
    # of 1 over slots of -(2^(w-1) - 1) leaves x just above 2^(w(n-1) - 1),
    # where a count one short would overflow
    for w in (8, 16, 24, 32, 64, 72, 136):
        lim = (1 << (w - 1)) - 1
        assert _decode(0, w) == IntPoly()
        for top in (lim, -lim, 1, -1):
            assert _decode(top, w) == IntPoly((top,))
            for n in (2, 3, 40):
                for low in (lim, -lim, 0, None):
                    row = [rng.randint(-lim, lim) if low is None else low for _ in range(n - 1)]
                    (x,) = _pack([row + [top]], w)
                    assert x.bit_length() // w + 1 == n
                    assert _decode(x, w) == IntPoly(row + [top]), (w, n, top, low)


def _shift_sum(row, w: int) -> int:
    return sum(v << (w * j) for j, v in enumerate(row))


@pytest.mark.parametrize("w", [8, 16, 24, 32, 64, 72])
def test_slot_readers_against_the_shift_sum(w):
    """_low_slots, _decode and _three_term read rows built by the shift sum,
    not by _pack, at the widths _pack packs with one struct call (8, 16, 32,
    64) and at two it packs byte by byte (24, 72), with extreme slots."""
    rng, outcomes = random.Random(w), set()
    lim = (1 << (w - 1)) - 1
    for _ in range(200):
        n = rng.randint(1, 12)
        row = [rng.choice((-lim, lim, 0, rng.randint(-lim, lim))) for _ in range(n)]
        x = _shift_sum(row, w)
        assert _pack([row], w) == [x]
        v, nonnegative = _low_slots(x + (rng.randint(-(1 << 40), 1 << 40) << (w * n)), n, w)
        assert v == x and nonnegative == (min(row) >= 0)
        top = max((j for j, v in enumerate(row) if v), default=-1)
        assert _decode(x, w) == IntPoly(row[:top + 1])
    for _ in range(100):
        size, n = rng.randint(1, 5), rng.randint(1, 8)
        b = IntMatrix([[rng.randrange(-2, 3) for _ in range(size)] for _ in range(size)])
        scale = (lim // 16) >> rng.randrange(w - 5)  # |B v| <= 10 scale < 2^(w-1)
        v = [tuple(rng.randint(-scale, scale) for _ in range(size)) for _ in range(n)]
        if rng.random() < 0.5:  # make the relation hold at some n
            for k in range(1, n - 1):
                v[k + 1] = tuple(a - c for a, c in zip(matvec(b, v[k]), v[k - 1]))
            if max(abs(c) for vk in v for c in vk) > lim // 16:
                continue
        columns = [_shift_sum(col, w) for col in zip(*v)]
        zero = (0,) * size
        rows, holds = _three_term(matvec(b, columns), columns, w, n)
        assert holds == list_three_term(b, [zero, *v, zero])
        assert rows == relation_rows(b, [IntPoly(col) for col in zip(*v)])
        outcomes.update(holds)
    assert outcomes == {True, False}


@pytest.mark.parametrize("scale", [1, 50, 2**20, 2**40, 2**70])
def test_three_term_rows_and_e0_against_intpoly_products(scale):
    """rows and degrees of _three_term against the IntPoly differences d_i =
    t (B x)_i + e0 [i = 0] - (1 + t^2) x_i: rows[i] is d_i = 0, degrees[k]
    is coefficient k + 1 of every d_i zero.  B is random, signed and not
    symmetric; e0 cancels row 0 or is random; the width is the least that
    holds every slot of x, e0 and both sides, from 8 bits to past 64; n runs
    from 0 (rows only) to past the longest row, so slots past n + 1 are
    masked off in most trials."""
    rng, outcomes = random.Random(scale), set()
    for _ in range(60):
        size = rng.randint(1, 5)
        b = IntMatrix([[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)])
        x = [IntPoly(rng.randint(-scale, scale) * (rng.random() < 0.7) for _ in range(rng.randint(0, 7)))
             for _ in range(size)]
        bx = matvec(b, x)
        e0 = (1 + T**2) * x[0] - T * bx[0]
        if rng.random() < 0.5:
            e0 += IntPoly.monomial(rng.randrange(9), rng.choice((-1, 1)) * rng.randint(1, scale))
        lefts = [T * p + (e0 if i == 0 else 0) for i, p in enumerate(bx)]
        rights = [(1 + T**2) * p for p in x]
        w = _width(max((abs(c) for p in (*lefts, *rights, *x, e0) for c in p.coeffs), default=0))
        n = rng.randint(0, max(len(p.coeffs) for p in (*x, e0)) + 2)
        *packed, e0_packed = _pack([p.coeffs for p in (*x, e0)], w)
        rows, degrees = _three_term(matvec(b, packed), packed, w, n, e0_packed)
        diffs = [lhs - rhs for lhs, rhs in zip(lefts, rights)]
        assert rows == [not d for d in diffs] == relation_rows(b, x, e0)
        assert degrees == [all(d.coeff(k + 1) == 0 for d in diffs) for k in range(n)]
        outcomes.update((w, ok) for ok in rows)
    widths = {w for w, _ in outcomes}
    assert {ok for _, ok in outcomes} == {True, False}
    assert (max(widths) > 64) == (scale > 2**64) and (scale > 1 or widths == {8})


def test_low_slots_against_unpack():
    """_low_slots(x, n, w) is (v, nonnegative): v is _pack of the n low slots
    of x that _unpack reads, and nonnegative says that none is negative,
    whatever multiple of 2^(wn) lies above them: 1 to 40 slots of widths 8
    to 64, each slot zero, an extreme or random, all of one sign or of both."""
    rng = random.Random(2027)
    outcomes = set()
    for _ in range(3000):
        w, n = rng.choice((8, 16, 24, 32, 64)), rng.randint(1, 40)
        top = (1 << (w - 1)) - 1
        lo = rng.choice((0, -top))
        (packed,) = _pack([[rng.choice((lo, top, 0, rng.randint(lo, top))) for _ in range(n)]], w)
        x = packed + (rng.randint(-(1 << 70), 1 << 70) << (w * n))
        slots = _unpack(packed, n, w)
        v, nonnegative = _low_slots(x, n, w)
        assert [v] == _pack([slots], w), (w, n, slots)
        assert nonnegative == (min(slots) >= 0), (w, n, slots)
        outcomes.add(nonnegative)
    assert outcomes == {True, False}


def test_fits_against_the_largest_unpacked_slot():
    """_fits(rows, n, w, g) holds iff every slot v has -b <= v < b, b =
    2^(w-1-g): slots at -b and b - 1 pass and one step outside them fails, in
    the bottom slot and in a negative top slot, for g = 2 (the least the proof
    allows) up to g = w - 1, one to 40 slots and widths 8 to 136; random rows
    of every spread agree with the extremes of _unpack."""
    rng = random.Random(23)
    outcomes = set()
    for w in (8, 16, 24, 64, 72, 136):
        half = 1 << (w - 1)
        for g in sorted({2, 3, w // 2, w - 1}):
            b = 1 << (w - 1 - g)
            for n in (1, 2, 3, 40):
                for edge, inside in ((-b, True), (b - 1, True), (-b - 1, False), (b, False)):
                    for j in {0, n - 1}:
                        row = [rng.randrange(-b, b) for _ in range(n)]
                        row[j] = edge
                        assert _fits(_pack([row], w), n, w, g) is inside, (w, g, n, edge, j)
                # every slot at -b: the packed row is as negative as a passing row gets
                assert _fits(_pack([[-b] * n], w), n, w, g)
                for spread in (b // 2, b, b + 1, 2 * b, half):
                    rows = [[rng.randrange(-spread + 1, spread) if spread > 1 else 0 for _ in range(n)]
                            for _ in range(4)]
                    packed = _pack(rows, w)
                    slots = [v for x in packed for v in _unpack(x, n, w)]
                    want = -b <= min(slots) and max(slots) < b
                    assert _fits(packed, n, w, g) is want, (w, g, n, spread)
                    outcomes.add(want)
    assert outcomes == {True, False}
    # every row is read in all n slots, however short its own value: a row
    # that is 1 in slot 0 beside one whose top slot is 4, then 8 or -9
    assert _fits(_pack([[1] + [0] * 39, [0] * 39 + [4]], 8), 40, 8, 4)
    assert not _fits(_pack([[1] + [0] * 39, [0] * 39 + [8]], 8), 40, 8, 4)
    assert not _fits(_pack([[1] + [0] * 39, [0] * 39 + [-9]], 8), 40, 8, 4)


def _random_poly(rng, zero=0.0) -> IntPoly:
    """0 with probability zero, else 1 to 6 coefficients in [-9, 9]."""
    return IntPoly() if rng.random() < zero else IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])


def test_agree_against_intpoly_products():
    """_agree(nums, den, others, other_den)[i] is nums[i] other_den ==
    others[i] den as IntPoly products: c a / (a g) against c b / (b g), as
    built or with a random term added to c b, over numerators of different
    lengths, zero ones and negative coefficients; sides of unequal count
    are refused."""
    rng, outcomes = random.Random(36), set()
    for _ in range(400):
        a, b, g = (_random_poly(rng) or T for _ in range(3))
        cs = [_random_poly(rng, zero=0.2) for _ in range(rng.randint(1, 6))]
        nums = [c * a for c in cs]
        others = [c * b + (_random_poly(rng, zero=0.2) if rng.random() < 0.5 else 0) for c in cs]
        expected = [x * (b * g) == y * (a * g) for x, y in zip(nums, others)]
        assert _agree(nums, a * g, others, b * g) == expected, (nums, others, a, b, g)
        outcomes.update(expected)
    assert outcomes == {True, False}
    with pytest.raises(ValueError):
        _agree((T,), T, (T, T), T)


@pytest.mark.parametrize("term", ["nums", "others"])
def test_agree_width_at_its_edge(monkeypatch, term):
    """3 p / q against p / r, q = (1 - t^2)(1 - t^3) and r the digits of
    q(2^8) / 3 (q(1) = 0 and 2^8 = 1 mod 3), agree at t = 2^8 but not in
    Z[t].  Each term of the bound in its turn carries the width, the other
    below 2^7: the helper FAILs at the 16 bits it gives and PASSes with them
    cut by a byte, as it would under a bound without that term."""
    p, q = 1 + T**6, (1 - T**2) * (1 - T**3)
    r = _decode(q(1 << 8) // 3, 8)
    args = ((3 * p,), q, (p,), r) if term == "nums" else ((p,), r, (3 * p,), q)
    assert _l1(p) * _l1(q) < 1 << 7 <= _l1(3 * p) * _l1(r)
    real, widths = exact_module._width, []
    monkeypatch.setattr(exact_module, "_width", lambda bound: widths.append(real(bound)) or widths[-1])
    assert _agree(*args) == [False] and widths == [16]
    monkeypatch.setattr(exact_module, "_width", lambda bound: real(bound) - 8)
    assert _agree(*args) == [True]


def test_ratfunc_frozen_values():
    f = RatFunc(T**3 + 1, T + 1)
    assert f.is_polynomial()
    assert f.num == T**2 - T + 1 and f.den == IntPoly.one()
    # a zero numerator gives 0 / 1 for any sign and content of the denominator
    for d in (T**5 - 3, -6 * T**2 + 3, 1 - T, IntPoly((-3,)), 4 * T**5 - 2, -1):
        for zero in (IntPoly(), 0):
            z = RatFunc(zero, d)
            assert z.num.coeffs == () and z.den.coeffs == (1,), d
    g = RatFunc(T**2 - 1, T - 1)
    assert g.num == T + 1 and g.den == IntPoly.one()
    # denominator leading coefficient is made positive
    f = RatFunc(IntPoly.one(), 1 - T)
    assert f.den == T - 1 and f.num == IntPoly((-1,))


def test_cayley_hamilton_random():
    rng = random.Random(20260814)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = IntMatrix(
            tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        )
        p = charpoly(m)
        assert eval_matrix(p, m) == zeros(n, n)
        # cross-route: Faddeev-LeVerrier against Bareiss/cofactor on x*I - m
        assert det(lambda_identity_minus(m)) == p


def test_charpoly_against_list_products_and_sympy(monkeypatch):
    """Entries up to 9 in absolute value make wide slots: the coefficients of
    a 12 x 12 characteristic polynomial run to about 10^20, so the M_k
    outgrow the first slot width and are read back and re-packed wider."""
    unpacked = []
    unpack = exact_module._unpack
    monkeypatch.setattr(exact_module, "_unpack", lambda *args: unpacked.append(args) or unpack(*args))
    rng = random.Random(1978)
    x = sympy.Symbol("x")
    for _ in range(40):
        n = rng.randint(1, 12)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        p = charpoly(m)
        assert p == list_charpoly(m)
        assert p == IntPoly(int(c) for c in reversed(sympy.Matrix(m.rows).charpoly(x).all_coeffs()))
    assert unpacked


def test_charpoly_against_list_products_on_dense_rows(monkeypatch):
    """Dense rows of general coefficients, n = 5..12 and entries in [-3, 3]:
    the trace read in the product pass meets rows summed by multiplies, not
    the near-unit entries of a Coxeter matrix, and from n = 6 on the bound
    r b sets off the read-back and wider re-pack before M_n."""
    widened = set()
    unpack = exact_module._unpack
    monkeypatch.setattr(exact_module, "_unpack", lambda *args: widened.add(args[1]) or unpack(*args))
    rng = random.Random(2006)
    for n in range(5, 13):
        for _ in range(6):
            m = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            assert charpoly(m) == list_charpoly(m), m
    assert widened >= set(range(6, 13))


def test_det_cofactor_against_permutation_sum():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(6):
            rows = [
                [IntPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]) for _ in range(n)]
                for _ in range(n)
            ]
            assert det(rows) == perm_det(rows)


def test_det_poly_against_permutation_sum_and_sympy():
    rng = random.Random(99)
    for _ in range(5):
        rows = [
            [IntPoly([rng.randint(-2, 2) for _ in range(2)]) for _ in range(5)]
            for _ in range(5)
        ]
        assert det(rows) == perm_det(rows) == sympy_det(rows)
    for n in (5, 6, 7):
        for _ in range(3):
            rows = random_poly_rows(rng, n)
            rows[0][0] = IntPoly()  # force a row swap at the first pivot
            assert det(rows) == perm_det(rows) == sympy_det(rows)


def test_det_poly_and_cramer_solve_against_sympy():
    rng = random.Random(2024)
    for n in range(2, 13):
        for trial in range(3):
            rows = random_poly_rows(rng, n, density=0.5)
            if trial:
                # zero leading pivots force row swaps
                rows[0][0] = IntPoly()
                if trial == 2:
                    rows[1][0] = rows[1][1] = IntPoly()
            rhs = [IntPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))]) for _ in range(n)]
            expected = sympy_det(rows)
            assert det(rows) == expected
            if expected.is_zero():
                with pytest.raises(RankError):
                    cramer_solve(rows, rhs)
                continue
            got_det, nums = cramer_solve(rows, rhs)
            assert got_det == expected
            for i in range(n):
                replaced = [row[:i] + [rhs[k]] + row[i + 1:] for k, row in enumerate(rows)]
                assert nums[i] == sympy_det(replaced), (n, trial, i)


def test_cramer_solve_row_swap_sign():
    # the antidiagonal takes n // 2 row swaps, an odd number except at n = 5;
    # det and the numerators must flip sign together
    for n in (2, 3, 5, 6, 7):
        rows = [[(1 + T) if j == n - 1 - i else IntPoly() for j in range(n)] for i in range(n)]
        rhs = [IntPoly((i + 1,)) for i in range(n)]
        d, nums = cramer_solve(rows, rhs)
        assert d == perm_det(rows)
        # x_(n-1-i) = (i + 1) / (1 + t), so det M_(n-1-i) = (i + 1) det / (1 + t)
        assert nums == tuple(d.divexact(1 + T) * (n - j) for j in range(n))
    with pytest.raises(RankError):
        cramer_solve([[T, T], [T, T]], [1, 0])
    assert cramer_solve((), ()) == (IntPoly.one(), ())


def test_cramer_solve_shape_errors():
    with pytest.raises(DimensionError, match="square"):
        cramer_solve([[T, 1]], [1])
    with pytest.raises(DimensionError, match="square"):
        cramer_solve([[1, 0], [1]], [1, 0])
    with pytest.raises(DimensionError, match="square"):
        cramer_solve([[1, 0], [0, 1], [1, 1]], [1, 0, 0])
    with pytest.raises(DimensionError, match="right-hand side"):
        cramer_solve([[1, 0], [0, 1]], [1])
    with pytest.raises(DimensionError, match="right-hand side"):
        cramer_solve([[1]], [1, 2])


def test_det_int_against_poly_route():
    rng = random.Random(4242)
    for _ in range(10):
        n = rng.randint(1, 6)
        m = IntMatrix(tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)))
        d = det(tuple(tuple(IntPoly((v,)) for v in row) for row in m.rows))
        assert d == IntPoly((int_det(m),)) or (d.is_zero() and int_det(m) == 0)


def test_series_reconstruction_random():
    rng = random.Random(1234)
    for _ in range(20):
        num = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
        den = IntPoly([rng.choice([1, -1, 2])] + [rng.randint(-3, 3) for _ in range(4)])
        f = RatFunc(num, den)
        n = 15
        if f.den.coeff(0) not in (1, -1):
            with pytest.raises(DomainError):
                series_expand(f.num, n, f.den)
            continue
        c = series_expand(f.num, n, f.den)
        # multiply the truncated series back by the denominator
        for k in range(n):
            acc = Fraction(0)
            for j in range(0, min(k, f.den.degree) + 1):
                acc += f.den.coeff(j) * c[k - j]
            assert acc == f.num.coeff(k)


def fraction_series(num: IntPoly, den: IntPoly, nterms: int) -> list[Fraction]:
    """Long division in Fractions, term by term."""
    out: list[Fraction] = []
    for k in range(nterms):
        acc = Fraction(num.coeff(k))
        for j in range(1, min(k, den.degree) + 1):
            acc -= den.coeff(j) * out[k - j]
        out.append(acc / den.coeff(0))
    return out


def test_series_integer_against_fraction_reference():
    rng = random.Random(777)
    for trial in range(60):
        d0 = (1, -1, 2, -2)[trial % 4]
        num = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 8))])
        tail = [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(rng.randint(0, 10))]
        den = IntPoly([d0] + tail)
        if d0 not in (1, -1):
            with pytest.raises(DomainError):
                series_expand(num, 40, den)
            continue
        ref = fraction_series(num, den, 40)
        # unreduced num / den and the reduced RatFunc give the same series
        got = series_expand(num, 40, den)
        assert got == ref
        f = RatFunc(num, den)
        assert series_expand(f.num, 40, f.den) == ref
        assert all(type(c) is int for c in got)
    with pytest.raises(PoleAtOriginError):
        series_expand(IntPoly.one(), 3, T + T**2)


SERIES_EDGES = {
    "numerator above nterms": (1 - 2 * T + 3 * T**4 - T**9, 1 - T - T**2),
    "den(0) = -1 with zero gaps": (2 + T**2 - 5 * T**6, -1 + 3 * T**3 - T**4 + 2 * T**8),
    "den longer than nterms": (T + T**3, 1 + T**5 - 2 * T**12 + T**13),
    "zero numerator": (IntPoly(), -1 + T**2 - T**7),
}


@pytest.mark.parametrize("name", SERIES_EDGES)
def test_series_edges_against_fraction_reference(name):
    num, den = SERIES_EDGES[name]
    for nterms in (0, 1, 2, 3, 5, 8, 13, 40):
        got = series_expand(num, nterms, den)
        assert got == fraction_series(num, den, nterms)
        assert all(type(c) is int for c in got)


def test_series_long_e8_component_against_gather_recurrence():
    gf = generating_function(build(DiagramId.parse("E8"), extended=True))
    got = series_expand(gf.numerators[0], 3000, gf.det_m)
    assert got == gather_series(gf.numerators[0], 3000, gf.det_m)
    assert got.count(0) == 1515  # terms the forward sum skips


def test_ratfunc_equivalence_random():
    rng = random.Random(31337)

    def rand_poly():
        while True:
            p = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
            if not p.is_zero():
                return p

    for _ in range(20):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        a = RatFunc(p * r, q * r)
        b = RatFunc(p, q)
        assert a == b
        assert hash(a) == hash(b)
        assert a.num == b.num and a.den == b.den


def test_matrix_basics():
    m = IntMatrix(((1, 2), (3, 4)))
    assert m @ IntMatrix.identity(2) == m
    assert _sparse_left(m)((1, 1)) == [3, 7]
    assert IntMatrix.identity(2) @ m == m
    assert int_det(m) == -2
    assert charpoly(m).coeff(1) == -5  # minus the trace


def test_format_and_parse():
    p = 1 + 2 * T**3 - T**5
    assert format_poly(p) == "1 + 2*t^3 - t^5"
    assert format_poly(IntPoly()) == "0"
    assert format_poly(T) == "t"
    assert format_poly(-T + 3 * T**2) == "-t + 3*t^2"
    assert format_poly(T**2 - T + 1, var="L") == "1 - L + L^2"
    assert parse_poly("1 + 2*t^3 - t^5") == p
    assert parse_poly("0") == IntPoly()
    assert parse_poly("t^1 + 1*t^2") == T + T**2
    rng = random.Random(5150)
    for _ in range(30):
        q = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        assert parse_poly(format_poly(q)) == q
    # canonical form divides out the common factor 1 + t^4
    f = RatFunc(1 + T**12, (1 - T**6) * (1 - T**8))
    assert format_ratfunc(f) == "(1 - t^4 + t^8) / (1 - t^4 - t^6 + t^10)"
