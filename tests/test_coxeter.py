"""Bicolored Coxeter transformations: involutions, orders, char polynomials."""

from __future__ import annotations

import random
from collections import Counter

import pytest
import sympy

from dynkinlab import coxeter
from dynkinlab import diagram as diagram_module
from dynkinlab import exact
from dynkinlab.cli import main
from dynkinlab.coxeter import (
    _class_rows,
    affine_A_charpoly,
    bicolored_products,
    bicolored_reflections,
    char_polys,
    coxeter_charpoly,
    coxeter_number,
    coxeter_transform,
    ebeling_quotient,
)
from dynkinlab.diagram import (
    SIMPLY_LACED,
    Diagram,
    DiagramId,
    build,
    catalog_extended,
    finite_part,
    nil_root,
)
from dynkinlab.errors import DomainError, ExcludedDiagramError, IdentityViolationError, MissingParameterError
from dynkinlab.exact import IntMatrix, IntPoly, RatFunc, charpoly
from oracles import (HYPERBOLIC, clear_package_caches, dense_order, identity, lincomb, list_charpoly,
                     list_coxeter_number, matvec, star_tree)

L = IntPoly.monomial(1)

W1_E6 = IntMatrix(
    (
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (1, 1, 0, -1, 0, 0),
        (1, 0, 1, 0, -1, 0),
        (1, 0, 0, 0, 0, -1),
    )
)
W2_E6 = IntMatrix(
    (
        (-1, 0, 0, 1, 1, 1),
        (0, -1, 0, 1, 0, 0),
        (0, 0, -1, 0, 1, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
    )
)


def reflection_product(diagram: Diagram, part: tuple[int, ...]) -> IntMatrix:
    """prod(S_i, i in part) as a chain of dense products of the reflections
    S_i = I - e_i (row_i K)."""
    k, n = diagram.cartan, diagram.size
    out = identity(n)
    for i in part:
        s_i = IntMatrix(
            tuple((1 if r == c else 0) - (k[i, c] if r == i else 0) for c in range(n))
            for r in range(n)
        )
        out = out @ s_i
    return out


def matrix_power(m: IntMatrix, k: int) -> IntMatrix:
    out = identity(m.nrows)
    for _ in range(k):
        out = out @ m
    return out


def test_pair_matches_reflection_products_on_catalog():
    diagrams = [d for ext in catalog_extended() for d in (ext, finite_part(ext))]
    bipartite = [d for d in diagrams if d.bipartition is not None]
    assert len(bipartite) == 78
    for d in bipartite:
        pair = bicolored_reflections(d)
        part_x, part_y = d.bipartition
        assert pair.w1 == reflection_product(d, part_y)
        assert pair.w2 == reflection_product(d, part_x)
        assert pair.w2 == reflection_product(d, tuple(reversed(part_x)))


def test_bonds_and_class_sums_match_their_entrywise_forms():
    """2I - K entrywise, and each class row the nonzeros of row i of I - e_i
    K_i in column order, for the pair's classes and for any two classes:
    `_class_rows` assumes no product structure, only the rows it reads."""
    exts = list(catalog_extended())
    exts += [build(DiagramId.parse(t), extended=True) for t in ("D128", "A127")]
    for d in [d for ext in exts for d in (ext, finite_part(ext))]:
        k, n = d.cartan.rows, d.size
        assert d.bonds == lincomb((2, identity(n)), (-1, d.cartan))
        for parts in (d.bipartition or ((), ())), (tuple(range(0, n, 3)), ()), ((), tuple(range(1, n, 2))):
            rows = _class_rows(d.cartan, parts)
            assert [[i for i, _ in c] for c in rows] == [list(parts[1]), list(parts[0])]  # w1's, then w2's
            for i, row in (r for c in rows for r in c):
                entries = [(1 if i == c else 0) - k[i][c] for c in range(n)]
                assert type(row) is tuple and row == tuple((c, v) for c, v in enumerate(entries) if v), (d.labels, i)


def test_coxeter_number_closed_forms():
    for n in range(1, 41):
        assert coxeter_number(build(DiagramId("A", n))) == n + 1
    for n in range(2, 41):
        assert coxeter_number(build(DiagramId("B", n))) == 2 * n
        assert coxeter_number(build(DiagramId("C", n))) == 2 * n
    for n in range(4, 41):
        assert coxeter_number(build(DiagramId("D", n))) == 2 * n - 2


def test_a1_pair():
    pair = bicolored_reflections(build(DiagramId("A", 1)))
    assert pair.w1 == IntMatrix(((-1,),))
    assert pair.w2 == identity(1)


def test_e6_pair_matches_block_matrices():
    d = build(DiagramId("E6"))
    pair = bicolored_reflections(d)
    assert pair.w1 == W1_E6
    assert pair.w2 == W2_E6
    assert d.bipartition == ((0, 1, 2), (3, 4, 5))  # w1 reflects part_y, w2 part_x


def test_e6_coxeter_block_form():
    d = build(DiagramId("E6"))
    c = coxeter_transform(d)
    b = lincomb((2, identity(6)), (-1, d.cartan))
    bxy = IntMatrix(tuple(row[3:] for row in b.rows[:3]))
    byx = IntMatrix(tuple(row[:3] for row in b.rows[3:]))
    # C = ((B_xy B_yx - I, -B_xy), (B_yx, -I)) in (x | y) block order
    top = IntMatrix(
        tuple(
            tuple(lincomb((1, bxy @ byx), (-1, identity(3))).rows[i] + lincomb((-1, bxy)).rows[i])
            for i in range(3)
        )
    )
    bottom = IntMatrix(tuple(tuple(byx.rows[i] + lincomb((-1, identity(3))).rows[i]) for i in range(3)))
    assert c == IntMatrix(top.rows + bottom.rows)


def test_excluded_diagram():
    with pytest.raises(ExcludedDiagramError):
        bicolored_reflections(build(DiagramId("A", 2), extended=True))


def test_involutions_and_determinant():
    for did in [DiagramId("A", 4), DiagramId("D", 5), DiagramId("E7"),
                DiagramId("B", 3), DiagramId("C", 4), DiagramId("F4"), DiagramId("G2")]:
        d = build(did)
        pair = bicolored_reflections(d)
        ident = identity(d.size)
        assert pair.w1 @ pair.w1 == ident
        assert pair.w2 @ pair.w2 == ident
        c = coxeter_transform(d)
        assert sympy.Matrix(c.rows).det() == (1 if d.size % 2 == 0 else -1)


def test_w2_fixes_highest_root():
    """On the finite part of every catalog diagram of even Coxeter number w2
    fixes beta = delta[1:], the highest root on A/D/E: part_y holds the
    attachment vertices, the only rows where K beta is not 0.  On A_n, n
    even, the two chain ends lie in different classes."""
    for ext in catalog_extended():
        d, beta = finite_part(ext), nil_root(ext)[1:]
        fixed = matvec(bicolored_reflections(d).w2, beta) == beta
        assert fixed == (coxeter_number(d) % 2 == 0), ext.did


def test_affine_transform_fixes_nil_root():
    for d in catalog_extended():
        if d.bipartition is None:
            continue
        delta = nil_root(d)
        assert matvec(coxeter_transform(d), delta) == delta


def test_coxeter_numbers():
    assert coxeter_number(build(DiagramId("A", 1))) == 2
    assert coxeter_number(build(DiagramId("E6"))) == 12
    assert coxeter_number(build(DiagramId("F4"))) == 12
    assert coxeter_number(build(DiagramId("G2"))) == 6
    assert coxeter_number(build(DiagramId("B", 3))) == 6
    assert coxeter_number(build(DiagramId("D", 4))) == 6
    assert coxeter_number(build(DiagramId("E8"))) == 30


def test_char_polys_frozen():
    chi, chi_aff = char_polys(DiagramId("D", 4))
    assert chi == (L + 1) * (L**3 + 1)
    assert chi_aff == (L - 1) ** 2 * (L + 1) ** 3

    chi, chi_aff = char_polys(DiagramId("E7"))
    assert chi * (L**3 + 1) == (L + 1) * (L**9 + 1)
    assert chi_aff == (L**4 - 1) * (L**3 - 1) * (L + 1)

    chi, chi_aff = char_polys(DiagramId("B", 3))
    assert chi == L**3 + 1
    assert chi_aff == (L**2 - 1) * (L**2 - 1)

    chi, chi_aff = char_polys(DiagramId("G2"))
    assert chi == L**2 - L + 1
    assert chi_aff == (L - 1) ** 2 * (L + 1)


def test_char_polys_family_a():
    chi, chi_aff = char_polys(DiagramId("A", 5), k=3)
    assert chi * (L - 1) == L**6 - 1
    assert chi_aff == (L**3 - 1) ** 2
    with pytest.raises(MissingParameterError):
        char_polys(DiagramId("A", 5))


def test_affine_a_charpoly():
    assert affine_A_charpoly(3, 2) == (L**2 - 1) ** 2
    assert affine_A_charpoly(1, 1) == (L - 1) ** 2
    # the bicolored transformation of the 6-cycle realizes k = 3
    ca = coxeter_transform(build(DiagramId("A", 5), extended=True))
    assert charpoly(ca) == affine_A_charpoly(5, 3)
    ca = coxeter_transform(build(DiagramId("A", 3), extended=True))
    assert charpoly(ca) == affine_A_charpoly(3, 2)


def test_ebeling_quotient_values():
    q = ebeling_quotient(DiagramId("E8"))
    assert q.num * (L**10 - 1) * (L**6 - 1) == (L**15 + 1) * q.den
    assert ebeling_quotient(DiagramId("G2")) == RatFunc(L**3 + 1, (L**2 - 1) ** 2)


def test_quotient_coincidence_spot_checks():
    assert ebeling_quotient(DiagramId("G2")) == ebeling_quotient(DiagramId("D", 4))
    assert ebeling_quotient(DiagramId("F4")) == ebeling_quotient(DiagramId("E6"))
    assert ebeling_quotient(DiagramId("C", 3)) == ebeling_quotient(DiagramId("A", 5), k=3)


def test_simply_laced_chi_divides_chi_affine_shape():
    # chi and chi_affine share the eigenvalue -1 structure: chi_affine(1) = 0
    for did in [DiagramId("D", 5), DiagramId("E6"), DiagramId("B", 4), DiagramId("C", 5)]:
        _, chi_aff = char_polys(did)
        assert chi_aff(1) == 0


def test_coxeter_number_matches_charpoly_roots():
    # C^h = I implies chi divides L^h - 1 times (L+1) powers; spot check exact orders
    for did, h in [(DiagramId("A", 2), 3), (DiagramId("D", 5), 8), (DiagramId("E6"), 12)]:
        d = build(did)
        assert coxeter_number(d) == h
        c = coxeter_transform(d)
        assert matrix_power(c, h) == identity(d.size)
        assert all(matrix_power(c, m) != identity(d.size) for m in range(1, h))


def test_packed_kernel_against_list_products_on_catalog():
    diagrams = [d for ext in catalog_extended() for d in (ext, finite_part(ext))]
    bipartite = [d for d in diagrams if d.bipartition is not None]
    assert len(bipartite) == 78
    for d in bipartite:
        c = coxeter_transform(d)
        assert charpoly(c) == list_charpoly(c)
        if not d.extended:
            assert coxeter_number(d) == list_coxeter_number(d)


def test_packed_kernel_against_list_products_up_to_rank_64():
    """The walk from one colour class closes at h on every family up to
    rank 64, where D_even's C has the repeated eigenvalue -1, as the whole
    C's list powers do.  The extended A_n with n even are odd cycles."""
    for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4)):
        for n in (*range(low, 13), 15, 16, 31, 32, 33, 63, 64):
            d = build(DiagramId(family, n))
            c = coxeter_transform(d)
            assert charpoly(c) == list_charpoly(c)
            assert coxeter_number(d) == list_coxeter_number(d)
            ext = build(DiagramId(family, n), extended=True)
            if ext.bipartition is not None:
                c = coxeter_transform(ext)
                assert charpoly(c) == list_charpoly(c)


def test_packed_kernel_makes_no_matrix_product(monkeypatch, capsys):
    """charpoly, the walk that finds h and C = w2 w1 itself sum rows without `@`:
    from cold caches, `verify all`, `charpoly D35` and `zpoly D37` make no
    IntMatrix product at all."""
    d = build(DiagramId("D", 37))
    calls = 0
    matmul = IntMatrix.__matmul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return matmul(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    clear_package_caches()
    assert charpoly(coxeter_transform(d)) == (L**36 + 1) * (L + 1)
    clear_package_caches()
    assert coxeter_number(d) == 72
    for argv in (["verify", "all"], ["charpoly", "D35"], ["zpoly", "D37"]):
        clear_package_caches()
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert calls == 0


def test_coxeter_number_against_dense_powers():
    """The period of one colour class under the pair equals the order of the
    whole C by dense powers, on the 41 catalog finite parts and at the rank
    limit, where D128's C has the repeated eigenvalue -1, the class rows of
    B128 and C128 are not symmetric and A128's h is odd.  The hyperbolic
    controls, whose finite parts are affine, still exceed the bound on both
    routes."""
    finite = [finite_part(ext) for ext in catalog_extended()]
    finite += [build(DiagramId.parse(name)) for name in ("D128", "C128", "B128", "A127", "A128")]
    assert len(finite) == 46
    for d in finite:
        bound = 10 * d.size**2
        assert coxeter_number(d) == dense_order(coxeter_transform(d), bound), d.labels
    for pqr in HYPERBOLIC:
        d = finite_part(star_tree(*pqr))
        bound = 10 * d.size**2
        assert dense_order(coxeter_transform(d), bound) is None
        with pytest.raises(DomainError) as err:
            coxeter_number(d)
        assert str(err.value) == f"order exceeds the bound {bound}; diagram is not finite type"


def block_sum(*names: str) -> Diagram:
    """The finite diagram whose Cartan matrix is the block sum of the named
    catalog diagrams' (extended ones with a trailing "~"), in that order."""
    blocks = [build(DiagramId.parse(name.rstrip("~")), extended=name.endswith("~")).cartan
              for name in names]
    n, rows, at = sum(k.nrows for k in blocks), [], 0
    for k in blocks:
        rows += [(0,) * at + row + (0,) * (n - at - k.nrows) for row in k.rows]
        at += k.nrows
    return diagram_module._make(None, False, tuple(f"v{i}" for i in range(n)), IntMatrix(rows))


def _period(d: Diagram, x: tuple[int, ...]) -> int | None:
    """The least k <= 10 n^2 with C^k x = x, from C's list products."""
    c, y = coxeter_transform(d), x
    for k in range(1, 10 * d.size**2 + 1):
        y = matvec(c, y)
        if y == x:
            return k
    return None


@pytest.mark.parametrize("names, h", [(("A1", "A2"), 6), (("A1", "A2", "A4"), 30), (("E6", "G2"), 12)])
def test_coxeter_number_of_a_block_sum(names, h):
    """C of a block sum is block diagonal and its order is the lcm of the
    blocks' orders: the class that holds vertex 0 meets every block, as
    colour 0 goes to the least vertex of each component.  e_0 alone would
    see the first block's order only."""
    d = block_sum(*names)
    assert coxeter_number(d) == dense_order(coxeter_transform(d), 10 * d.size**2) == h
    e0 = (1,) + (0,) * (d.size - 1)
    assert _period(d, e0) == coxeter_number(build(DiagramId.parse(names[0])))


def test_coxeter_number_refuses_what_is_not_finite_type():
    """Every bipartite catalog extended Cartan matrix read as a finite
    diagram, and a finite block beside an affine one, have no finite orbit
    from the class of vertex 0, so the bound refuses them.  The all-ones
    vector would close at 2 on the affine finite part of T(3,3,4)."""
    affine = [diagram_module._make(None, False, ext.labels, ext.cartan)
              for ext in catalog_extended() if ext.bipartition is not None]
    assert len(affine) == 37
    for d in (*affine, block_sum("A2", "E6~"), block_sum("D4~", "A1")):
        bound = 10 * d.size**2
        with pytest.raises(DomainError) as err:
            coxeter_number(d)
        assert str(err.value) == f"order exceeds the bound {bound}; diagram is not finite type", d.cartan
    d = finite_part(star_tree(3, 3, 4))
    assert _period(d, (1,) * d.size) == 2


def test_coxeter_number_of_the_empty_diagram():
    """No vertex, so a bound of 0 steps and no class to start from."""
    empty = diagram_module._make(None, False, (), IntMatrix(()))
    with pytest.raises(DomainError) as err:
        coxeter_number(empty)
    assert str(err.value) == "order exceeds the bound 0; diagram is not finite type"


def _count_packing(monkeypatch) -> Counter:
    """Counts `_pack` and `_unpack` calls and `_fits` outcomes in exact.py."""
    calls: Counter = Counter()

    def counted(name, f):
        def wrapper(*args):
            out = f(*args)
            calls[f"_fits {out}" if name == "_fits" else name] += 1
            return out
        return wrapper

    for name in ("_pack", "_unpack", "_fits"):
        monkeypatch.setattr(exact, name, counted(name, getattr(exact, name)))
    return calls


def test_packed_loops_keep_their_first_width(monkeypatch):
    """The M_k of these Coxeter transformations stay within the room the
    first width leaves, so charpoly, which builds I by shifts, packs nothing,
    no `_fits` test fails and nothing is read back."""
    calls = _count_packing(monkeypatch)
    for text, chi in (("D37", (L**36 + 1) * (L + 1)), ("A31", IntPoly((1,) * 32)),
                      ("E8", None), ("D128", (L**127 + 1) * (L + 1))):
        c = coxeter_transform(build(DiagramId.parse(text)))
        chi = chi or list_charpoly(c)
        calls.clear()
        assert charpoly(c) == chi
        assert calls["_pack"] == calls["_unpack"] == calls["_fits False"] == 0, text


def test_packed_loops_read_back_and_widen(monkeypatch):
    """A scalar d I makes c_1 = -n d too wide for the slots of M_1 before any
    `_fits` test, so am is read back and re-packed wider, and for |d| > 1 the
    M_k also outgrow their slots between c_k's."""
    calls = _count_packing(monkeypatch)
    for n, d in ((40, 1), (64, 2), (64, -9)):
        calls.clear()
        m = IntMatrix([[d if i == j else 0 for j in range(n)] for i in range(n)])
        assert charpoly(m) == IntPoly((-d, 1)) ** n
        assert calls["_unpack"] == n * calls["_pack"] > 0
        if d == 1:  # every widening comes from c_k, none from a failed _fits
            assert set(calls) == {"_pack", "_unpack"}
        else:
            assert calls["_fits False"] > 0


def test_hyperbolic_tree_is_not_finite_type():
    """T(2,3,7) = E10, the chain 0..8 with vertex 9 on vertex 2: its Coxeter
    transformation has infinite order, and the walk's vector grows without
    bound, so both routes refuse it at the bound."""
    bonds = tuple((i, i + 1, 1, 1) for i in range(8)) + ((2, 9, 1, 1),)
    e10 = diagram_module._make(
        None, False, tuple(f"v{i}" for i in range(10)),
        diagram_module._cartan(10, bonds),
    )
    for order in (coxeter_number, list_coxeter_number):
        with pytest.raises(DomainError) as err:
            order(e10)
        assert str(err.value) == "order exceeds the bound 1000; diagram is not finite type"


def test_lehmer_polynomial_on_e10():
    """T(2,3,7) = E10 with vertex 0 the end of its longest arm: the chain
    0..8 with vertex 9 on vertex 6.  C is not of finite order, and its
    characteristic polynomial is Lehmer's, whose root outside the unit circle
    (about 1.17628) is the least Mahler measure known (Lehmer, "Factorization
    of certain cyclotomic functions", Ann. Math. 34, 1933; McMullen,
    "Coxeter groups, Salem numbers and the Hilbert metric", Publ. IHES 95,
    2002): a control for the Coxeter layer beyond finite and affine type."""
    bonds = tuple((i, i + 1, 1, 1) for i in range(8)) + ((6, 9, 1, 1),)
    e10 = diagram_module._make(
        None, False, tuple(f"v{i}" for i in range(10)),
        diagram_module._cartan(10, bonds),
    )
    assert charpoly(coxeter_transform(e10)).coeffs == (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    with pytest.raises(DomainError) as err:
        coxeter_number(e10)
    assert str(err.value) == "order exceeds the bound 1000; diagram is not finite type"


def test_no_cache_keys_on_the_diagram_id():
    """T_{2,3,7} and T_{2,4,6} are extended trees of 10 vertices with no id
    and the same labels.  With the other's entries in the caches each still
    gets its own 2I - K, C and charpoly, on itself and on its finite part,
    each equal to its value from cold caches."""
    def facts(tree):
        return [(d.bonds, coxeter_transform(d), charpoly(coxeter_transform(d)))
                for d in (tree, finite_part(tree))]

    trees = (star_tree(2, 3, 7), star_tree(2, 4, 6))
    assert trees[0].did is trees[1].did is None and trees[0].labels == trees[1].labels
    cold = []
    for tree in trees:
        clear_package_caches()
        cold.append(facts(tree))
    assert [facts(tree) for tree in trees] == cold
    assert all(a != b for one, other in zip(*cold) for a, b in zip(one, other))


def test_coxeter_number_cached_over_verify_all(capsys):
    clear_package_caches()
    assert main(["verify", "all"]) == 0
    capsys.readouterr()
    info = coxeter_number.cache_info()
    assert 0 < info.misses <= 18 < info.hits + info.misses


def random_tree(rng: random.Random, n: int) -> Diagram:
    """A finite diagram on a random tree of n vertices, vertex i > 0 bonded
    to a random earlier one with -K_ij and -K_ji drawn from 1..3: Cartan-like
    and bipartite, whatever its type."""
    bonds = [(rng.randrange(i), i, rng.randint(1, 3), rng.randint(1, 3)) for i in range(1, n)]
    return diagram_module._make(None, False, tuple(f"v{i}" for i in range(n)),
                                diagram_module._cartan(n, bonds))


def test_coxeter_charpoly_is_faddeev_leverrier_on_c():
    """chi from Q = C_xx - I, lifted by the Schur complement, equals FL on
    the whole C: on the 78 bipartite catalog diagrams, at the rank limits,
    on the hyperbolic controls, T(3,3,3) and random trees.  D128 (65 + 63)
    has nx > ny, so the lift divides by (1 + lambda)^2; A127 (63 + 64) has
    nx < ny; A1 has no part_x at all.  The list oracle, about 0.4 s a
    matrix at rank 128, checks every case below rank 128 and those two."""
    diagrams = [d for ext in catalog_extended() for d in (ext, finite_part(ext)) if d.bipartition is not None]
    assert len(diagrams) == 78
    limits = [build(DiagramId.parse(name)) for name in ("D128", "A127", "A128", "B128", "C128")]
    limits += [build(DiagramId.parse(name), extended=True)
               for name in ("D128", "A127", "B128", "C128", "DD128", "CD64")]
    trees = [star_tree(*pqr) for pqr in (*HYPERBOLIC, (3, 3, 3))]
    rng = random.Random(43)
    diagrams += limits + trees + [finite_part(t) for t in trees]
    diagrams += [random_tree(rng, rng.randint(1, 24)) for _ in range(40)]
    sides = {name: tuple(map(len, build(DiagramId.parse(name)).bipartition)) for name in ("D128", "A127", "A1")}
    assert sides == {"D128": (65, 63), "A127": (63, 64), "A1": (0, 1)}
    assert {len(d.bipartition[0]) > len(d.bipartition[1]) for d in diagrams[-40:]} == {True, False}
    for d in diagrams:
        c = coxeter_transform(d)
        chi = coxeter_charpoly(d)
        assert chi == charpoly(c), d.name
        if d.size < 128 or d in limits[:2]:
            assert chi == list_charpoly(c), d.name


# the rank limits whose C is formed from the class rows of a long chain, a
# cycle or a non-symmetric folded K
LIMITS = ("D128", "A127", "B128", "C128", "DD128", "CD64")


def wide_diagrams() -> list[Diagram]:
    """The 78 bipartite catalog diagrams; the rank limits, the hyperbolic
    controls and T(3,3,3), each extended and its finite part; 40 seeded
    random trees with bonds from 1..3."""
    diagrams = [d for ext in catalog_extended() for d in (ext, finite_part(ext)) if d.bipartition is not None]
    exts = [build(DiagramId.parse(name), extended=True) for name in LIMITS]
    exts += [star_tree(*pqr) for pqr in (*HYPERBOLIC, (3, 3, 3))]
    rng = random.Random(44)
    diagrams += [d for e in exts for d in (e, finite_part(e))]
    return diagrams + [random_tree(rng, rng.randint(1, 24)) for _ in range(40)]


def test_dense_pair_is_the_entrywise_reflection_product():
    """w1 and w2, built from the class rows, are I - sum(e_i K_i) over part_y
    and part_x entry by entry, and below rank 25 also the chain of dense
    reflection products."""
    diagrams = wide_diagrams()
    assert len(diagrams) == 78 + 2 * 10 + 40
    for d in diagrams:
        pair, (part_x, part_y), k, n = bicolored_reflections(d), d.bipartition, d.cartan.rows, d.size
        for w, part in ((pair.w1, set(part_y)), (pair.w2, set(part_x))):
            assert w.rows == tuple(tuple((r == c) - (k[r][c] if r in part else 0) for c in range(n))
                                   for r in range(n)), d.name
        if n < 25:
            assert (pair.w1, pair.w2) == (reflection_product(d, part_y), reflection_product(d, part_x))


def test_coxeter_transform_is_w2_times_w1():
    """C, formed from the class rows, equals the dense pair's product by
    `IntMatrix.__matmul__`."""
    for d in wide_diagrams():
        pair = bicolored_reflections(d)
        assert coxeter_transform(d) == pair.w2 @ pair.w1, d.name


def test_walk_products_are_the_dense_matrix_vector_products():
    """Each sparse product of the pair, on int and on IntPoly vectors, equals
    the dense sum over every entry of the matching row."""
    rng = random.Random(45)
    for d in wide_diagrams():
        pair, n = bicolored_reflections(d), d.size
        for product, w in zip(bicolored_products(d), pair):
            x = [rng.randint(-9, 9) for _ in range(n)]
            p = [IntPoly((rng.randint(-3, 3), rng.randint(-3, 3))) for _ in range(n)]
            assert tuple(product(x)) == matvec(w, x), d.name
            assert tuple(product(p)) == matvec(w, p), d.name


def test_every_form_refuses_an_odd_cycle():
    """The odd extended A cycles and a finite triangle with a tail have no
    bicolored decomposition: every form derived from the class rows, and
    each reader of them, refuses them with one message, from cold caches."""
    triangle = diagram_module._make(None, False, ("a", "b", "c", "d"), diagram_module._cartan(
        4, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 1), (2, 3, 1, 2)]))
    cycles = [build(DiagramId("A", n), extended=True) for n in (2, 4, 10, 128)] + [triangle]
    readers = (bicolored_reflections, coxeter_transform, bicolored_products, coxeter_charpoly)
    for d in cycles:
        assert d.bipartition is None
        for read in readers + ((coxeter_number,) if not d.extended else ()):
            clear_package_caches()
            with pytest.raises(ExcludedDiagramError) as exc:
                read(d)
            assert str(exc.value) == "diagram has an odd cycle, hence no bicolored decomposition"


@pytest.mark.parametrize("m", [3, 5, 10, 20])
def test_coxeter_charpoly_on_stars(m):
    """K_(1,m) with its centre 0 has nx = 1 and ny = m: chi lifts a 1 x 1 Q by
    (1 + lambda)^(m - 1), and its coefficients outgrow sum |q_k| 2^k, so
    the width needs the factor 2^(ny - nx)."""
    d = diagram_module._make(None, False, tuple(f"v{i}" for i in range(m + 1)),
                             diagram_module._cartan(m + 1, [(0, i, 1, 1) for i in range(1, m + 1)]))
    assert d.bipartition == ((0,), tuple(range(1, m + 1)))
    assert coxeter_charpoly(d) == list_charpoly(coxeter_transform(d))


def _perturbed(monkeypatch, pick):
    """coxeter_transform with one entry of C one higher, at the (i, j) that
    pick(part_x, part_y) names."""
    real = coxeter.coxeter_transform

    def patched(d):
        rows = [list(row) for row in real(d).rows]
        i, j = pick(*d.bipartition)
        rows[i][j] += 1
        return IntMatrix(rows)

    monkeypatch.setattr(coxeter, "coxeter_transform", patched)


BLOCK_FACTS = [
    (lambda xs, ys: (ys[0], ys[0]), "C_yy is not -I"),
    (lambda xs, ys: (ys[-1], ys[0]), "C_yy is not -I"),
    (lambda xs, ys: (xs[0], ys[0]), "C_xx + I is not -C_xy C_yx"),
    (lambda xs, ys: (xs[-1], ys[-1]), "C_xx + I is not -C_xy C_yx"),
]


@pytest.mark.parametrize("pick, message", BLOCK_FACTS)
def test_coxeter_charpoly_checks_both_block_facts(monkeypatch, pick, message):
    """One C_yy entry or one C_xy entry off by one breaks the fact the
    Schur complement rests on, and chi is refused, not computed wrong."""
    _perturbed(monkeypatch, pick)
    for name in ("E6", "D5", "B3"):
        with pytest.raises(IdentityViolationError) as exc:
            coxeter_charpoly(build(DiagramId.parse(name)))
        assert str(exc.value) == message, name


@pytest.mark.parametrize("pick, message", BLOCK_FACTS[::2])
def test_broken_block_fact_is_an_identity_violation_on_the_cli(capsys, monkeypatch, pick, message):
    _perturbed(monkeypatch, pick)
    code = main(["verify", "ebeling", "E6"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"identity violation: {message}\n")
