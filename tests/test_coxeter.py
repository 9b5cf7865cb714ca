"""Bicolored Coxeter transformations: involutions, orders, char polynomials."""

from __future__ import annotations

import importlib
import pkgutil
from collections import Counter

import pytest
import sympy

import dynkinlab
from dynkinlab import diagram as diagram_module
from dynkinlab import exact
from dynkinlab.cli import main
from dynkinlab.coxeter import (
    _bicolored,
    _class_sum,
    affine_A_charpoly,
    bicolored_reflections,
    char_polys,
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
from dynkinlab.errors import DomainError, ExcludedDiagramError, MissingParameterError
from dynkinlab.exact import _STRIDE, IntMatrix, IntPoly, RatFunc, _order, charpoly
from oracles import lincomb, list_charpoly, list_coxeter_number, list_matmul, matvec, star_tree

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
    out = IntMatrix.identity(n)
    for i in part:
        s_i = IntMatrix(
            tuple((1 if r == c else 0) - (k[i, c] if r == i else 0) for c in range(n))
            for r in range(n)
        )
        out = out @ s_i
    return out


def matrix_power(m: IntMatrix, k: int) -> IntMatrix:
    out = IntMatrix.identity(m.nrows)
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
    exts = list(catalog_extended())
    exts += [build(DiagramId.parse(t), extended=True) for t in ("D128", "A127")]
    for d in [d for ext in exts for d in (ext, finite_part(ext))]:
        k, n = d.cartan.rows, d.size
        assert d.bonds == lincomb((2, IntMatrix.identity(n)), (-1, d.cartan))
        for part in (d.bipartition or ()) + (tuple(range(0, n, 3)), ()):
            assert _class_sum(d.cartan, part) == IntMatrix(
                tuple((1 if r == c else 0) - (k[r][c] if r in part else 0) for c in range(n))
                for r in range(n)
            ), (d.labels, part)


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
    assert pair.w2 == IntMatrix.identity(1)


def test_e6_pair_matches_block_matrices():
    d = build(DiagramId("E6"))
    pair = bicolored_reflections(d)
    assert pair.w1 == W1_E6
    assert pair.w2 == W2_E6
    assert d.bipartition == ((0, 1, 2), (3, 4, 5))  # w1 reflects part_y, w2 part_x


def test_e6_coxeter_block_form():
    d = build(DiagramId("E6"))
    c = coxeter_transform(d)
    b = lincomb((2, IntMatrix.identity(6)), (-1, d.cartan))
    bxy = IntMatrix(tuple(row[3:] for row in b.rows[:3]))
    byx = IntMatrix(tuple(row[:3] for row in b.rows[3:]))
    # C = ((B_xy B_yx - I, -B_xy), (B_yx, -I)) in (x | y) block order
    top = IntMatrix(
        tuple(
            tuple(lincomb((1, bxy @ byx), (-1, IntMatrix.identity(3))).rows[i] + lincomb((-1, bxy)).rows[i])
            for i in range(3)
        )
    )
    bottom = IntMatrix(tuple(tuple(byx.rows[i] + lincomb((-1, IntMatrix.identity(3))).rows[i]) for i in range(3)))
    assert c == IntMatrix(top.rows + bottom.rows)


def test_excluded_diagram():
    with pytest.raises(ExcludedDiagramError):
        bicolored_reflections(build(DiagramId("A", 2), extended=True))


def test_involutions_and_determinant():
    for did in [DiagramId("A", 4), DiagramId("D", 5), DiagramId("E7"),
                DiagramId("B", 3), DiagramId("C", 4), DiagramId("F4"), DiagramId("G2")]:
        d = build(did)
        pair = bicolored_reflections(d)
        ident = IntMatrix.identity(d.size)
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
        assert matrix_power(c, h) == IntMatrix.identity(d.size)
        assert all(matrix_power(c, m) != IntMatrix.identity(d.size) for m in range(1, h))


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
    """The order loop tests `_fits` after every 4 steps: A_n closes on the
    last step of a stride where 4 divides h = n + 1 (A3, A7, A11, A15, A31,
    A63) and on the first step after one where h = 1 mod 4 (A4, A8, A12,
    A16, A32, A64).  The extended A_n with n even are odd cycles."""
    assert _STRIDE == 4
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


def test_packed_kernel_makes_no_matrix_product(monkeypatch):
    d = build(DiagramId("D", 37))
    c = coxeter_transform(d)
    calls = 0
    matmul = IntMatrix.__matmul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return matmul(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    assert charpoly(c) == (L**36 + 1) * (L + 1)
    assert calls == 0
    coxeter_number.cache_clear()
    _bicolored.cache_clear()  # C, cached with the pair
    assert coxeter_number(d) == 72
    assert calls == 1  # C = w2 w1 in coxeter_transform; the order loop makes none


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
    """The entries of these Coxeter transformations, their powers and their
    M_k stay within the room the first width leaves, so `_fits` passes at
    every test and nothing is read back: the order loop packs m once and
    tests once per stride, and charpoly builds M_0 = I by shifts, no pack."""
    calls = _count_packing(monkeypatch)
    for text, h, chi in (("D37", 72, (L**36 + 1) * (L + 1)), ("A31", 32, IntPoly((1,) * 32)),
                         ("E8", 30, None), ("D128", 254, (L**127 + 1) * (L + 1))):
        c = coxeter_transform(build(DiagramId.parse(text)))
        chi = chi or list_charpoly(c)
        calls.clear()
        assert charpoly(c) == chi
        assert calls["_pack"] == calls["_unpack"] == calls["_fits False"] == 0, text
        calls.clear()
        assert _order(c, 10 * c.nrows**2) == h
        assert calls == Counter({"_pack": 1, "_fits True": (h - 1) // _STRIDE}), text


def test_packed_loops_read_back_and_widen(monkeypatch):
    """A scalar d I makes c_1 = -n d too wide for the slots of M_1 before any
    `_fits` test, so am is read back and re-packed wider, and for |d| > 1 the
    M_k also outgrow their slots between c_k's.  A conjugate U P U^-1 of the
    6-cycle P has a fourth power past 2^(w-1-g): the order loop re-packs it
    once and still closes at 6, as the list products do."""
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
    m = IntMatrix(((0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 2, 0, 1, 0, 0),
                   (0, 0, -2, 0, 1, 0), (3, -3, 0, 0, 0, 1), (1, -3, 3, 0, 0, 0)))
    powers = [m]
    for _ in range(5):
        powers.append(list_matmul(m, powers[-1]))
    assert [p == IntMatrix.identity(6) for p in powers] == [False] * 5 + [True]
    calls.clear()
    assert _order(m, 100) == 6
    assert calls == Counter({"_pack": 2, "_unpack": 6, "_fits False": 1})


def test_hyperbolic_tree_is_not_finite_type(monkeypatch):
    """T(2,3,7) = E10, the chain 0..8 with vertex 9 on vertex 2: its Coxeter
    transformation has infinite order and powers whose entries grow past
    2^200 within the bound, so `_fits` fails again and again and the order
    loop re-packs at growing widths."""
    bonds = tuple((i, i + 1, 1, 1) for i in range(8)) + ((2, 9, 1, 1),)
    e10 = diagram_module._make(
        None, False, tuple(f"v{i}" for i in range(10)),
        diagram_module._cartan(10, bonds),
    )
    calls = _count_packing(monkeypatch)
    for order in (coxeter_number, list_coxeter_number):
        with pytest.raises(DomainError) as err:
            order(e10)
        assert str(err.value) == "order exceeds the bound 1000; diagram is not finite type"
    assert calls["_unpack"] == 10 * calls["_fits False"] == 10 * (calls["_pack"] - 1) > 0


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


def _clear_package_caches():
    for info in pkgutil.iter_modules(dynkinlab.__path__):
        module = importlib.import_module(f"dynkinlab.{info.name}")
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


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
        _clear_package_caches()
        cold.append(facts(tree))
    assert [facts(tree) for tree in trees] == cold
    assert all(a != b for one, other in zip(*cold) for a, b in zip(one, other))


def test_coxeter_number_cached_over_verify_all(capsys):
    _clear_package_caches()
    assert main(["verify", "all"]) == 0
    capsys.readouterr()
    info = coxeter_number.cache_info()
    assert 0 < info.misses <= 18 < info.hits + info.misses
