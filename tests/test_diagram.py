"""Catalog diagrams: frozen Cartan matrices, nil roots, folding rules."""

from __future__ import annotations

import random
import re
from itertools import compress

import pytest
import sympy

import dynkinlab.mckay as mckay
from dynkinlab.coxeter import bicolored_reflections
from dynkinlab.diagram import (
    _FOLDS,
    EXTENDED_ONLY,
    RANKED,
    SIMPLY_LACED,
    BpgId,
    Diagram,
    DiagramId,
    _make,
    _two_coloring,
    build,
    catalog_extended,
    fold,
    finite_part,
    folded_pair,
    mckay_group,
    nil_root,
)
from dynkinlab.errors import (
    CatalogCorruptionError,
    DomainError,
    FoldingError,
    UnsupportedFamilyError,
)
from dynkinlab.exact import IntMatrix
from dynkinlab.kostant import generating_function
from dynkinlab.mckay import Report, kostant_numbers
from dynkinlab.molien import enumerate_group
from dynkinlab.orbit import assembling_vectors
from oracles import dense_neighbors, dense_two_coloring, gauss_jordan_nullspace, matvec


def _submatrix_drop0(m: IntMatrix) -> IntMatrix:
    return IntMatrix(tuple(row[1:] for row in m.rows[1:]))


def test_diagram_id_parse():
    assert DiagramId.parse("A5") == DiagramId("A", 5)
    assert DiagramId.parse("DD4") == DiagramId("DD", 4)
    assert DiagramId.parse("CD2") == DiagramId("CD", 2)
    assert DiagramId.parse("E7") == DiagramId("E7")
    assert DiagramId.parse("G2dual") == DiagramId("G2dual")
    assert DiagramId("B", 3).text == "B3"
    assert DiagramId("F4dual").text == "F4dual"
    with pytest.raises(DomainError):
        DiagramId("A", 0)
    with pytest.raises(DomainError):
        DiagramId("D", 3)
    with pytest.raises(DomainError):
        DiagramId("G2", 2)
    with pytest.raises(UnsupportedFamilyError):
        DiagramId.parse("H4")
    for text in ("A\u00b2", "D\u0663", "B\uff13"):  # ranks take ASCII digits only
        with pytest.raises(UnsupportedFamilyError):
            DiagramId.parse(text)
    assert repr(DiagramId("A", 3)) == "DiagramId(family='A', rank=3)"
    with pytest.raises(DomainError, match="^family A needs a rank$"):
        DiagramId("A")
    with pytest.raises(UnsupportedFamilyError, match="^unknown family 'Q'$"):
        DiagramId("Q", 2)


def test_ranked_ids_parse_from_the_ranked_table():
    """A diagram id is a family of RANKED followed by ASCII digits, so each
    ranked family parses at its least rank (and any larger one), a rank below
    it is a DomainError, and anything else cannot be parsed."""
    for family, low in RANKED.items():
        assert DiagramId.parse(f"{family}{low}") == DiagramId(family, low)
        assert DiagramId.parse(f" {family}0{low + 125} ") == DiagramId(family, low + 125)
        with pytest.raises(DomainError, match=f"^family {family} needs rank >= {low}$"):
            DiagramId.parse(f"{family}{low - 1}")
    for text in ("Q5", "E65", "a3", "A+1", "A", "DD", "3", "", "A 3", "A3 B", "F4dual4", "DDD4"):
        with pytest.raises(UnsupportedFamilyError, match=f"^{re.escape(f'cannot parse diagram id {text!r}')}$"):
            DiagramId.parse(text)
    with pytest.raises(DomainError, match="^family A needs rank >= 1$"):
        DiagramId.parse("A0")


def test_frozen_cartan_matrices():
    assert build(DiagramId("A", 2)).cartan == IntMatrix(((2, -1), (-1, 2)))
    assert build(DiagramId("A", 1), extended=True).cartan == IntMatrix(((2, -2), (-2, 2)))
    assert build(DiagramId("G2")).cartan == IntMatrix(((2, -1), (-3, 2)))
    assert build(DiagramId("B", 2)).cartan == IntMatrix(((2, -1), (-2, 2)))
    assert build(DiagramId("C", 2)).cartan == IntMatrix(((2, -2), (-1, 2)))
    assert build(DiagramId("C", 3)).cartan == IntMatrix(
        ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    )
    assert build(DiagramId("B", 3)).cartan == IntMatrix(
        ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    )
    assert build(DiagramId("F4")).cartan == IntMatrix(
        ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    )


def test_a1_attaches_once_and_extends_by_a_double_bond():
    """Both ends of the A1 chain are a1: the extension bonds a0 to it twice,
    while the finite diagram lists it once."""
    assert build(DiagramId("A", 1)).u0 == (0,)
    ext = build(DiagramId("A", 1), extended=True)
    assert ext.u0 == (1,) and ext.labels == ("a0", "a1")


def test_only_finite_simply_laced_diagrams_have_a_display_grid():
    """Orbit tables render on the finite A/D/E grids, which place each vertex
    once; no extended or multiply-laced diagram carries one."""
    assert build(DiagramId("A", 3)).display == (((0, 0), (1, 1), (2, 2)),)
    assert build(DiagramId("D", 5)).display == (((0, 0), (1, 1), (2, 2), (3, 3)), ((2, 4),))
    assert build(DiagramId("E7")).display == (tuple((c, c) for c in range(6)), ((2, 6),))
    assert build(DiagramId("E8")).display == (tuple((c, c) for c in range(7)), ((4, 7),))
    dids = [d.did for d in catalog_extended()] + [DiagramId(f, 128) for f in RANKED]
    for did in dids:
        assert build(did, extended=True).display is None, did
        # finite_part keeps the grid, so on A/D/E it is build(did) in every field
        if did.family in SIMPLY_LACED:
            finite = build(did)
            assert sorted(v for row in finite.display for _, v in row) == list(range(finite.size)), did
            assert finite_part(build(did, extended=True)) == finite, did
        else:
            assert finite_part(build(did, extended=True)).display is None, did
            if did.family not in EXTENDED_ONLY:
                assert build(did).display is None, did


def test_e6_layout():
    d = build(DiagramId("E6"))
    assert d.labels == ("x0", "x1", "x2", "y1", "y2", "y3")
    assert dense_neighbors(d.cartan.rows, 0) == (3, 4, 5)
    assert dense_neighbors(d.cartan.rows, 1) == (3,)
    assert d.u0 == (5,)
    # bipartition: the x class and the y class, attachment side is y
    assert d.bipartition == ((0, 1, 2), (3, 4, 5))


def test_extended_layouts():
    e6 = build(DiagramId("E6"), extended=True)
    assert e6.labels == ("a0", "x0", "x1", "x2", "y1", "y2", "y3")
    assert dense_neighbors(e6.cartan.rows, 0) == (6,)
    assert e6.u0 == (6,)
    assert e6.bipartition is not None and 0 in e6.bipartition[1]

    a3 = build(DiagramId("A", 3), extended=True)
    assert dense_neighbors(a3.cartan.rows, 0) == (1, 3)
    d4 = build(DiagramId("D", 4), extended=True)
    assert dense_neighbors(d4.cartan.rows, 0) == (2,)
    assert d4.labels == ("a0", "d1", "d2", "f1", "f2")


def test_no_bipartition_for_odd_cycles():
    # extended A_2 is a triangle
    assert build(DiagramId("A", 2), extended=True).bipartition is None
    assert build(DiagramId("A", 3), extended=True).bipartition is not None


def test_nil_roots():
    assert nil_root(build(DiagramId("E6"), extended=True)) == (1, 3, 1, 1, 2, 2, 2)
    assert nil_root(build(DiagramId("D", 4), extended=True)) == (1, 1, 2, 1, 1)
    assert nil_root(build(DiagramId("G2"), extended=True)) == (1, 2, 3)
    assert nil_root(build(DiagramId("G2dual"), extended=True)) == (1, 2, 1)
    assert nil_root(build(DiagramId("F4"), extended=True)) == (1, 2, 3, 2, 1)
    assert nil_root(build(DiagramId("F4dual"), extended=True)) == (1, 2, 3, 4, 2)
    assert nil_root(build(DiagramId("B", 4), extended=True)) == (1, 1, 1, 1, 1)
    assert nil_root(build(DiagramId("C", 4), extended=True)) == (1, 2, 2, 2, 1)
    assert nil_root(build(DiagramId("DD", 4), extended=True)) == (1, 1, 2, 2, 2)
    assert nil_root(build(DiagramId("CD", 4), extended=True)) == (1, 1, 2, 2, 1)
    with pytest.raises(DomainError):
        nil_root(build(DiagramId("A", 2)))


@pytest.mark.parametrize("text", ["D128", "A127", "B128", "C128", "DD128", "CD64"])
def test_nil_root_at_the_rank_limit(text):
    ext = build(DiagramId.parse(text), extended=True)
    delta = nil_root(ext)
    assert matvec(ext.cartan, delta) == (0,) * ext.size
    assert delta[0] == 1
    assert delta == gauss_jordan_nullspace(ext.cartan)


def test_nil_root_affine_coordinate_is_one():
    for d in catalog_extended():
        assert nil_root(d)[0] == 1


def test_doubled_coordinate_law_simply_laced():
    for d in catalog_extended():
        if d.did.family not in SIMPLY_LACED or d.bipartition is None:
            continue
        delta, rows = nil_root(d), d.cartan.rows
        for i in range(d.size):
            assert 2 * delta[i] == sum(-rows[i][j] * delta[j] for j in dense_neighbors(rows, i))


def test_highest_root():
    """beta, where the orbit walk starts, is the tail of the nil root: the
    highest root on A/D/E.  On the folds it is pinned per family; B3's is
    (1, 1, 1), the highest root of neither K_F nor its transpose."""
    def beta(text):
        return nil_root(build(DiagramId.parse(text), extended=True))[1:]

    assert beta("E6") == (3, 1, 1, 2, 2, 2)
    assert beta("E7") == (2, 3, 4, 3, 2, 1, 2)
    assert beta("E8") == (2, 3, 4, 5, 6, 4, 2, 3)
    assert beta("D4") == (1, 2, 1, 1)
    assert beta("A3") == (1, 1, 1)
    assert beta("B3") == (1, 1, 1)
    assert beta("C3") == (2, 2, 1)
    assert beta("G2") == (2, 3)


def test_symmetric_exactly_for_simply_laced():
    for d in catalog_extended():
        symmetric = d.cartan == IntMatrix(zip(*d.cartan.rows))
        assert symmetric == (d.did.family in SIMPLY_LACED)


def test_finite_determinants_positive():
    ids = [DiagramId("A", 5), DiagramId("D", 6), DiagramId("E7"), DiagramId("B", 4),
           DiagramId("C", 4), DiagramId("F4"), DiagramId("G2")]
    for did in ids:
        assert sympy.Matrix(build(did).cartan.rows).det() > 0


def test_bipartition_is_proper():
    for d in catalog_extended():
        if d.bipartition is None:
            continue
        px, py = d.bipartition
        assert sorted(px + py) == list(range(d.size))
        for part in (px, py):
            for i in part:
                for j in part:
                    if i != j:
                        assert d.cartan[i, j] == 0


def test_fold_g2_from_extended_d4():
    base = build(DiagramId("D", 4), extended=True)
    primary = fold(base, (("a0",), ("d2",), ("d1", "f1", "f2")))
    assert primary.cartan == IntMatrix(((2, -1, 0), (-1, 2, -1), (0, -3, 2)))
    assert primary.extended and 0 in primary.bipartition[1]
    assert primary.labels == ("a0", "d2", "d1+f1+f2")


def test_diagram_names():
    assert build(DiagramId("E6")).name == "E6"
    assert build(DiagramId("E6"), extended=True).name == "extended E6"
    g2 = fold(build(DiagramId("D", 4), extended=True), (("a0",), ("d2",), ("d1", "f1", "f2")))
    assert g2.name == "extended diagram with no catalog id"
    assert build(DiagramId("G2"), extended=True).name == "extended G2"


def test_every_catalog_fold_has_2_on_its_diagonal():
    """fold sums an orbit's own column as it sums any other: with no bond
    inside the orbit, that sum is K_jj = 2, on each of the 23 catalog folds."""
    folds = [d for d in catalog_extended() if d.did.family not in SIMPLY_LACED]
    assert len(folds) == 23
    for d in folds:
        base, orbits, _ = _FOLDS[d.did.family](d.did.rank)
        folded = fold(build(DiagramId.parse(base), extended=True), orbits)
        assert folded.cartan == d.cartan, d.did.text
        assert [row[i] for i, row in enumerate(folded.cartan.rows)] == [2] * d.size, d.did.text


def test_fold_f4_pair_from_extended_e6():
    base = build(DiagramId("E6"), extended=True)
    primary = fold(base, (("a0",), ("y3",), ("x0",), ("y1", "y2"), ("x1", "x2")))
    assert primary.cartan == IntMatrix(
        ((2, -1, 0, 0, 0), (-1, 2, -1, 0, 0), (0, -1, 2, -1, 0),
         (0, 0, -2, 2, -1), (0, 0, 0, -1, 2))
    )
    # finite part of the dual (the transposed Cartan matrix) is F4's
    assert _submatrix_drop0(IntMatrix(zip(*primary.cartan.rows))) == build(DiagramId("F4")).cartan


def test_folded_build_keeps_the_requested_id():
    did = build(DiagramId("F4"), extended=True).did
    assert did == DiagramId("F4") and type(did) is DiagramId


def test_fold_finite_a3_end_swap():
    primary = fold(build(DiagramId("A", 3)), (("a1", "a3"), ("a2",)))
    assert primary.cartan == IntMatrix(((2, -2), (-1, 2)))
    assert IntMatrix(zip(*primary.cartan.rows)) == IntMatrix(((2, -1), (-2, 2)))
    assert not primary.extended


def test_fold_rejects_bad_partitions():
    a2 = build(DiagramId("A", 2))
    with pytest.raises(FoldingError):
        fold(a2, (("a1", "a2"),))  # bonded orbit
    a4 = build(DiagramId("A", 4))
    with pytest.raises(FoldingError):
        fold(a4, (("a1", "a4"), ("a2",), ("a3",)))  # representative-dependent sums
    with pytest.raises(FoldingError):
        fold(a4, (("a1",), ("a2",)))  # not a partition
    with pytest.raises(FoldingError, match="^no vertex labelled 'a9'$"):
        fold(a4, (("a1", "a4"), ("a2",), ("a9",)))  # unknown label
    with pytest.raises(FoldingError, match="^no vertex labelled 0$"):
        fold(a2, ((0,), (1,)))  # vertices are given by label only
    d4 = build(DiagramId("D", 4), extended=True)
    with pytest.raises(FoldingError, match="^the first orbit does not hold the affine vertex$"):
        fold(d4, (("d2",), ("a0",), ("d1", "f1", "f2")))  # a0's orbit second


def test_folded_catalog_finite_parts():
    for n in range(3, 7):
        bn = build(DiagramId("B", n)).cartan
        assert _submatrix_drop0(build(DiagramId("B", n), extended=True).cartan) == bn
        assert _submatrix_drop0(build(DiagramId("DD", n), extended=True).cartan) == bn
    for n in range(2, 7):
        cn = build(DiagramId("C", n)).cartan
        assert _submatrix_drop0(build(DiagramId("C", n), extended=True).cartan) == cn
        assert _submatrix_drop0(build(DiagramId("CD", n), extended=True).cartan) == cn
    f4 = build(DiagramId("F4")).cartan
    assert _submatrix_drop0(build(DiagramId("F4"), extended=True).cartan) == f4
    g2 = build(DiagramId("G2")).cartan
    assert _submatrix_drop0(build(DiagramId("G2"), extended=True).cartan) == g2


def test_transpose_relations_between_folded_families():
    # B-extended is the transpose of C-extended up to the vertex order
    for n in range(2, 7):
        b = build(DiagramId("B", n), extended=True).cartan
        c = build(DiagramId("C", n), extended=True).cartan
        rev = list(range(n, -1, -1))
        flipped = IntMatrix(tuple(tuple(c[rev[i], rev[j]] for j in range(n + 1)) for i in range(n + 1)))
        assert b == IntMatrix(zip(*flipped.rows)) or b == IntMatrix(zip(*c.rows))


def test_kostant_numbers():
    assert kostant_numbers(DiagramId("E6")) == (6, 8, 12, 24)
    assert kostant_numbers(DiagramId("E7")) == (8, 12, 18, 48)
    assert kostant_numbers(DiagramId("E8")) == (12, 20, 30, 120)
    assert kostant_numbers(DiagramId("D", 5)) == (4, 6, 8, 12)
    assert kostant_numbers(DiagramId("A", 3)) == (2, 4, 4, 4)
    # on a fold |H| is the order of H in its Molien pair (H, G)
    assert kostant_numbers(DiagramId("F4")) == (6, 8, 12, 24)
    assert kostant_numbers(DiagramId("G2")) == (4, 4, 6, 8)
    assert kostant_numbers(DiagramId("B", 3)) == (2, 6, 6, 6)
    assert kostant_numbers(DiagramId("DD", 4)) == (4, 6, 8, 12)
    assert kostant_numbers(DiagramId("CD", 3)) == (4, 4, 6, 8)


def test_kostant_numbers_must_be_integers(monkeypatch):
    """With |H| = 5 on E6, x^2 - 14x + 10 has no integer root."""
    monkeypatch.setattr(mckay, "molien_group", lambda did: BpgId("cyclic", 5))
    with pytest.raises(CatalogCorruptionError) as exc:
        kostant_numbers(DiagramId("E6"))
    assert str(exc.value) == "x^2 - 14x + 10 has no integer roots"


def test_group_orders():
    assert mckay_group(DiagramId("A", 1)) == BpgId("cyclic", 2)
    assert mckay_group(DiagramId("D", 4)).order == 8
    assert mckay_group(DiagramId("E8")).order == 120
    with pytest.raises(UnsupportedFamilyError):
        mckay_group(DiagramId("B", 3))


# family, least parameter, |G| at it, refusal of one parameter below it (or,
# for a group without one, of the parameter 1)
_GROUP_ROWS = (
    ("cyclic", 1, 1, "cyclic group needs n >= 1"),
    ("binary_dihedral", 2, 8, "binary dihedral group needs n >= 2"),
    ("binary_tetrahedral", None, 24, "binary_tetrahedral takes no parameter"),
    ("binary_octahedral", None, 48, "binary_octahedral takes no parameter"),
    ("binary_icosahedral", None, 120, "binary_icosahedral takes no parameter"),
)


@pytest.mark.parametrize("family, least, order, refusal", _GROUP_ROWS)
def test_group_table_edges(family, least, order, refusal):
    """Each group family at its least parameter and one below, with its
    order against the closure, and McKay's pairing read both ways on every
    group whose partner is at most rank 128."""
    bid = BpgId(family, least)
    assert bid.order == order == enumerate_group(bid).order
    with pytest.raises(DomainError, match=f"^{re.escape(refusal)}$"):
        BpgId(family, least - 1 if least else 1)
    if least is None:
        assert mckay_group(bid.paired_diagram()) == bid
        return
    with pytest.raises(DomainError, match=f"^{re.escape(refusal)}$"):
        BpgId(family)
    assert BpgId(family, 5).order == 5 * order // least == enumerate_group(BpgId(family, 5)).order
    top = {"cyclic": 129, "binary_dihedral": 126}[family]
    for n in range(2, top + 1):
        assert mckay_group(BpgId(family, n).paired_diagram()) == BpgId(family, n)
    assert BpgId(family, top).paired_diagram().rank == 128


def test_catalog_tables_agree():
    """Every row of the McKay and fold tables against the other table, on the
    catalog and at rank 128: a mistyped family, shift, base or group fails."""
    dids = [d.did for d in catalog_extended()] + [DiagramId(f, 128) for f in RANKED]
    for did in dids:
        if did.family in SIMPLY_LACED:
            assert mckay_group(did).paired_diagram() == did
            with pytest.raises(UnsupportedFamilyError, match="is not a folded family"):
                folded_pair(did)
            continue
        h, g = folded_pair(did)
        base, orbits, _ = _FOLDS[did.family](did.rank)
        assert DiagramId.parse(base) in (h.paired_diagram(), g.paired_diagram()), did
        ratio = 3 if did.family in ("G2", "G2dual") else 2
        assert g.order == ratio * h.order == max(map(len, orbits)) * h.order, did


def test_catalog_is_large_enough():
    cat = catalog_extended()
    assert len(cat) == 8 + 7 + 3 + 5 + 5 + 4 + 4 + 5
    assert all(isinstance(d, Diagram) and d.extended for d in cat)


def test_make_rejects_broken_cartan_matrices():
    """Rows are checked in order, the diagonal before the bonds, so the first
    faulty row names the error: a fault that only a later row's column test
    would see does not hide an earlier row's."""
    labels = ("a", "b", "c")
    diagonal, sign = "diagonal entry is not 2", "off-diagonal sign pattern broken"
    for rows, message in (
        (((2, -1, 0), (-1, 1, -1), (0, -1, 2)), diagonal),  # diagonal entry 1
        (((2, 1, 0), (-1, 2, -1), (0, -1, 2)), sign),  # positive off-diagonal entry
        (((2, -1, 0), (1, 2, -1), (0, -1, 2)), sign),  # the same below the diagonal
        (((2, -1, -1), (-1, 2, -1), (0, -1, 2)), sign),  # K[0][2] != 0 but K[2][0] == 0
        (((2, -1, 0), (-1, 2, -1), (-1, -1, 2)), sign),  # K[2][0] != 0 but K[0][2] == 0
        # two faults: row 0's positive entry is found before row 1's diagonal
        (((2, 1, 0), (-1, 1, -1), (0, -1, 2)), sign),
        (((1, 1, 0), (-1, 2, -1), (0, -1, 2)), diagonal),
        # row 0's column test sees K[2][0] before row 1's diagonal is read
        (((2, -1, 0), (-1, 1, -1), (-1, -1, 2)), sign),
    ):
        for extended in (False, True):
            with pytest.raises(CatalogCorruptionError) as err:
                _make(None, extended, labels, IntMatrix(rows))
            assert str(err.value) == message, rows
    with pytest.raises(CatalogCorruptionError) as err:
        _make(None, False, labels[:2], IntMatrix(((2, -1, 0), (-1, 2, -1), (0, -1, 2))))
    assert str(err.value) == "label/matrix size mismatch"


def _random_graph(rng: random.Random, n: int, shape: str) -> list[tuple[int, int]]:
    """Edges of a random tree or cycle on n vertices, or of up to four such
    components (single vertices among them) side by side."""
    if shape == "tree":
        return [(rng.randrange(v), v) for v in range(1, n)]
    if shape == "cycle":
        return [(v, (v + 1) % n) for v in range(n)]
    edges, base = [], 0
    while base < n:
        size = min(n - base, rng.randint(1, 12))
        part = "cycle" if size >= 3 and rng.random() < 0.5 else "tree"
        edges += [(base + i, base + j) for i, j in _random_graph(rng, size, part)]
        base += size
    return edges


def test_two_coloring_and_neighbors_against_dense_scan():
    """Random trees, even and odd cycles and disconnected graphs of up to 40
    vertices, relabelled at random, with single, double and triple bonds:
    the same parts in the same order, None on an odd cycle, and B's nonzero
    columns, the neighbours `kostant` walks, those of a scan of every entry."""
    rng = random.Random(1959)
    for trial in range(300):
        shape = ("tree", "cycle", "forest")[trial % 3]
        n = rng.randint(3 if shape == "cycle" else 1, 40)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[2 * (i == j) for j in range(n)] for i in range(n)]
        for i, j in _random_graph(rng, n, shape):
            p, q = rng.choice(((1, 1), (1, 1), (1, 2), (2, 1), (1, 3)))
            rows[perm[i]][perm[j]], rows[perm[j]][perm[i]] = -p, -q
        cartan = IntMatrix(rows)
        parts = _two_coloring([[j for j in range(n) if row[j]] for row in rows])
        assert parts == dense_two_coloring(rows)
        if shape == "cycle":
            assert (parts is None) == (n % 2 == 1)
        d = _make(None, False, tuple(f"v{i}" for i in range(n)), cartan)
        for i in range(n):
            assert tuple(compress(range(n), d.bonds.rows[i])) == dense_neighbors(rows, i)


def test_folded_build_reads_rows_directly(monkeypatch):
    """Building extended C128 folds extended A255: every entry check and
    orbit sum reads the Cartan rows, none goes through IntMatrix indexing."""
    calls = 0
    getitem = IntMatrix.__getitem__

    def counted(self, ij):
        nonlocal calls
        calls += 1
        return getitem(self, ij)

    monkeypatch.setattr(IntMatrix, "__getitem__", counted)
    build.cache_clear()
    try:
        folded = build(DiagramId("C", 128), extended=True)
    finally:
        build.cache_clear()
    assert folded.size == 129
    assert calls == 0


def test_folded_build_makes_no_int_conversion(monkeypatch):
    """Extended C128 and the extended A255 it folds are built from rows that
    are int tuples already, without the public constructor's int()."""
    calls = 0
    init = IntMatrix.__init__

    def counted(self, rows):
        nonlocal calls
        calls += 1
        init(self, rows)

    monkeypatch.setattr(IntMatrix, "__init__", counted)
    build.cache_clear()
    try:
        folded = build(DiagramId("C", 128), extended=True)
    finally:
        build.cache_clear()
    assert folded.size == 129
    assert calls == 0


_RECORDS = {
    "DiagramId": lambda: DiagramId("A", 3),
    "Diagram": lambda: build(DiagramId("E6"), extended=True),
    "BpgId": lambda: BpgId("cyclic", 3),
    "BicoloredPair": lambda: bicolored_reflections(build(DiagramId("D", 4))),
    "GeneratingFunction": lambda: generating_function(build(DiagramId("E6"), extended=True)),
    "OrbitTable": lambda: assembling_vectors(build(DiagramId("E6"), extended=True)),
    "BpgGroup": lambda: enumerate_group(BpgId("binary_tetrahedral")),
    "Report": lambda: Report("example", (("a check", True),)),
}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_records_are_immutable_values(name):
    record = _RECORDS[name]()
    assert type(record).__name__ == name
    twin = type(record)(*record)
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
