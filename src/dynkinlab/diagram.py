"""Dynkin diagram catalog: Cartan matrices, bipartitions, foldings, and the
binary polyhedral groups they pair with.

Vertex conventions, fixed once for the whole package:

* extended diagrams list the affine vertex first (index 0), followed by the
  finite vertices in the order of the corresponding finite diagram;
* A_n is the chain a1..an, extended by a vertex joined to both ends
  (a double bond for n = 1, a cycle otherwise);
* D_m is the chain d1..d_{m-2} with the fork f1, f2 on d_{m-2}; the affine
  vertex forks with d1 on d2;
* E6 is ordered (x0, x1, x2, y1, y2, y3) with x0 the degree-3 vertex,
  arms x1-y1-x0, x2-y2-x0 and y3-x0; the affine vertex sits on y3;
* E7 is the chain e1..e6 with e7 on e3, affine vertex on e1;
* E8 is the chain e1..e7 with e8 on e5, affine vertex on e1;
* B_n / C_n are chains whose last bond is doubled, K[n-1][n-2] = -2 for B
  and K[n-2][n-1] = -2 for C;
* the multiply-laced extended diagrams are all produced by fold() from
  the rows of _FOLDS: G2 from extended D4, G2dual from extended E6
  (order-3 symmetries), F4 from extended E7, F4dual from extended E6
  (order-2 arm swaps), C from the even cycle, B and DD and CD from
  extended D diagrams (end-pair identifications).

One bond table and one builder make every finite diagram: _finite_spec
gives each family its labels, its bonds (i, j, -K_ij, -K_ji), the vertices
the extension attaches a0 to and the display grid orbit tables render on,
and _cartan subtracts the bonds from 2I.  The A/D/E extension adds a0's
bonds to the same table (two to a1 for A1, hence the double bond).
Extended diagrams carry no display grid; finite ones, finite_part's too,
carry the catalog's.

The per-family facts are data, stated once: _FOLDS gives each folded
family its base diagram, orbits and Molien pair (H, G) (Slodowy's
correspondence), and _GROUPS gives each group family its least parameter,
its order and its A/D/E partner (McKay's correspondence), read by BpgId
and, backwards, by mckay_group.  Both catalogs of check targets are here,
catalog_extended and catalog_groups.  Group closure and Molien sums live
in molien.py, Kostant's numbers a, b, h in mckay.py.

The records (DiagramId, Diagram, BpgId) are immutable NamedTuples;
DiagramId and BpgId validate their fields in __new__; Diagram.name is
what reports and errors call a diagram.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import neg
from typing import NamedTuple, Sequence

from .errors import (
    CatalogCorruptionError,
    DomainError,
    FoldingError,
    UnsupportedFamilyError,
)
from .exact import IntMatrix, _trusted_matrix, nullspace_primitive

FAMILIES = ("A", "D", "E6", "E7", "E8", "B", "C", "F4", "G2", "G2dual", "F4dual", "DD", "CD")
RANKED = {"A": 1, "D": 4, "B": 2, "C": 2, "DD": 3, "CD": 2}
EXTENDED_ONLY = ("G2dual", "F4dual", "DD", "CD")
SIMPLY_LACED = ("A", "D", "E6", "E7", "E8")


class _DiagramIdFields(NamedTuple):
    family: str
    rank: int | None = None


class DiagramId(_DiagramIdFields):
    """Family name plus rank for the ranked families (A, D, B, C, DD, CD)."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int | None = None) -> "DiagramId":
        if family not in FAMILIES:
            raise UnsupportedFamilyError(f"unknown family {family!r}")
        if family in RANKED:
            if rank is None:
                raise DomainError(f"family {family} needs a rank")
            if rank < RANKED[family]:
                raise DomainError(f"family {family} needs rank >= {RANKED[family]}")
        elif rank is not None:
            raise DomainError(f"family {family} does not take a rank")
        return super().__new__(cls, family, rank)

    @classmethod
    def parse(cls, text: str) -> "DiagramId":
        s = text.strip()
        if s in FAMILIES and s not in RANKED:
            return cls(s)
        family = s.rstrip("0123456789")  # a ranked family, then ASCII digits
        if family not in RANKED or family == s:
            raise UnsupportedFamilyError(f"cannot parse diagram id {text!r}")
        return cls(family, int(s[len(family):]))

    @property
    def text(self) -> str:
        return self.family if self.rank is None else f"{self.family}{self.rank}"


class Diagram(NamedTuple):
    """A diagram instance: vertices, Cartan matrix and derived structure.

    bipartition is (part_x, part_y) with both parts mutually non-adjacent,
    or None when the underlying graph has an odd cycle.  The orientation
    (which class is called y) follows the rules in coxeter.py.  u0 lists
    the vertices adjacent to the affine vertex (for a finite diagram: the
    vertices its extension would attach to).
    """

    did: DiagramId | None
    extended: bool
    labels: tuple[str, ...]
    cartan: IntMatrix
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None
    u0: tuple[int, ...] | None
    display: tuple[tuple[tuple[int, int], ...], ...] | None = None

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def name(self) -> str:
        """"E6", "extended E6", or "diagram with no catalog id" (a fold or hand-made)."""
        base = self.did.text if self.did else "diagram with no catalog id"
        return f"extended {base}" if self.extended else base

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    @property
    def bonds(self) -> IntMatrix:
        """2I - K: entry (i, j) is -K_ij off the diagonal, 0 on it.  On an
        extended diagram this is the McKay operator B, on a finite one the
        adjacency matrix."""
        return _bonds(self.cartan)


@lru_cache(maxsize=None)
def _bonds(cartan: IntMatrix) -> IntMatrix:
    """2I - K, each row negated whole and its diagonal sliced out; cached per
    process on K, which diagrams may share."""
    negated = (tuple(map(neg, row)) for row in cartan.rows)
    return _trusted_matrix(tuple(row[:i] + (0,) + row[i + 1:] for i, row in enumerate(negated)))


def _two_coloring(bonded: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """(part0, part1) of the graph whose vertex i is joined to each j != i in
    bonded[i], or None if it has an odd cycle; colour 0 for the least
    vertex of each component."""
    n = len(bonded)
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            i = queue.pop()
            for j in bonded[i]:
                if j == i:
                    continue
                if color[j] == -1:
                    color[j] = 1 - color[i]
                    queue.append(j)
                elif color[j] == color[i]:
                    return None
    part0 = tuple(i for i in range(n) if color[i] == 0)
    part1 = tuple(i for i in range(n) if color[i] == 1)
    return part0, part1


def _orient(
    parts: tuple[tuple[int, ...], tuple[int, ...]] | None,
    extended: bool,
    attach: tuple[int, ...] | None,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Order a 2-coloring as (part_x, part_y).

    part_y holds the affine vertex on extended diagrams, or all attachment
    vertices on finite ones when they share a class; the fallback puts
    vertex 0 into part_x.
    """
    if parts is None:
        return None
    p0, p1 = parts
    if extended:
        return (p1, p0) if 0 in p0 else (p0, p1)
    if attach:
        if all(v in p0 for v in attach):
            return (p1, p0)
        if all(v in p1 for v in attach):
            return (p0, p1)
    return (p0, p1) if 0 in p0 else (p1, p0)


def _make(
    did: DiagramId | None,
    extended: bool,
    labels: tuple[str, ...],
    cartan: IntMatrix,
    attach: tuple[int, ...] | None = None,
    display: tuple[tuple[tuple[int, int], ...], ...] | None = None,
) -> Diagram:
    rows = cartan.rows
    n = len(rows)
    if cartan.ncols != n or len(labels) != n:
        raise CatalogCorruptionError("label/matrix size mismatch")
    cols = range(n)
    bonded = [list(compress(cols, row)) for row in rows]  # each row's nonzero columns
    index: list[list[int]] = [[] for _ in cols]  # index[j]: the rows nonzero in column j
    for i, js in enumerate(bonded):
        for j in js:
            index[j].append(i)
    for i, (row, js) in enumerate(zip(rows, bonded)):
        if row[i] != 2:
            raise CatalogCorruptionError("diagonal entry is not 2")
        if js != index[i] or any(row[j] > 0 for j in js if j != i):
            raise CatalogCorruptionError("off-diagonal sign pattern broken")
    if extended:
        attach = tuple(bonded[0][1:])  # row 0's bonds, past its diagonal
    parts = _orient(_two_coloring(bonded), extended, attach)
    return Diagram(
        did=did,
        extended=extended,
        labels=labels,
        cartan=cartan,
        bipartition=parts,
        u0=attach,
        display=display,
    )


def _finite_spec(did: DiagramId):
    """labels, bonds, attach vertices and display grid of a finite diagram.

    A bond (i, j, p, q) puts -p at K_ij and -q at K_ji.  Every family but E6
    is the chain 0..n-1 with one bond moved or made multiple.  attach lists
    the vertices that the extension bonds a0 to, one bond each; B, C, F4 and
    G2 have none, as their extensions are folded."""
    fam = did.family
    n = did.rank or int(fam[1])  # E6, E7, E8, F4 and G2 name their rank
    labels = tuple(f"{fam[0].lower()}{i + 1}" for i in range(n))
    bonds = [(i, i + 1, 1, 1) for i in range(n - 1)]
    line = tuple((c, c) for c in range(n))
    if fam == "A":
        return labels, bonds, (0, n - 1), (line,)
    if fam == "E6":
        return (("x0", "x1", "x2", "y1", "y2", "y3"),
                [(0, 3, 1, 1), (0, 4, 1, 1), (0, 5, 1, 1), (1, 3, 1, 1), (2, 4, 1, 1)],
                (5,), (((0, 1), (1, 3), (2, 0), (3, 4), (4, 2)), ((2, 5),)))
    if fam in ("D", "E7", "E8"):  # the last vertex branches off vertex b
        b = {"D": n - 3, "E7": 2, "E8": 4}[fam]
        bonds[-1] = (b, n - 1, 1, 1)
        if fam == "D":
            return labels[:-2] + ("f1", "f2"), bonds, (1,), (line[:-1], ((b, n - 1),))
        return labels, bonds, (0,), (line[:-1], ((b, n - 1),))
    k, p, q = {"B": (n - 2, 1, 2), "C": (n - 2, 2, 1), "F4": (1, 2, 1), "G2": (0, 1, 3)}[fam]
    bonds[k] = (k, k + 1, p, q)
    return labels, bonds, None, None


def _cartan(n: int, bonds) -> IntMatrix:
    """2I minus each bond (i, j, p, q): p at (i, j) and q at (j, i), so a
    bond listed twice is a double bond."""
    rows = [[0] * i + [2] + [0] * (n - 1 - i) for i in range(n)]
    for i, j, p, q in bonds:
        rows[i][j] -= p
        rows[j][i] -= q
    return _trusted_matrix(tuple(map(tuple, rows)))


def _build_finite(did: DiagramId) -> Diagram:
    labels, bonds, attach, display = _finite_spec(did)
    # A1's two chain ends are one vertex
    attach = attach and tuple(dict.fromkeys(attach))
    return _make(did, False, labels, _cartan(len(labels), bonds), attach=attach, display=display)


def _extend_simply_laced(did: DiagramId) -> Diagram:
    labels, bonds, attach, _ = _finite_spec(did)
    bonds = [(i + 1, j + 1, p, q) for i, j, p, q in bonds] + [(0, v + 1, 1, 1) for v in attach]
    return _make(did, True, ("a0",) + labels, _cartan(len(labels) + 1, bonds))


def fold(diagram: Diagram, orbits: Sequence[Sequence[str]]) -> Diagram:
    """Fold a diagram along an orbit partition of its vertices.

    Orbits list vertex labels; on an extended diagram the first orbit holds
    the affine vertex.  Each orbit becomes one vertex; the new entry for the
    pair (A, B) is sum(K[i][j] for i in A) at any fixed j in B.  The
    partition is admissible only if no orbit contains a bond and the sum
    does not depend on the chosen representative j.  Returns the folded
    diagram; its dual has the transposed Cartan matrix.
    """
    k = diagram.cartan.rows
    n = diagram.size
    if unknown := [v for orb in orbits for v in orb if v not in diagram.labels]:
        raise FoldingError(f"no vertex labelled {unknown[0]!r}")
    resolved = [tuple(map(diagram.index_of, orb)) for orb in orbits]
    seen = sorted(v for orb in resolved for v in orb)
    if seen != list(range(n)):
        raise FoldingError("orbits do not partition the vertex set")
    if diagram.extended and 0 not in resolved[0]:
        raise FoldingError("the first orbit does not hold the affine vertex")
    for orb in resolved:
        for i in orb:
            for j in orb:
                if i != j and k[i][j] != 0:
                    raise FoldingError("orbit contains a bond")
    m = len(resolved)
    rows = [[0] * m for _ in range(m)]
    for a, orb_a in enumerate(resolved):
        summed = [sum(col) for col in zip(*(k[i] for i in orb_a))]
        for b, orb_b in enumerate(resolved):  # an orbit holds no bond, so a == b sums to 2
            sums = {summed[j] for j in orb_b}
            if len(sums) != 1:
                raise FoldingError("entry sum depends on the representative")
            rows[a][b] = sums.pop()
    labels = tuple("+".join(diagram.labels[v] for v in orb) for orb in resolved)
    return _make(None, diagram.extended, labels, _trusted_matrix(tuple(map(tuple, rows))))


# group family -> (least n, or None for a group without parameter; |G|, per
# unit of n where there is one; McKay partner family; rank shift from n to
# the partner's rank): cyclic:n <-> A_(n-1), binary_dihedral:n <-> D_(n+2),
# and the exceptional groups <-> E6, E7, E8
_GROUPS = {
    "cyclic": (1, 1, "A", -1),
    "binary_dihedral": (2, 4, "D", 2),
    "binary_tetrahedral": (None, 24, "E6", None),
    "binary_octahedral": (None, 48, "E7", None),
    "binary_icosahedral": (None, 120, "E8", None),
}


class _BpgIdFields(NamedTuple):
    family: str
    n: int | None = None


class BpgId(_BpgIdFields):
    """Name of a finite subgroup of the unit quaternions."""

    __slots__ = ()

    def __new__(cls, family: str, n: int | None = None) -> "BpgId":
        if family not in _GROUPS:
            raise UnsupportedFamilyError(f"unknown group family {family!r}")
        least = _GROUPS[family][0]
        if least is None and n is not None:
            raise DomainError(f"{family} takes no parameter")
        if least is not None and (n is None or n < least):
            raise DomainError(f"{family.replace('_', ' ')} group needs n >= {least}")
        return super().__new__(cls, family, n)

    @classmethod
    def parse(cls, text: str) -> "BpgId":
        s = text.strip()
        if ":" in s:
            fam, _, num = s.partition(":")
            if not (num.isascii() and num.isdigit()):
                raise DomainError(f"bad group parameter in {text!r}")
            return cls(fam, int(num))
        return cls(s)

    @property
    def text(self) -> str:
        return self.family if self.n is None else f"{self.family}:{self.n}"

    @property
    def order(self) -> int:
        return _GROUPS[self.family][1] * (self.n or 1)

    def paired_diagram(self) -> DiagramId:
        """McKay partner: the diagram whose extension is this group's McKay graph."""
        _, _, family, shift = _GROUPS[self.family]
        if self.n is None:
            return DiagramId(family)
        if self.n + shift < RANKED[family]:
            raise DomainError(f"{self.text} has no paired diagram in the catalog")
        return DiagramId(family, self.n + shift)


def mckay_group(did: DiagramId) -> BpgId:
    """The group paired with an A/D/E diagram: the _GROUPS row naming its
    family, the rank shift undone."""
    for group, (_, _, family, shift) in _GROUPS.items():
        if family == did.family:
            return BpgId(group, None if shift is None else did.rank - shift)
    raise UnsupportedFamilyError("McKay groups are tabulated for ADE families only")


# folded family -> rank n -> (base extended diagram, vertex orbits, Molien
# pair (H, G)).  The orbits are those of a diagram symmetry of order |G|/|H|;
# component 0 of the folded diagram is the Molien series of H, not of G.
_FOLDS = {
    "G2": lambda n: ("D4", (("a0",), ("d2",), ("d1", "f1", "f2")),
                     ("binary_dihedral:2", "binary_tetrahedral")),
    "G2dual": lambda n: ("E6", (("a0", "x1", "x2"), ("y1", "y2", "y3"), ("x0",)),
                         ("binary_dihedral:2", "binary_tetrahedral")),
    "F4": lambda n: ("E7", (("a0", "e6"), ("e1", "e5"), ("e2", "e4"), ("e3",), ("e7",)),
                     ("binary_tetrahedral", "binary_octahedral")),
    "F4dual": lambda n: ("E6", (("a0",), ("y3",), ("x0",), ("y1", "y2"), ("x1", "x2")),
                         ("binary_tetrahedral", "binary_octahedral")),
    "C": lambda n: (f"A{2 * n - 1}",
                    (("a0",), *((f"a{i}", f"a{2 * n - i}") for i in range(1, n)), (f"a{n}",)),
                    (f"cyclic:{2 * n}", f"binary_dihedral:{n}")),
    "B": lambda n: (f"D{n + 2}",
                    (("a0", "d1"), *((f"d{i}",) for i in range(2, n + 1)), ("f1", "f2")),
                    (f"cyclic:{2 * n}", f"binary_dihedral:{n}")),
    "DD": lambda n: (f"D{n + 1}",
                     (("a0",), *((f"d{i}",) for i in range(1, n)), ("f1", "f2")),
                     (f"binary_dihedral:{n - 1}", f"binary_dihedral:{2 * n - 2}")),
    "CD": lambda n: (f"D{2 * n}",
                     (("a0", "f2"), ("d1", "f1"),
                      *((f"d{i}", f"d{2 * n - i}") for i in range(2, n)), (f"d{n}",)),
                     ("cyclic:4" if n == 2 else f"binary_dihedral:{n - 1}",
                      f"binary_dihedral:{2 * n - 2}")),
}


def folded_pair(did: DiagramId) -> tuple[BpgId, BpgId]:
    """The Molien pair (H, G) of a folded family, read from _FOLDS."""
    if did.family not in _FOLDS:
        raise UnsupportedFamilyError(f"{did.text} is not a folded family")
    h, g = _FOLDS[did.family](did.rank)[2]
    return BpgId.parse(h), BpgId.parse(g)


def molien_group(did: DiagramId) -> BpgId:
    """The group whose Molien series is component 0 of did's extension:
    H of the Molien pair (H, G) on a fold, McKay's group on A/D/E."""
    return folded_pair(did)[0] if did.family in _FOLDS else mckay_group(did)


@lru_cache(maxsize=None)
def build(did: DiagramId, extended: bool = False) -> Diagram:
    """Construct a catalog diagram; the multiply-laced extended ones fold
    the base diagram that _FOLDS names."""
    if did.family in EXTENDED_ONLY and not extended:
        raise UnsupportedFamilyError(f"family {did.family} exists only in extended form")
    if not extended:
        return _build_finite(did)
    if did.family in SIMPLY_LACED:
        return _extend_simply_laced(did)
    base, orbits, _ = _FOLDS[did.family](did.rank)
    return fold(build(DiagramId.parse(base), extended=True), orbits)._replace(did=did)


@lru_cache(maxsize=None)
def finite_part(diagram: Diagram) -> Diagram:
    """The diagram left after deleting the affine vertex, on the catalog's
    display grid where it has one; on A/D/E it equals build(did).  Cached
    per process."""
    if not diagram.extended:
        raise DomainError("finite part is defined for extended diagrams")
    sub = _trusted_matrix(tuple(row[1:] for row in diagram.cartan.rows[1:]))
    attach = tuple(j - 1 for j in (diagram.u0 or ()))
    did = diagram.did if diagram.did and diagram.did.family not in EXTENDED_ONLY else None
    display = did and _finite_spec(did)[3]
    return _make(did, False, diagram.labels[1:], sub, attach=attach, display=display)


def nil_root(diagram: Diagram) -> tuple[int, ...]:
    """Primitive positive kernel vector of the extended Cartan matrix, one
    solve per call: its one caller, the walk, is cached."""
    if not diagram.extended:
        raise DomainError("nil root requires an extended diagram")
    return nullspace_primitive(diagram.cartan)


@lru_cache(maxsize=None)
def catalog_extended() -> tuple[Diagram, ...]:
    """Every extended diagram exercised by the verification suites; cached
    per process, as `verify all` reads it once per check."""
    ids: list[DiagramId] = []
    ids += [DiagramId("A", n) for n in range(1, 9)]
    ids += [DiagramId("D", m) for m in range(4, 11)]
    ids += [DiagramId("E6"), DiagramId("E7"), DiagramId("E8")]
    ids += [DiagramId("B", n) for n in range(2, 7)]
    ids += [DiagramId("C", n) for n in range(2, 7)]
    ids += [DiagramId("F4"), DiagramId("G2"), DiagramId("F4dual"), DiagramId("G2dual")]
    ids += [DiagramId("DD", n) for n in range(3, 7)]
    ids += [DiagramId("CD", n) for n in range(2, 7)]
    return tuple(build(did, extended=True) for did in ids)


def catalog_groups() -> tuple[BpgId, ...]:
    """Every group exercised by the verification suites."""
    return (tuple(BpgId("cyclic", n) for n in range(2, 9))
            + tuple(BpgId("binary_dihedral", n) for n in range(2, 7))
            + tuple(BpgId(family) for family, (least, *_) in _GROUPS.items() if least is None))
