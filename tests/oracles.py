"""Oracles for the tests: the general fraction-free Cramer solve and the
tree-shaped one in Z[t], the Leibniz permutation sum, sympy's determinant
over ZZ[t], Faddeev-LeVerrier and the Coxeter order loop on list products,
and the float closure of the binary polyhedral groups, plus `parse_poly`,
the inverse of `exact.format_poly` that reads the CLI's polynomial text
back.

`cramer_solve` is a dense Bareiss elimination that knows nothing of the
diagram's shape; `tree_solve` is the tree-shaped Cramer solve in IntPoly
arithmetic, fast enough for the rank limit.  `kostant.generating_function`,
the same tree solve on integers at t = 2^w, is checked against both.
`list_matmul` combines whole IntMatrix rows as lists; `list_charpoly`,
`dense_order` (the order of a whole matrix by dense powers) and
`list_coxeter_number` (C = w2 w1 included) multiply with it, with no slot
width to get wrong and no product code shared with the package.
`exact.charpoly`, `coxeter.coxeter_number`, which walks one colour class
through the bicolored pair, and the package's `@` are checked against them.
`gauss_jordan_nullspace` is the dense fraction-free Gauss-Jordan kernel
vector; the sparse elimination of `exact.nullspace_primitive` is checked
against it.  `block_render` renders an orbit table one block and one
display row at a time; `orbit._render_blocks`, one format call per table,
must give the same text.  `dense_two_coloring` and `dense_neighbors`
read a graph off every entry of its rows; the bipartition of `diagram.py`
and the nonzero columns of B that `kostant` walks, which visit the nonzero
entries only, are checked against them.  `list_three_term` checks
McKay's three-term relation one vector at a time and `relation_rows` each
row's whole polynomial identity; `exact._three_term`, which reads both off
packed rows, is checked against them.
`product_route` gives the two sides of each line of the closed-form,
orbit-form, observation and block checks as IntPoly and IntMatrix
products; the comparisons of `mckay.py`, made on packed integers at
t = 2^w, must give every line the same verdict.  `lincomb` forms the sums
and multiples of matrices that it and the tests need.
`gather_series` is the series recurrence that gathers each term from
every earlier one, zero or not; `exact.series_expand`, which adds each
nonzero term forward, is checked against it.  `bfs_enumerate_group` is the breadth-first closure over F_p that
multiplies every element by every generator; the coset closure of
`molien.py` must find the same elements and trace classes.
`full_scan_classes` names the trace classes by scanning every j in 0..L/2; the scan of `molien.py` over
the multiples of L / gcd(L, |G|) must find the same classes.
`float_enumerate_group` closes each group as 2x2 unitary complex matrices
with an O(|G|^2) nearness scan, and `float_molien_sums` runs one recurrence
per element; the exact closure over F_p in `molien.py` and its per-class
sums are checked against them.  `loop_molien_sums` is the integer sum one
degree at a time, with each Ramanujan sum from trial division and every
coefficient checked as it is made; the per-gcd-class sums of `molien.py`
must equal it, failures and their first witness included.
`star_tree` builds the wild-tree controls T_{p,q,r}, extended diagrams
with no catalog id: hyperbolic for 1/p + 1/q + 1/r < 1, where the paper's
theorems have no group to speak of, affine for T_{3,3,3}.  A check that
holds on every bipartite tree must PASS on them.
`multiplicities` reads every component's series back from the packed
columns of `kostant.packed_series`, raising the first negative slot's
error; the package itself compares those columns packed.
`package_caches` lists every cache the package defines, by qualified name,
as the benchmark's harness does, found once when this module is imported;
`clear_package_caches` empties them all, as a fresh process starts.
"""

from __future__ import annotations

import cmath
import importlib
import inspect
import itertools
import math
import operator
import pkgutil
import re
from collections import Counter
from functools import lru_cache
from typing import Sequence

import sympy
from sympy.polys.matrices import DomainMatrix

import dynkinlab
import dynkinlab.mckay as mckay
import dynkinlab.molien as molien
from dynkinlab.coxeter import bicolored_reflections
from dynkinlab.diagram import Diagram, DiagramId, _cartan, _make, build
from dynkinlab.errors import (
    DimensionError,
    DomainError,
    GeneratorSetError,
    IdentityViolationError,
    RankError,
)
from dynkinlab.exact import IntMatrix, IntPoly, _as_poly, _trusted_matrix, _unpack
from dynkinlab.kostant import packed_series
from dynkinlab.molien import BpgGroup, BpgId, _field, _prime_factors

T = IntPoly.monomial(1)
SYM_T = sympy.Symbol("t")


def zeros(n: int, m: int) -> IntMatrix:
    """The n x m zero matrix."""
    return IntMatrix(((0,) * m,) * n)


def identity(n: int) -> IntMatrix:
    """The n x n identity matrix."""
    return IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def cramer_matrix(diagram: Diagram) -> tuple[tuple[IntPoly, ...], ...]:
    """The rows of M(t) = (1 + t^2) I - t B."""
    q = 1 + T**2
    return tuple(
        tuple((q if i == j else 0) - T * v for j, v in enumerate(row))
        for i, row in enumerate(diagram.bonds.rows)
    )


def cramer_solve(
    rows: Sequence[Sequence[IntPoly | int]], rhs: Sequence[IntPoly | int]
) -> tuple[IntPoly, tuple[IntPoly, ...]]:
    """(det M, (det M_0, ..., det M_(n-1))) for the square matrix M given by
    its rows, M_i being M with column i replaced by rhs, so that M x = rhs
    has x_i = det M_i / det M.

    One fraction-free elimination of [M | rhs], then fraction-free back
    substitution a[i][i] y_i = d rhs'_i - sum_(j > i) a[i][j] y_j with d the
    last pivot, each an exact division (Bareiss 1968; Nakos, Turner and
    Williams 1997).  A row swap negates det and every numerator alike.
    Raises DimensionError unless M is square and rhs has one entry per row,
    and RankError when M is singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionError("square matrix required")
    if len(rhs) != n:
        raise DimensionError("right-hand side length mismatch")
    a = [[_as_poly(v) for v in row] + [_as_poly(b)] for row, b in zip(rows, rhs)]
    # Bareiss: a[k][k] becomes the k-th leading minor of the row-permuted M
    sign, d = 1, IntPoly.one()
    for k in range(n):
        if a[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if pivot is None:
                raise RankError("singular matrix: Cramer's rule needs det != 0")
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        row_k, pk = a[k], a[k][k]
        for row_i in a[k + 1:]:
            aik = row_i[k]
            for j in range(k + 1, n + 1):
                row_i[j] = (pk * row_i[j] - aik * row_k[j]).divexact(d)
        d = pk
    ys = [IntPoly()] * n
    for i in reversed(range(n)):
        acc = d * a[i][n] - sum((a[i][j] * ys[j] for j in range(i + 1, n)), IntPoly())
        ys[i] = acc.divexact(a[i][i])
    return sign * d, tuple(sign * y for y in ys)


def tree_solve(diagram: Diagram) -> tuple[IntPoly, tuple[IntPoly, ...]]:
    """(det M, (det M_0, ..., det M_(n-1))) for M(t) x = e0 on an extended
    diagram whose finite part F is a tree, in IntPoly arithmetic: the Schur
    complement at vertex 0 over adj(M_F) columns, one per neighbour u of
    vertex 0, from a leaf-to-root pass of subtree determinants and a
    root-to-leaf pass of path products with F rooted at u.  The tree is
    walked by `dense_neighbors` on K's rows, a reader `kostant` does not use."""
    k, q, u0 = diagram.cartan, 1 + T**2, diagram.u0
    columns = []
    for root in u0:
        parent, children, order = {root: 0}, {root: []}, [root]
        for v in order:
            for c in dense_neighbors(k.rows, v):
                if c not in (0, parent[v]):
                    parent[c], children[c] = v, []
                    children[v].append(c)
                    order.append(c)
        d, e, rest = {}, {}, {}
        for v in reversed(order):
            cs = children[v]
            for i, c in enumerate(cs):
                rest[c] = math.prod(d[x] for x in cs[:i] + cs[i + 1:])
            e[v] = math.prod(d[c] for c in cs)
            d[v] = q * e[v] - T**2 * sum(k[v, c] * k[c, v] * e[c] * rest[c] for c in cs)
        path = {root: IntPoly.one()}
        for v in order[1:]:
            path[v] = -k[v, parent[v]] * T * path[parent[v]] * rest[v]
        columns.append((d[root], {v: path[v] * e[v] for v in order}))
    det_f = columns[0][0]
    numerators = (det_f,) + tuple(
        T * sum(-k[u, 0] * adj[v] for u, (_, adj) in zip(u0, columns))
        for v in range(1, diagram.size)
    )
    det_m = q * det_f - T**2 * sum(
        k[0, w] * k[u, 0] * adj[w] for u, (_, adj) in zip(u0, columns) for w in u0
    )
    return det_m, numerators


def perm_det(rows):
    """Leibniz permutation sum: the determinant straight from its definition."""
    n = len(rows)
    acc = IntPoly()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                clen += 1
            if clen % 2 == 0:
                sign = -sign
        term = IntPoly.one()
        for i in range(n):
            term = term * rows[i][perm[i]]
        acc = acc + (term if sign > 0 else -term)
    return acc


def sympy_det(rows) -> IntPoly:
    """Determinant computed by sympy over its own polynomial ring ZZ[t]."""
    ring = sympy.ZZ[SYM_T]
    elems = [[ring.ring.from_dict({(k,): c for k, c in enumerate(p.coeffs) if c}) for p in row]
             for row in rows]
    got = dict(DomainMatrix(elems, (len(rows), len(rows)), ring).det())
    top = max((k for (k,) in got), default=-1)
    return IntPoly(int(got.get((k,), 0)) for k in range(top + 1))


def list_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a @ b with row i the list sum(a[i, l] b[l]) over the nonzero a[i, l]."""
    if a.ncols != b.nrows:
        raise DimensionError("inner dimensions differ")
    zero = (0,) * b.ncols
    out = []
    for row in a.rows:
        acc = zero
        for x, brow in [(x, brow) for x, brow in zip(row, b.rows) if x]:
            if x == 1:
                acc = [u + v for u, v in zip(acc, brow)]
            elif x == -1:
                acc = [u - v for u, v in zip(acc, brow)]
            else:
                acc = [u + x * v for u, v in zip(acc, brow)]
        out.append(tuple(acc))
    return _trusted_matrix(tuple(out))


def list_charpoly(m: IntMatrix) -> IntPoly:
    """Characteristic polynomial det(x*I - m), monic, ascending coefficients.

    Faddeev-LeVerrier recursion; every division is an exact integer division,
    so the result is certified over Z.  charpoly of the empty matrix is 1.
    """
    if m.nrows != m.ncols:
        raise DimensionError("square matrix required")
    n = m.nrows
    if n == 0:
        return IntPoly.one()
    ident = identity(n)
    coeffs = [1]
    mk = ident
    for k in range(1, n + 1):
        am = list_matmul(m, mk)
        tr = sum(am.rows[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("trace not divisible in Faddeev-LeVerrier step")
        ck = -(tr // k)
        coeffs.append(ck)
        mk = _trusted_matrix(
            tuple(row[:i] + (row[i] + ck,) + row[i + 1:] for i, row in enumerate(am.rows))
        )
    if mk != zeros(n, n):
        raise ArithmeticError("Faddeev-LeVerrier closure failed")
    return IntPoly(reversed(coeffs))


def dense_neighbors(rows, i: int) -> tuple[int, ...]:
    """The j != i with rows[i][j] != 0, read entry by entry."""
    return tuple(j for j in range(len(rows)) if j != i and rows[i][j] != 0)


def dense_two_coloring(rows) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """(part0, part1) of the graph with an edge i - j wherever rows[i][j] != 0,
    i != j, or None if it has an odd cycle.  Breadth first from the least
    uncoloured vertex, which gets colour 0, scanning whole rows; then every
    entry is checked against the colours."""
    n = len(rows)
    color = [None] * n
    for start in range(n):
        if color[start] is not None:
            continue
        color[start], frontier = 0, [start]
        while frontier:
            nxt = []
            for i in frontier:
                for j in dense_neighbors(rows, i):
                    if color[j] is None:
                        color[j] = 1 - color[i]
                        nxt.append(j)
            frontier = nxt
    if any(color[i] == color[j] for i in range(n) for j in dense_neighbors(rows, i)):
        return None
    return tuple(i for i in range(n) if color[i] == 0), tuple(i for i in range(n) if color[i] == 1)


def gauss_jordan_nullspace(m: IntMatrix) -> tuple[int, ...]:
    """Primitive positive integer kernel vector of a corank-one matrix, by
    dense fraction-free Gauss-Jordan: the pivot pv of row r clears column c
    from every other row by row_i <- pv row_i - f row_r, then row_i is
    divided by its gcd.  Raises RankError with the package's texts."""
    n, cols = m.nrows, m.ncols
    a = [list(row) for row in m.rows]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, n) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        row_r = a[r]
        pv = row_r[c]
        for i in range(n):
            f = a[i][c]
            if i != r and f:
                row = [pv * v - f * w for v, w in zip(a[i], row_r)]
                g = math.gcd(*row)
                a[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == n:
            break
    free = [c for c in range(cols) if c not in pivots]
    if len(free) != 1:
        raise RankError(f"kernel dimension is {len(free)}, expected 1")
    fc = free[0]
    # with x_fc = D, the lcm of the pivots, row k reads a[k][pc] x_pc + a[k][fc] D = 0
    d = math.lcm(*(a[k][pc] for k, pc in enumerate(pivots)))
    ints = [0] * cols
    ints[fc] = d
    for k, pc in enumerate(pivots):
        ints[pc] = -a[k][fc] * d // a[k][pc]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    if all(v < 0 for v in ints):
        ints = [-v for v in ints]
    if any(v <= 0 for v in ints):
        raise RankError("kernel vector is not strictly positive")
    return tuple(ints)


def multiplicities(diagram: Diagram, nterms: int) -> tuple[tuple[int, ...], ...]:
    """v_n for n < nterms: entry [n][i] is the multiplicity of vertex i at degree n."""
    columns, w, negative, _ = packed_series(diagram, nterms)
    if negative is not None:
        raise negative
    return tuple(zip(*(_unpack(col, nterms, w) for col in columns)))


def matvec(m: IntMatrix, v) -> tuple:
    """m v as a dense sum over every entry of each row; v may hold ints,
    IntPolys or packed rows."""
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m.rows)


def list_three_term(a: IntMatrix, v) -> list[bool]:
    """Whether a v_n = v_(n-1) + v_(n+1), for each n = 1..len(v) - 2."""
    return [matvec(a, v[n]) == tuple(map(sum, zip(v[n - 1], v[n + 1])))
            for n in range(1, len(v) - 1)]


def relation_rows(b: IntMatrix, x, e0: IntPoly = IntPoly()) -> list[bool]:
    """Whether t (b x)_i + e0 [i = 0] = (1 + t^2) x_i, for each row i of
    the IntPolys x, in IntPoly products."""
    return [T * bx + (e0 if i == 0 else 0) == (1 + T**2) * xi
            for i, (bx, xi) in enumerate(zip(matvec(b, x), x))]


def lincomb(*terms: tuple[int, IntMatrix]) -> IntMatrix:
    """sum(c m) over the terms (c, m), entry by entry: the sums, differences
    and integer multiples of matrices, which IntMatrix does not define."""
    if len({(m.nrows, m.ncols) for _, m in terms}) != 1:
        raise DimensionError("shape mismatch")
    cs = [c for c, _ in terms]
    return IntMatrix([sum(map(operator.mul, cs, entries)) for entries in zip(*rows)]
                     for rows in zip(*(m.rows for _, m in terms)))


def product_route(check: str, target: Diagram | DiagramId) -> list[list[tuple]]:
    """The two sides of each line of a `mckay` check, in the check's order,
    as IntPoly products, and IntMatrix products with `lincomb` for 1 - X
    and 1 + C.  A line passes iff every one of its pairs is equal.  check
    is "closed-form" (target a DiagramId), "orbit-form",
    "mckay-observation" or "blocks" (an extended diagram; the last two
    lines of "z-recurrence", on the finite part the walk ran on).  Every
    side is read through `mckay`'s own names, so a test that patches one
    patches both routes."""
    if check == "closed-form":
        gf = mckay.generating_function(build(target, extended=True))
        num, den = mckay.closed_form_component0(target)
        return [[(gf.numerators[0] * den, num * gf.det_m)]]
    if check == "orbit-form":
        _, den = mckay.closed_form_component0(target.did)
        zt = mckay.z_polynomials(target)
        gf = mckay.generating_function(target)
        return [[(gf.numerators[i] * den, zt[i] * gf.det_m)] for i in range(target.size)]
    if check == "mckay-observation":
        a_semi = mckay.semi_affine(target)
        zt = mckay.z_polynomials(target)
        y = mckay.generating_function(target).numerators
        q = 1 + T**2
        neighbor_z = matvec(a_semi, zt)
        neighbor_y = matvec(a_semi, y)
        return [[(q * zt[i], T * neighbor_z[i]), (q * y[i], T * neighbor_y[i])]
                for i in range(1, target.size)] + [[(neighbor_z[0], IntPoly())]]
    if check == "blocks":
        finite = mckay.assembling_vectors(target).diagram
        a_fin = finite.bonds
        pair = mckay.bicolored_reflections(finite)
        c = mckay.coxeter_transform(finite)
        ident = identity(finite.size)
        minus_w1, minus_w2, plus_c = (lincomb((1, ident), (s, m))
                                      for s, m in ((-1, pair.w1), (-1, pair.w2), (1, c)))
        return [[(a_fin @ minus_w2 @ pair.w1, minus_w1 @ plus_c)],
                [(a_fin @ minus_w1 @ c, minus_w2 @ pair.w1 @ plus_c)]]
    raise ValueError(f"no product route for {check!r}")


def dense_order(m: IntMatrix, limit: int) -> int | None:
    """The least k <= limit with m^k = I, or None, from the dense powers
    m^k = m m^(k-1) of `list_matmul`: m whole, with no factor stepped."""
    ident, cur = identity(m.nrows), m
    for k in range(1, limit + 1):
        if cur == ident:
            return k
        cur = list_matmul(m, cur)  # the sparse factor on the left
    return None


def list_coxeter_number(diagram: Diagram) -> int:
    """Order of the bicolored Coxeter transformation of a finite diagram."""
    if diagram.extended:
        raise DomainError("the affine Coxeter transformation has infinite order")
    pair = bicolored_reflections(diagram)
    bound = 10 * diagram.size * diagram.size
    h = dense_order(list_matmul(pair.w2, pair.w1), bound)
    if h is None:
        raise DomainError(f"order exceeds the bound {bound}; diagram is not finite type")
    return h


def block_render(diagram: Diagram, titled, cell: int = 3) -> str:
    """Orbit and z tables one block at a time: the title, then one
    `str.format` per display row with each vertex's field named by its
    index, cells of `cell` characters, blocks apart by a blank line."""
    grid = diagram.display
    formats = [" ".join(["{}"] * diagram.size)] if grid is None else [
        "".join(f"{{{row[c]}:>{cell}}}" if c in row else " " * cell for c in range(max(row) + 1))
        for row in map(dict, grid)
    ]
    blocks = []
    for title, vec in titled:
        if grid is not None and not -10 ** (cell - 1) < min(vec) <= max(vec) < 10**cell:
            raise DomainError("cell overflow")
        blocks.append("\n".join([title, *(f.format(*vec) for f in formats)]))
    return "\n\n".join(blocks) + "\n"


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(?:([A-Za-z])(?:\^(\d+))?)?$")


def parse_poly(text: str, var: str = "t") -> IntPoly:
    """Inverse of exact.format_poly (also accepts explicit '^1' and '1*' forms)."""
    s = text.strip()
    if s == "0":
        return IntPoly()
    s = s.replace("-", "+-").lstrip("+")
    coeffs: dict[int, int] = {}
    for chunk in s.split("+"):
        term = chunk.strip()
        if not term:
            raise ValueError(f"malformed polynomial text: {text!r}")
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:].strip()
        m = _TERM_RE.match(term.replace(" ", ""))
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"malformed term {chunk.strip()!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        if m.group(2) is None:
            k = 0
        else:
            if m.group(2) != var:
                raise ValueError(f"unexpected variable {m.group(2)!r}, expected {var!r}")
            k = int(m.group(3)) if m.group(3) else 1
        coeffs[k] = coeffs.get(k, 0) + sign * coeff
    top = max(coeffs)
    return IntPoly(coeffs.get(k, 0) for k in range(top + 1))


def det(rows) -> IntPoly:
    """det M from the Cramer solve with a zero right-hand side; 0 when the
    solve reports M singular."""
    try:
        return cramer_solve(rows, [0] * len(rows))[0]
    except RankError:
        return IntPoly()


Mat2 = tuple[tuple[complex, complex], tuple[complex, complex]]

_TOL = 1e-6
_STRICT = 1e-9


class FloatDriftError(RuntimeError):
    """A float oracle value is too far from the exact value it stands for."""


def _quaternion(a: float, b: float, c: float, d: float) -> Mat2:
    """a + bi + cj + dk as a matrix in the standard SU(2) embedding."""
    return ((complex(a, b), complex(c, d)), (complex(-c, d), complex(a, -b)))


def _mul(x: Mat2, y: Mat2) -> Mat2:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _renorm(m: Mat2) -> Mat2:
    # project back onto the unit quaternions: m = p*1 + q*j up to conjugates
    p = (m[0][0] + m[1][1].conjugate()) / 2
    q = (m[0][1] - m[1][0].conjugate()) / 2
    norm = math.sqrt(abs(p) ** 2 + abs(q) ** 2)
    p, q = p / norm, q / norm
    return ((p, q), (-q.conjugate(), p.conjugate()))


def _near(x: Mat2, y: Mat2) -> bool:
    return all(abs(x[i][j] - y[i][j]) < _TOL for i in range(2) for j in range(2))


def _generators(bid: BpgId) -> tuple[Mat2, ...]:
    if bid.family == "cyclic":
        z = cmath.exp(2j * math.pi / bid.n)
        return (((z, 0), (0, z.conjugate())),)
    if bid.family == "binary_dihedral":
        z = cmath.exp(1j * math.pi / bid.n)
        s = ((0, -1), (1, 0))
        return (((z, 0), (0, z.conjugate())), s)
    quat_i = _quaternion(0, 1, 0, 0)
    w = _quaternion(0.5, 0.5, 0.5, 0.5)
    if bid.family == "binary_tetrahedral":
        return (quat_i, w)
    if bid.family == "binary_octahedral":
        r = 1 / math.sqrt(2)
        return (quat_i, w, _quaternion(r, r, 0, 0))
    phi = (1 + math.sqrt(5)) / 2
    return (w, _quaternion(phi / 2, 1 / (2 * phi), 0.5, 0))


@lru_cache(maxsize=None)
def float_enumerate_group(bid: BpgId) -> tuple[Mat2, ...]:
    """The elements of the group: closure of the generator set in complex
    floats, checked against the expected order and for drift."""
    expected = bid.order
    identity: Mat2 = ((1, 0), (0, 1))
    elems: list[Mat2] = [identity]
    frontier = [identity]
    gens = _generators(bid)
    while frontier:
        fresh: list[Mat2] = []
        for x in frontier:
            for g in gens:
                y = _renorm(_mul(x, g))
                if any(_near(y, e) for e in elems):
                    continue
                elems.append(y)
                fresh.append(y)
                if len(elems) > expected:
                    raise GeneratorSetError(
                        f"{bid.text}: closure exceeded expected order {expected}"
                    )
        frontier = fresh
    if len(elems) != expected:
        raise GeneratorSetError(
            f"{bid.text}: closure has {len(elems)} elements, expected {expected}"
        )
    for m in elems:
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if abs(det - 1) >= _STRICT:
            raise FloatDriftError(f"{bid.text}: determinant drifted to {det}")
        dot = m[0][0] * m[1][0].conjugate() + m[0][1] * m[1][1].conjugate()
        row0 = abs(m[0][0]) ** 2 + abs(m[0][1]) ** 2
        if abs(dot) >= _STRICT or abs(row0 - 1) >= _STRICT:
            raise FloatDriftError(f"{bid.text}: element is not unitary")
    return tuple(elems)


def float_contains_minus_identity(elements: tuple[Mat2, ...]) -> bool:
    return any(_near(m, ((-1, 0), (0, -1))) for m in elements)


def float_molien_sums(elements: tuple[Mat2, ...], nterms: int) -> tuple[list[int], float]:
    """Molien coefficients 0..nterms and the worst pre-rounding deviation,
    one recurrence s_n = tr(g) s_(n-1) - s_(n-2) per element g."""
    sums = [0j] * (nterms + 1)
    for m in elements:
        tr = m[0][0] + m[1][1]
        prev, cur = 0j, 1 + 0j
        for n in range(nterms + 1):
            sums[n] += cur
            prev, cur = cur, tr * cur - prev
    out: list[int] = []
    worst = 0.0
    for n, total in enumerate(sums):
        value = total / len(elements)
        nearest = round(value.real)
        dev = max(abs(value.real - nearest), abs(value.imag))
        worst = max(worst, dev)
        if dev >= _TOL:
            raise FloatDriftError(
                f"molien coefficient at degree {n} drifted: {value}"
            )
        if nearest < 0:
            raise IdentityViolationError(
                f"negative invariant dimension {nearest} at degree {n}"
            )
        out.append(nearest)
    return out, worst


def _totient(m: int) -> int:
    """Euler's phi(m)."""
    for r in _prime_factors(m):
        m = m // r * (r - 1)
    return m


def _ramanujan(m: int, n: int) -> int:
    """c_m(n), the sum of w^n over the primitive m-th roots of unity w:
    mu(m/d) phi(m) / phi(m/d) with d = gcd(n, m) (Ramanujan, 1918)."""
    q = m // math.gcd(n, m)
    primes = _prime_factors(q)
    if any(q % (r * r) == 0 for r in primes):
        return 0
    return (-1) ** len(primes) * (_totient(m) // _totient(q))


def _order_weights(group: BpgGroup) -> dict[int, int]:
    """{m: w_m} with sum_g tr(g^n) = sum_m w_m c_m(n) over the element orders m.

    A class (j, count) holds elements with eigenvalues zeta^j and zeta^-j of
    order m = L / gcd(j, L).  For m >= 3 those are a pair of the phi(m)
    primitive m-th roots, so the Ramanujan sum stands in for the classes of
    order m only if all phi(m) / 2 of them occur with one count k_m; then
    w_m = k_m.  For m <= 2 the root +-1 is its own inverse: w_m = 2 count.
    """
    counts: dict[int, list[int]] = {}
    for j, count in group.classes:
        counts.setdefault(group.level // math.gcd(j, group.level), []).append(count)
    weights = {}
    for m, found in counts.items():
        pairs = _totient(m) // 2
        if m > 2 and (len(found) != pairs or len(set(found)) != 1):
            raise GeneratorSetError(
                f"{group.bid.text}: the trace classes of order {m} are not Galois stable: "
                f"counts {found} over {pairs} classes"
            )
        weights[m] = found[0] if m > 2 else 2 * found[0]
    return weights


def _power_trace_sum(weights: dict[int, int], d: int) -> int:
    """P(n) = sum_g tr(g^n) for every n with gcd(n, L) = d; c_m(n) = c_m(d)
    as each order m divides L."""
    return sum(w * _ramanujan(m, d) for m, w in weights.items())


def loop_molien_sums(group: BpgGroup, nterms: int) -> tuple[tuple[int, ...], int]:
    """Molien coefficients 0..nterms and their deviation from integers, 0.

    The character of g on Sym^n, the binary forms of degree n, is
    s_n = lambda^n + lambda^(n-2) + ... + lambda^-n for the eigenvalues
    lambda^+-1 of g, so s_n = s_(n-2) + tr(g^n).  Summed over the group,
    T(n) = T(n-2) + P(n) with T(-1) = 0 and T(0) = |G|, and the degree-n
    coefficient is T(n) / |G|, which must be an integer in [0, n + 1]
    (the invariants lie inside Sym^n).  P(n) is computed once per distinct
    gcd(n, L).
    """
    weights = _order_weights(group)
    order = group.order
    power_sums: dict[int, int] = {}
    out: list[int] = []
    before, total = 0, order  # T(n-1), T(n)
    for n in range(nterms + 1):
        if n:
            d = math.gcd(n, group.level)
            if d not in power_sums:
                power_sums[d] = _power_trace_sum(weights, d)
            before, total = total, before + power_sums[d]
        value, rest = divmod(total, order)
        if rest:
            raise IdentityViolationError(
                f"molien coefficient at degree {n}: {total} is not a multiple of |G| = {order}"
            )
        if value < 0:
            raise IdentityViolationError(
                f"negative invariant dimension {value} at degree {n}"
            )
        if value > n + 1:
            raise IdentityViolationError(
                f"invariant dimension {value} above dim Sym^{n} = {n + 1} at degree {n}"
            )
        out.append(value)
    return tuple(out), 0


def gather_series(f: IntPoly, nterms: int, den: IntPoly) -> list[int]:
    """First nterms Taylor coefficients of f / den for den(0) = +-1, each
    term gathered from all earlier ones through the taps of den."""
    scale = den.coeff(0)
    taps = [(j, c) for j, c in enumerate(den.coeffs) if j and c]
    out = []
    for k in range(nterms):
        acc = f.coeff(k)
        for j, c in taps:
            if j > k:
                break
            acc -= c * out[k - j]
        out.append(acc * scale)
    return out


IntMat2 = tuple[tuple[int, int], tuple[int, int]]


def _mul_mod(x: IntMat2, y: IntMat2, p: int) -> IntMat2:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return (((a * e + b * g) % p, (a * f + b * h) % p), ((c * e + d * g) % p, (c * f + d * h) % p))


def bfs_enumerate_group(bid: BpgId) -> BpgGroup:
    """The breadth-first closure over F_p: every element times every
    generator, one product at a time, then the trace classes."""
    expected = bid.order
    # 120 holds the element orders 3, 5, 8 and 10 of the exceptional groups,
    # 2N the rotation orders of the parametric ones
    level = math.lcm(120, 2 * (bid.n or 1))
    p, zeta = _field(level)
    gens = molien._generators(bid, p, level, zeta)
    for g in gens:
        if (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % p != 1:
            raise GeneratorSetError(f"{bid.text}: generator {g} has determinant != 1 mod {p}")
    identity: IntMat2 = ((1, 0), (0, 1))
    seen = {identity}
    elems: list[IntMat2] = [identity]
    frontier = [identity]
    while frontier:
        fresh: list[IntMat2] = []
        for x in frontier:
            for g in gens:
                y = _mul_mod(x, g, p)
                if y in seen:
                    continue
                seen.add(y)
                elems.append(y)
                fresh.append(y)
                if len(elems) > expected:
                    raise GeneratorSetError(
                        f"{bid.text}: closure exceeded expected order {expected}"
                    )
        frontier = fresh
    if len(elems) != expected:
        raise GeneratorSetError(
            f"{bid.text}: closure has {len(elems)} elements, expected {expected}"
        )
    # zeta^j + zeta^-j differs for each j in 0..L/2; g^|G| = I (Lagrange), so
    # the eigenvalues zeta^+-j of g are |G|-th roots of unity and step divides j
    traces = Counter((m[0][0] + m[1][1]) % p for m in elems)
    classes: list[tuple[int, int]] = []
    step = level // math.gcd(level, expected)
    up, down, rise, fall = 1, 1, pow(zeta, step, p), pow(zeta, -step, p)  # zeta^+-j, zeta^+-step
    for j in range(0, level // 2 + 1, step):
        if count := traces.pop((up + down) % p, 0):
            classes.append((j, count))
        up, down = up * rise % p, down * fall % p
    if traces:
        raise GeneratorSetError(
            f"{bid.text}: trace {min(traces)} mod {p} is not zeta^j + zeta^-j for any j"
        )
    return BpgGroup(bid, tuple(elems), p, level, tuple(classes))


def full_scan_classes(group: BpgGroup) -> tuple[tuple[int, int], ...]:
    """The trace classes (j, count), scanning every j in 0..L/2 for the
    traces zeta^j + zeta^-j of the closure's elements."""
    p, level, bid = group.p, group.level, group.bid
    zeta = _field(level)[1]
    traces = Counter((m[0][0] + m[1][1]) % p for m in group.elements)
    classes: list[tuple[int, int]] = []
    up, down, inverse = 1, 1, pow(zeta, -1, p)  # zeta^j, zeta^-j, zeta^-1
    for j in range(level // 2 + 1):
        if count := traces.pop((up + down) % p, 0):
            classes.append((j, count))
        up, down = up * zeta % p, down * inverse % p
    if traces:
        raise GeneratorSetError(
            f"{bid.text}: trace {min(traces)} mod {p} is not zeta^j + zeta^-j for any j"
        )
    return tuple(classes)


def star_tree(p: int, q: int, r: int) -> Diagram:
    """T_{p,q,r}, p <= q <= r, as an extended diagram with no id: three arms
    of p, q and r vertices, the centre counted in each, p + q + r - 2 in all.
    Vertex 0, the affine vertex, is the end of the longest arm, which runs
    0..r-1 to the centre r - 1; the arms of q and then p vertices follow."""
    n, centre = p + q + r - 2, r - 1
    bonds, last = [(i, i + 1, 1, 1) for i in range(centre)], centre
    for arm in (q, p):
        for k in range(arm - 1):
            last += 1
            bonds.append((centre if k == 0 else last - 1, last, 1, 1))
    return _make(None, True, tuple(f"v{i}" for i in range(n)), _cartan(n, bonds))


# the hyperbolic T_{p,q,r} whose finite part is affine: E10 = T_{2,3,7} over
# extended E8, T_{3,3,4} over extended E6 and T_{2,4,5} over extended E7
HYPERBOLIC = ((2, 3, 7), (3, 3, 4), (2, 4, 5))


def _find_caches() -> dict[str, object]:
    """Every object with `cache_clear` that the package defines, module
    globals and class attributes alike, keyed by where it is defined
    (e.g. "dynkinlab.orbit.tau_orbit"), so a cache added later is found."""
    found = {}
    for info in pkgutil.iter_modules(dynkinlab.__path__):
        module = importlib.import_module(f"dynkinlab.{info.name}")
        members = list(vars(module).values())
        members += [getattr(v, "__func__", v) for cls in members
                    if inspect.isclass(cls) and cls.__module__ == module.__name__
                    for v in vars(cls).values()]
        for obj in members:
            owner = getattr(obj, "__module__", None) or ""
            if (not inspect.isclass(obj) and callable(getattr(obj, "cache_clear", None))
                    and owner.startswith("dynkinlab")):
                found[f"{owner}.{obj.__qualname__}"] = obj
    return dict(sorted(found.items()))


# found once, on import, before any test can monkeypatch a cached function
_CACHES = _find_caches()


def package_caches() -> dict[str, object]:
    """Every cache the package defines, by qualified name (`_find_caches`)."""
    return dict(_CACHES)


def clear_package_caches() -> None:
    """Empty every cache the package defines, as a fresh process starts with none."""
    for cache in _CACHES.values():
        cache.cache_clear()
