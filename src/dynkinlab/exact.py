"""Exact arithmetic kernel: integer polynomials, rational functions, matrices.

Everything downstream (Cartan matrices, Coxeter transformations, generating
functions) is computed over Z with no floating point.  Polynomials are
dense coefficient tuples in ascending order; the zero polynomial is the
empty tuple.  Identities between fractions are checked by cross-multiplying
in Z[t]; a rational function is reduced only to be printed, then with a
positive leading denominator coefficient, so the reduced form is canonical.

The packed-slot format is known here only: a row v packs into the int x =
sum v_j 2^(wj), w a multiple of 8 and |v_j| < 2^(w-1), and the bytes of x +
`_bias` are the slots v_j + 2^(w-1), which is how every reader reads them;
at w = 8, 16, 32 and 64 `_pack` writes a row's two's complement slots with
one struct call instead.  McKay's three-term relation is checked on packed
columns (`_three_term`).
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache
from itertools import compress, zip_longest
from typing import Iterable, Sequence

from .errors import DimensionError, DomainError, PoleAtOriginError, RankError


def _normalize(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    for c in out:
        if not isinstance(c, int):
            raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
    return tuple(out)


def _trusted(coeffs: Sequence[int]) -> "IntPoly":
    """IntPoly for the kernel's own int results: trims trailing zeros but
    skips the public constructor's per-coefficient type check."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    p = object.__new__(IntPoly)
    object.__setattr__(p, "coeffs", tuple(coeffs[:n]))
    return p


class IntPoly:
    """Polynomial with integer coefficients in one formal variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "IntPoly":
        if k < 0:
            raise ValueError("negative exponent")
        return cls((0,) * k + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @staticmethod
    def _coerce(other: object) -> "IntPoly | None":
        if isinstance(other, IntPoly):
            return other
        if isinstance(other, int):
            return _trusted((other,))
        return None

    def __add__(self, other: object) -> "IntPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _trusted([a + b for a, b in zip_longest(self.coeffs, o.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return _trusted([-c for c in self.coeffs])

    def __sub__(self, other: object) -> "IntPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _trusted([a - b for a, b in zip_longest(self.coeffs, o.coeffs, fillvalue=0)])

    def __rsub__(self, other: object) -> "IntPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "IntPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return _trusted(())
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    out[i + j] += a * b
        return _trusted(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError("negative power")
        out = IntPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self) -> int:
        # a constant equals its int (zero equals 0), so it must hash like it
        c = self.coeffs
        return hash(("IntPoly", c)) if len(c) > 1 else hash(c[0] if c else 0)

    def __call__(self, value):
        """Evaluate by Horner's rule at a value of any numeric type."""
        acc = value * 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def substitute(self, p: "IntPoly") -> "IntPoly":
        """Composition self(p(t)) with a monomial p = c t^m, m >= 1: the
        coefficient a_k becomes a_k c^k at t^(mk).  Any other p raises
        ValueError."""
        pc = p.coeffs
        m = len(pc) - 1
        if m < 1 or any(pc[:-1]):
            raise ValueError("substitute takes a monomial c*t^m with m >= 1")
        out = [0] * (m * len(self.coeffs) - m + 1)
        out[::m] = [a * pc[-1] ** k for k, a in enumerate(self.coeffs)]
        return _trusted(out)

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPoly":
        c = self.content()
        if c == 0:
            return _trusted(())
        if self.leading() < 0:
            c = -c
        return _trusted([a // c for a in self.coeffs])

    def divexact(self, d: "IntPoly") -> "IntPoly":
        """Quotient self / d, valid only when d divides self in Z[t]."""
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return _trusted(())
        rem = list(self.coeffs)
        dc = d.coeffs
        dn = len(dc)
        qn = len(rem) - dn + 1
        if qn <= 0:
            raise ArithmeticError("division is not exact")
        q = [0] * qn
        for k in range(qn - 1, -1, -1):
            c = rem[k + dn - 1]
            if c % dc[-1]:
                raise ArithmeticError("division is not exact")
            q[k] = c // dc[-1]
            if q[k]:
                for j, b in enumerate(dc):
                    rem[k + j] -= q[k] * b
        if any(rem):
            raise ArithmeticError("division is not exact")
        return _trusted(q)

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a modulo b."""
    lead = b.leading()
    r = a
    k = a.degree - b.degree + 1
    while not r.is_zero() and r.degree >= b.degree:
        shift = r.degree - b.degree
        r = r * lead - b * IntPoly.monomial(shift, r.leading())
        k -= 1
    if k > 0:
        r = r * (lead ** k)
    return r


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Greatest common divisor via the primitive remainder sequence.

    Result has positive leading coefficient; gcd(0, 0) = 0.
    """
    if p.is_zero() and q.is_zero():
        return IntPoly()
    if p.is_zero():
        return q.primitive() * abs(q.content())
    if q.is_zero():
        return p.primitive() * abs(p.content())
    c = math.gcd(p.content(), q.content())
    a, b = p.primitive(), q.primitive()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b)
        a, b = b, r.primitive()
    return a * c


class RatFunc:
    """Reduced rational function num/den over Z[t], built for output.

    Canonical form: gcd(num, den) = 1 and the leading coefficient of den is
    positive, so equality is plain structural equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        n = _as_poly(num)
        d = _as_poly(den)
        if d.is_zero():
            raise ZeroDivisionError("zero denominator")
        if n.is_zero():
            d = IntPoly.one()
        else:
            g = poly_gcd(n, d)
            n = n.divexact(g)
            d = d.divexact(g)
            if d.leading() < 0:
                n, d = -n, -d
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RatFunc is immutable")

    def is_polynomial(self) -> bool:
        return self.den == IntPoly.one()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    def __repr__(self) -> str:
        return f"RatFunc({self.num.coeffs!r}, {self.den.coeffs!r})"


def _as_poly(v) -> IntPoly:
    if isinstance(v, IntPoly):
        return v
    if isinstance(v, int):
        return IntPoly((v,))
    raise TypeError(f"cannot interpret {type(v).__name__} as a polynomial")


def _trusted_matrix(rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
    """IntMatrix for the kernel's own int rows, without the per-entry int()."""
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "rows", rows)
    return m


class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rs = tuple(tuple(int(v) for v in row) for row in rows)
        if rs and any(len(r) != len(rs[0]) for r in rs):
            raise DimensionError("ragged rows")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return _trusted_matrix(tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i][j]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Row i of self @ other adds a times the nonzeros of row l of other
        into a zero row, for each nonzero a = self[i, l]: one multiply-add
        per pair of nonzeros, no column products and no transposes."""
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionError("inner dimensions differ")
        m, inner, out = other.ncols, range(other.nrows), []
        right = [[(j, row[j]) for j in compress(range(m), row)] for row in other.rows]
        for row in self.rows:
            acc = [0] * m
            for l in compress(inner, row):
                a = row[l]
                for j, b in right[l]:
                    acc[j] += a * b
            out.append(tuple(acc))
        return _trusted_matrix(tuple(out))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(("IntMatrix", self.rows))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows!r})"


def _sparse_left(m: IntMatrix):
    """x -> m x, row i the sum of a * x[l] over the nonzero a = m[i, l] only,
    +-1 as a plain add or subtract.  x may hold ints, IntPolys or packed rows
    (`_pack` is additive); an all-zero row gives x's own zero.  The terms
    (l, a) are picked out once, by `compress`, so a caller that applies m
    in a loop builds the product once, before the loop."""
    terms = [[(l, row[l]) for l in compress(range(m.ncols), row)] for row in m.rows]

    def product(x: Sequence) -> list:
        zero = x[0] * 0 if x else 0
        out = []
        for row in terms:
            acc = zero
            for l, a in row:
                acc = acc + x[l] if a == 1 else acc - x[l] if a == -1 else acc + a * x[l]
            out.append(acc)
        return out

    return product


def _width(bound: int) -> int:
    """The least multiple of 8 bits w with |entries| <= bound < 2^(w-1)."""
    return (bound.bit_length() + 8) // 8 * 8


@lru_cache(maxsize=None)
def _bias(n: int, w: int) -> int:
    """2^(w-1) in each of n slots of w bits, w a multiple of 8; cached per
    process."""
    return int.from_bytes((1 << (w - 1)).to_bytes(w // 8, "little") * n, "little")


_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}  # struct's signed code per slot width


def _pack(rows: Iterable[Sequence[int]], w: int) -> list[int]:
    """Each row as the one integer sum(v << (w j)) over its entries v, in slots
    of w bits (Kronecker substitution), w a multiple of 8 and |v| < 2^(w-1)
    (else OverflowError): with a struct code for w, x - 2 (x & bias) for the
    row's two's complement bytes x, else the bytes of each v + 2^(w-1)."""
    if (code := _CODES.get(w)) is None:
        nb, half = w // 8, 1 << (w - 1)
        return [int.from_bytes(b"".join([(v + half).to_bytes(nb, "little") for v in row]), "little")
                - _bias(len(row), w) for row in rows]
    try:
        xs = [(len(row), int.from_bytes(struct.pack(f"<{len(row)}{code}", *row), "little")) for row in rows]
    except struct.error as exc:
        raise OverflowError(f"slot out of range at width {w}: {exc}") from None
    return [x - ((x & _bias(n, w)) << 1) for n, x in xs]


def _unpack(x: int, n: int, w: int) -> list[int]:
    """The n slots of a row packed by `_pack` at width w, in linear time."""
    nb, half = w // 8, 1 << (w - 1)
    digits = (x + _bias(n, w)).to_bytes(n * nb, "little")
    return [int.from_bytes(digits[k:k + nb], "little") - half for k in range(0, n * nb, nb)]


def _low_slots(x: int, n: int, w: int) -> tuple[int, list[int] | None]:
    """(x mod 2^(wn), its n slots of w bits read back signed, or None when no
    slot is negative), every slot below 2^(w-1) in absolute value: the
    lowest negative slot sets its top bit in x mod 2^(wn), and with no
    negative slot nothing borrows, so no top bit is set."""
    low, sign = (1 << (w * n)) - 1, _bias(n, w)
    x &= low
    return x, _unpack(((x + sign) & low) - sign, n, w) if x & sign else None


def _three_term(bv: Sequence[int], v: Sequence[int], w: int, n: int) -> list[bool]:
    """Whether (B v_k)_i = v_(k-1)[i] + v_(k+1)[i] for all i, for each k < n,
    v_(-1) = v_n = 0: v[i] packs column i of v_0..v_(n-1) in slots of w
    bits, bv = B v, every slot below 2^(w-1) in absolute value.  Slot k + 1
    of bv[i] << w against (v[i] << 2w) + v[i] (>> w would floor a negative
    slot 0), each with 2^(w-1) added per slot: equal slots, equal bytes."""
    bias, nb, diff = _bias(n + 2, w), w // 8, 0
    for lhs, col in zip(bv, v):
        diff |= ((lhs << w) + bias) ^ ((col << 2 * w) + col + bias)
    digits, zero = diff.to_bytes((n + 2) * nb, "little"), bytes(nb)
    return [digits[k:k + nb] == zero for k in range(nb, (n + 1) * nb, nb)]


def _decode(x: int, w: int) -> IntPoly:
    """p with p(2^w) = x, every |coefficient| < 2^(w-1): then x has
    bit_length() // w + 1 slots up to its top nonzero one."""
    return _trusted(_unpack(x, x.bit_length() // w + 1, w))


def _trace(n: int, w: int):
    """rows -> the sum of slot i of row i over n packed rows, exact while
    every slot is below 2^(w-1) in absolute value: adding 2^(w-1) to each
    slot then makes every base-2^w digit nonnegative."""
    half, mask, bias = 1 << (w - 1), (1 << w) - 1, _bias(n, w)
    return lambda rows: sum(((x + bias) >> s) & mask for x, s in zip(rows, range(0, w * n, w))) - n * half


def _fits(rows: Sequence[int], w: int, g: int) -> bool:
    """Whether every slot v of the packed rows has -b <= v < b, b = 2^(w-1-g),
    given |v| < 2^(w-1) and 2 <= g < w: one mask test of the top g bits of
    every slot of x + sum(b << (w j)), over the slots `_decode` would read.
    Exact: digits d_j that pass spell the same integer as the v_j + b only if
    all d_j = v_j + b, since |d_j - v_j - b| < 2^(w-g) + 2^(w-1) + b < 2^w."""
    half = _bias(max(x.bit_length() for x in rows) // w + 1, w)
    bias, mask = half >> g, (half << 1) - (half >> (g - 1))
    return not any((x + bias) & mask for x in rows)


# Both packed loops keep g bits of headroom, r^_STRIDE < 2^g: entries at most
# 2^(w-1-g) stay below 2^(w-1) for _STRIDE products by m.
_STRIDE = 4


def _order(m: IntMatrix, limit: int) -> int | None:
    """The least k <= limit with m^k = I, or None.

    m^k is kept as packed rows: each step is one sparse product, m^k = I
    compares n integers, and m^k is read back and re-packed wider only
    where `_fits` fails at the end of a stride.
    """
    n, step = m.nrows, _sparse_left(m)
    r = max(sum(map(abs, row)) for row in m.rows)
    g, power = max(2, (r**_STRIDE).bit_length()), m.rows
    for k in range(1, limit + 1):
        if power is not None:  # with room for r at least
            w = _width(max(r, *(max(map(abs, row)) for row in power)) << g)
            cur, ident, power = _pack(power, w), [1 << (w * i) for i in range(n)], None
        if cur == ident:
            return k
        cur = step(cur)
        if k % _STRIDE == 0 and not _fits(cur, w, g):
            power = [_unpack(x, n, w) for x in cur]
    return None


def charpoly(m: IntMatrix) -> IntPoly:
    """Characteristic polynomial det(x*I - m), monic, ascending coefficients.

    Faddeev-LeVerrier recursion on packed rows (`_pack`): the trace reads
    the diagonal slots only, + c_k I adds c_k << (w i) to row i, and the
    closure M_n = 0 tests n integers.  b <- r b + |c_k| bounds the entries
    of M_k; where r b could reach 2^(w-1), `_fits` proves b = 2^(w-1-g),
    or m M_(k-1) is read back and re-packed wider before c_k I is added.
    Every division is exact, so the result is certified over Z.  charpoly
    of the empty matrix is 1.
    """
    if m.nrows != m.ncols:
        raise DimensionError("square matrix required")
    n = m.nrows
    if n == 0:
        return IntPoly.one()
    r = max(sum(map(abs, row)) for row in m.rows) or 1
    g, step = max(2, (r**_STRIDE).bit_length()), _sparse_left(m)
    b, w = 1, _width(r << g)  # M_0 = I, with room for r
    trace, mk, coeffs = _trace(n, w), [1 << (w * i) for i in range(n)], [1]
    for k in range(1, n + 1):
        am = step(mk)
        tr = trace(am)
        if tr % k:
            raise ArithmeticError("trace not divisible in Faddeev-LeVerrier step")
        ck = -(tr // k)
        coeffs.append(ck)
        mk, b = ([x + (ck << (w * i)) for i, x in enumerate(am)] if ck else am), r * b + abs(ck)
        if r * b >> (w - 1):
            if not b >> (w - 1) and _fits(mk, w, g):
                b = 1 << (w - 1 - g)
            else:
                rows = [_unpack(x, n, w) for x in am]
                b = max(max(map(abs, row)) for row in rows) + abs(ck)
                w = _width(b << g)
                trace, mk = _trace(n, w), [x + (ck << (w * i)) for i, x in enumerate(_pack(rows, w))]
    if any(mk):
        raise ArithmeticError("Faddeev-LeVerrier closure failed")
    return _trusted(coeffs[::-1])


def series_expand(f: IntPoly, nterms: int, den: IntPoly) -> list:
    """First nterms Taylor coefficients at t = 0 of f / den, reduced or not,
    for den(0) = +-1: dividing by a unit is multiplying by it, so every term
    is an int.  Each term, once final, is added forward into the later terms
    through the nonzero taps of den, and only if it is itself nonzero."""
    if nterms < 0:
        raise ValueError("negative number of terms")
    scale = den.coeff(0)
    if scale == 0:
        raise PoleAtOriginError("denominator vanishes at the origin")
    if scale not in (1, -1):
        raise DomainError(f"denominator constant term {scale} is not a unit")
    taps = [(j, -c * scale) for j, c in enumerate(den.coeffs) if j and c]
    out = [c * scale for c in f.coeffs[:nterms]]
    out += [0] * (nterms - len(out) + len(den.coeffs))  # room for the last taps
    for k in range(nterms):
        if a := out[k]:
            for j, c in taps:
                out[k + j] += c * a
    del out[nterms:]
    return out


def _echelon(m: IntMatrix) -> list[tuple[int, dict[int, int]]]:
    """The pivot rows (c, {col: value}) of m's fraction-free forward
    elimination, in column order; each has no entry left of its pivot c."""
    rows = [{c: row[c] for c in compress(range(m.ncols), row)} for row in m.rows]
    pivots = []
    for c in range(m.ncols):
        k = next((i for i, row in enumerate(rows) if c in row), None)
        if k is None:
            continue
        row_c = rows.pop(k)
        pv = row_c[c]
        for i, row in enumerate(rows):
            f = row.get(c)
            if f:
                new = {j: pv * v for j, v in row.items()}
                for j, w in row_c.items():
                    new[j] = new.get(j, 0) - f * w
                g = math.gcd(*new.values()) or 1
                rows[i] = {j: v // g for j, v in new.items() if v}
        pivots.append((c, row_c))
    return pivots


def nullspace_primitive(m: IntMatrix) -> tuple[int, ...]:
    """Primitive positive integer kernel vector of a corank-one matrix.

    Fraction-free forward elimination on sparse rows {col: value}: the pivot
    pv of column c clears it below by row_i <- pv row_i - f row_c, and each
    changed row is divided by its gcd, so it stays primitive and no larger
    than its Bareiss row.  A Cartan matrix (a tree, or the affine A_n cycle)
    makes almost no fill (Parter 1961).  Back-substitution starts at x = 1
    in the free column and scales the partial x by |pv| / gcd(s, pv) where
    a pivot does not divide its row sum s.
    Raises RankError unless the kernel has dimension exactly 1 and the
    generator can be scaled to have all entries positive.
    """
    cols = m.ncols
    pivots = _echelon(m)
    free = set(range(cols)).difference(c for c, _ in pivots)
    if len(free) != 1:
        raise RankError(f"kernel dimension is {len(free)}, expected 1")
    ints = [0] * cols
    ints[free.pop()] = 1
    for c, row in reversed(pivots):
        s, pv = sum(v * ints[j] for j, v in row.items()), row[c]
        if s % pv:
            scale = abs(pv) // math.gcd(s, pv)
            ints, s = [v * scale for v in ints], s * scale
        ints[c] = -s // pv
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    if all(v < 0 for v in ints):
        ints = [-v for v in ints]
    if any(v <= 0 for v in ints):
        raise RankError("kernel vector is not strictly positive")
    return tuple(ints)


def format_poly(p: IntPoly, var: str = "t") -> str:
    """Render ascending: '1 + 2*t^3 - t^5'; unit coefficients are elided."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            pw = var if k == 1 else f"{var}^{k}"
            body = pw if mag == 1 else f"{mag}*{pw}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def format_ratfunc(f: RatFunc, var: str = "t") -> str:
    if f.is_polynomial():
        return format_poly(f.num, var)
    return f"({format_poly(f.num, var)}) / ({format_poly(f.den, var)})"
