"""Binary polyhedral groups and the Molien series oracle.

The group names (BpgId), the group catalog, their McKay diagrams and the
folded families' Molien pairs are catalog data in diagram.py; this module
closes the groups and sums their series, and `mckay` sets the sums against
the Cramer series of the paired diagram.  A group is closed exactly over
F_p: its elements are 2x2 matrices with entries mod p, generated from the
quaternion formulas with every constant taken from one root of unity zeta
in F_p.  p is the least prime congruent to 1 mod L, with L = lcm(120, 2N)
and N the group's parameter (1 for the exceptional groups), so F_p holds
zeta of exact order L and with it i, 1/2, sqrt 2 and the golden ratio.
Reduction mod such a prime is injective on a finite matrix group
(Minkowski's lemma), and the closure's size is checked against |G|.  The
closure is Dimino's coset closure, in batches of products by one right
factor: the cyclic group of the first generator by doubling, then one
right coset per batch.  It forms each element but the identity once, the
tail of its last doubling aside, plus one squaring per doubling and one
product per coset representative and generator.

Each element's trace is zeta^j + zeta^-j for one j in 0..L/2, and as
g^|G| = I (Lagrange), j is a multiple of L / gcd(L, |G|): only those j are
scanned, and the group is summarised by trace classes (j, count).  The
Molien sums are integers: the classes are grouped by element order
m = L / gcd(j, L), each order contributes a Ramanujan sum c_m(n) to the
power-trace sum P(n) = sum_g tr(g^n), and the summed characters of Sym^n
follow from T(n) = T(n-2) + P(n), each divided exactly by |G|.  L is
factored once per sum, and P(n) = T(n) - T(n-2) depends only on
gcd(n, L): so |G| divides every T(n) exactly when it divides P(d) for each
gcd d that occurs, which is checked once per d before the recurrence runs
on the quotients.  gcd(n, L) comes from a sieve over the divisors of L,
not from one gcd call per n.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import lru_cache
from itertools import accumulate, cycle, islice, repeat
from typing import NamedTuple

from .diagram import BpgId
from .errors import DomainError, GeneratorSetError, IdentityViolationError

Mat2 = tuple[tuple[int, int], tuple[int, int]]


class BpgGroup(NamedTuple):
    """The elements mod p of a closed group, with the field they live in
    (the prime p and the level L of its root of unity zeta) and the trace
    classes: (j, count) for each trace zeta^j + zeta^-j that occurs."""

    bid: BpgId
    elements: tuple[Mat2, ...]
    p: int
    level: int
    classes: tuple[tuple[int, int], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __hash__(self) -> int:
        """Hash all but the elements, which cost O(|G|) to hash; equality
        still compares every element."""
        return hash((self.bid, self.p, self.level, self.classes))

    def contains_minus_identity(self) -> bool:
        return ((self.p - 1, 0), (0, self.p - 1)) in self.elements


def _prime_factors(n: int) -> set[int]:
    """The primes dividing n, by trial division."""
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | {n} - {1}


@lru_cache(maxsize=None)
def _field(level: int) -> tuple[int, int]:
    """(p, zeta): the least prime p = 1 mod level, by trial division, and an
    element zeta of exact order level in F_p; cached per process."""
    p = level + 1
    while _prime_factors(p) != {p}:
        p += level
    factors = _prime_factors(level)
    candidates = (pow(a, (p - 1) // level, p) for a in range(2, p))
    return p, next(z for z in candidates if all(pow(z, level // q, p) != 1 for q in factors))


def _times(xs: list[Mat2], y: Mat2, p: int) -> list[Mat2]:
    """[x y for x in xs], mod p: one batch of products by one right factor."""
    (e, f), (g, h) = y
    return [(((a * e + b * g) % p, (a * f + b * h) % p), ((c * e + d * g) % p, (c * f + d * h) % p))
            for (a, b), (c, d) in xs]


def _generators(bid: BpgId, p: int, level: int, zeta: int) -> tuple[Mat2, ...]:
    """The generators mod p, each constant a polynomial in zeta."""

    def root(k: int) -> int:  # exp(2 pi i / k)
        return pow(zeta, level // k, p)

    def quaternion(a: int, b: int, c: int, d: int) -> Mat2:
        """a + bi + cj + dk in the standard SU(2) embedding."""
        i = root(4)
        return (((a + b * i) % p, (c + d * i) % p), ((-c + d * i) % p, (a - b * i) % p))

    if bid.n is not None:
        z = root(bid.n if bid.family == "cyclic" else 2 * bid.n)
        rotation = ((z, 0), (0, pow(z, -1, p)))
        return (rotation,) if bid.family == "cyclic" else (rotation, ((0, p - 1), (1, 0)))
    half = pow(2, -1, p)
    quat_i = quaternion(0, 1, 0, 0)
    w = quaternion(half, half, half, half)
    if bid.family == "binary_tetrahedral":
        return (quat_i, w)
    if bid.family == "binary_octahedral":
        r = pow(root(8) + pow(root(8), -1, p), -1, p)  # 1 / sqrt 2
        return (quat_i, w, quaternion(r, r, 0, 0))
    phi = 1 + root(5) + pow(root(5), -1, p)
    return (w, quaternion(phi * half, pow(2 * phi, -1, p), half, 0))


@lru_cache(maxsize=None)
def enumerate_group(bid: BpgId) -> BpgGroup:
    """Closure of the generator set over F_p, checked against the expected
    order; cached per process.  Like every cached function in the package it
    hands out nothing mutable: BpgGroup is frozen and holds only tuples.

    Dimino's coset closure (Butler, *Fundamental Algorithms for Permutation
    Groups*, 1991), in batches of products by one right factor.  The cyclic
    group of the first generator g doubles: g^0..g^(m-1) times g^m, cut at
    the first identity.  Each later generator s not yet in the group H
    closed so far adds the right coset H s, then H r for every product r of
    a coset representative (the first element of its coset) by a generator
    so far that is not yet in the group: the group so far is a union of
    right cosets of H, so only r needs a membership test.

    So each element but the identity is formed once, by a doubling or a
    coset batch, and the batches form 2^k - ord g products more, 2^k the
    least power of 2 at or above ord g: the last doubling runs to its end
    past the identity.  Beyond those come one squaring after each doubling
    batch that does not hold the identity and, for each coset of H but H
    itself, one product per generator so far.  Every generator must have
    determinant 1, hence so has every element."""
    expected = bid.order
    # 120 holds the element orders 3, 5, 8 and 10 of the exceptional groups,
    # 2N the rotation orders of the parametric ones
    level = math.lcm(120, 2 * (bid.n or 1))
    p, zeta = _field(level)
    gens = _generators(bid, p, level, zeta)
    for g in gens:
        if (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % p != 1:
            raise GeneratorSetError(f"{bid.text}: generator {g} has determinant != 1 mod {p}")
    identity: Mat2 = ((1, 0), (0, 1))
    elems, seen = [identity], {identity}

    def add(batch: list[Mat2]) -> None:
        elems.extend(batch)
        seen.update(batch)
        if len(elems) > expected:
            raise GeneratorSetError(f"{bid.text}: closure exceeded expected order {expected}")

    power = gens[0]  # g^m, m = len(elems)
    while power != identity:
        batch = _times(elems, power, p)
        if identity in batch:
            add(batch[:batch.index(identity)])
            break
        add(batch)
        (power,) = _times([power], power, p)
    for i, s in enumerate(gens[1:], 2):  # gens[:i]: the generators so far
        if s in seen:
            continue
        subgroup, start = elems[:], len(elems)
        add(_times(subgroup, s, p))
        while start < len(elems):
            rep = elems[start]
            for g in gens[:i]:
                (r,) = _times([rep], g, p)
                if r not in seen:
                    add(_times(subgroup, r, p))
            start += len(subgroup)
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


def _divisor_tables(level: int) -> tuple[dict[int, int], dict[int, int]]:
    """Euler's phi(q) and Moebius mu(q) for each divisor q of level, from one factorisation."""
    phi, mu = {1: 1}, {1: 1}
    for r in _prime_factors(level):
        for q in list(phi):
            power, phi_power, sign = r, r - 1, -1  # r^k, phi(r^k), mu(r^k)
            while level % (q * power) == 0:
                phi[q * power], mu[q * power] = phi[q] * phi_power, mu[q] * sign
                power, phi_power, sign = power * r, phi_power * r, 0
    return phi, mu


def _order_weights(group: BpgGroup, phi: dict[int, int]) -> dict[int, int]:
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
        pairs = phi[m] // 2
        if m > 2 and (len(found) != pairs or len(set(found)) != 1):
            raise GeneratorSetError(
                f"{group.bid.text}: the trace classes of order {m} are not Galois stable: "
                f"counts {found} over {pairs} classes"
            )
        weights[m] = found[0] if m > 2 else 2 * found[0]
    return weights


def _power_trace_sum(weights: dict[int, int], d: int, phi: dict[int, int], mu: dict[int, int]) -> int:
    """P(n) = sum_g tr(g^n) for every n with gcd(n, L) = d: c_m(n) = c_m(d)
    as each order m divides L, and the Ramanujan sum c_m(d) is
    mu(q) phi(m) / phi(q) with q = m / gcd(d, m) (Ramanujan, 1918)."""
    total = 0
    for m, w in weights.items():
        q = m // math.gcd(d, m)
        total += w * mu[q] * (phi[m] // phi[q])
    return total


@lru_cache(maxsize=None)
def _molien_sums(group: BpgGroup, nterms: int) -> tuple[tuple[int, ...], int]:
    """Molien coefficients 0..nterms and their deviation from integers, 0;
    cached per process, keyed on the group itself, so two closures under
    one name never share an entry.

    The character of g on Sym^n, the binary forms of degree n, is
    s_n = lambda^n + lambda^(n-2) + ... + lambda^-n for the eigenvalues
    lambda^+-1 of g, so s_n = s_(n-2) + tr(g^n).  Summed over the group,
    T(n) = T(n-2) + P(n) with T(-1) = 0 and T(0) = |G|, and the degree-n
    coefficient a_n = T(n) / |G| must be an integer in [0, n + 1] (the
    invariants lie inside Sym^n).  As P(n) = T(n) - T(n-2), |G| divides
    every T(n) with n <= nterms exactly when it divides every such P(n),
    with the same first failing degree; P(n) depends only on
    d = gcd(n, L), so it is computed and checked once per d.  The gcds of
    n <= min(nterms, L) come from a sieve: each divisor d of L, in
    ascending order, is written at every multiple of d, so the last one
    written at n is the largest divisor of L that divides n, which is
    gcd(n, L); the divisors written are exactly the gcds that occur.  Then
    a_n = a_(n-2) + P(n) / |G| from a_0 = 1 and a_(-1) = 0, the steps
    repeating with period L.  This one pass runs up to the first degree n1
    whose P(n1) is not a multiple of |G|, if there is one (it lies in the
    first period), so every a_n it builds is exact.  The first witness is
    the first of them outside [0, n + 1], or else
    T(n1) = |G| a_(n1-2) + P(n1).
    """
    level, order = group.level, group.order
    phi, mu = _divisor_tables(level)
    weights = _order_weights(group, phi)
    top = min(nterms, level)
    divisors = [d for d in sorted(phi) if d <= top]
    gcds = [0] * top  # gcds[n - 1] = gcd(n, L)
    for d in divisors:  # ascending, so the last d written at n is gcd(n, L)
        gcds[d - 1::d] = repeat(d, top // d)
    power_sums = {d: _power_trace_sum(weights, d, phi, mu) for d in divisors}
    size = nterms + 1  # a_0..a_(size-1) are exact: |G| divides P(n) for 1 <= n < size
    if any(s % order for s in power_sums.values()):
        size = next(n for n, d in enumerate(gcds, 1) if power_sums[d] % order)
    quotients = {d: s // order for d, s in power_sums.items()}
    period = list(map(quotients.__getitem__, gcds))  # a_n - a_(n-2), n = 1..
    steps = list(islice(cycle(period), size - 1))
    out = [0] * size
    out[0::2] = accumulate(steps[1::2], initial=1)
    out[1::2] = accumulate(steps[0::2])
    if min(out) < 0 or any(map(operator.gt, out, range(1, size + 1))):
        n, value = next((n, v) for n, v in enumerate(out) if v < 0 or v > n + 1)
        if value < 0:
            raise IdentityViolationError(f"negative invariant dimension {value} at degree {n}")
        raise IdentityViolationError(
            f"invariant dimension {value} above dim Sym^{n} = {n + 1} at degree {n}"
        )
    if size <= nterms:
        total = (order * out[size - 2] if size > 1 else 0) + power_sums[gcds[size - 1]]
        raise IdentityViolationError(
            f"molien coefficient at degree {size}: {total} is not a multiple of |G| = {order}"
        )
    return tuple(out), 0


def molien_coeffs(group: BpgGroup, nterms: int) -> list[int]:
    """dim of the degree-0..nterms invariants of the binary-form action."""
    if nterms < 0:
        raise DomainError("nterms must be >= 0")
    return list(_molien_sums(group, nterms)[0])
