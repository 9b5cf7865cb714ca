"""Orbit of beta under the alternating bicolored products.

The walk takes an extended diagram and derives the rest: its finite part F
(`finite_part`), beta = delta[1:] from the nil root delta, whose affine
coordinate delta_0 must be 1, and h, the Coxeter number of F.  On A/D/E
beta is the highest root; on a fold it is the tail of the nil root, which
need not be the highest root of K_F or of its transpose.  When h is even
the sequence tau^(n) beta walks from beta to -beta in h - 1 steps.  tau
applies the two bicolored involutions of F in turn, w1 first and then w2;
since C = w2 w1, this gives tau^(2k) = C^k and tau^(2k+1) = w1 C^k.  The
assembling vectors z_n = tau^(n-1) beta - tau^(n) beta, bordered by
z_0 = z_h = alpha_0 on the extended diagram, assemble the Kostant
generating function components: summing z_n t^n per vertex gives
numerators over (1 - t^a)(1 - t^b).
"""

from __future__ import annotations

from functools import lru_cache
from operator import sub
from typing import NamedTuple

from .coxeter import bicolored_reflections, coxeter_number
from .diagram import Diagram, finite_part, nil_root
from .errors import CatalogCorruptionError, DomainError, ExcludedDiagramError, IdentityViolationError
from .exact import IntPoly, _sparse_left, _trusted, format_poly

_CELL = 3  # characters per grid cell


# no caller repeats a diagram; the cache stays because bench/spans.py counts
# the walk's steps on cache misses only
@lru_cache(maxsize=None)
def tau_orbit(diagram: Diagram) -> tuple[tuple[int, ...], ...]:
    """tau^(n) beta for n = 0..h-1 on the finite part of an extended
    diagram: step n applies w1 when n is odd and w2 when it is even, so
    every even step lands on C^(n/2) beta.  The sparse products of w1 and
    w2 are built once, before the h - 1 steps."""
    finite = finite_part(diagram)
    h = coxeter_number(finite)
    if h % 2:
        raise ExcludedDiagramError(
            f"Coxeter number {h} is odd, the bicolored orbit does not close"
        )
    delta = nil_root(diagram)
    if delta[0] != 1:
        raise CatalogCorruptionError("nil root affine coordinate is not 1")
    beta = delta[1:]
    pair = bicolored_reflections(finite)
    w1, w2 = _sparse_left(pair.w1), _sparse_left(pair.w2)
    if tuple(w2(beta)) != beta:
        raise CatalogCorruptionError("w2 does not fix beta")
    out = [beta]
    for n in range(1, h):
        out.append(tuple((w1 if n % 2 else w2)(out[-1])))
    neg = tuple(-v for v in beta)
    if out[-1] != neg:
        raise IdentityViolationError("tau^(h-1) beta is not -beta")
    return tuple(out)


class OrbitTable(NamedTuple):
    diagram: Diagram                       # the finite part walked on
    h: int
    tau_beta: tuple[tuple[int, ...], ...]  # finite coordinates, n = 0..h-1
    z: tuple[tuple[int, ...], ...]         # extended coordinates, n = 0..h


@lru_cache(maxsize=None)
def assembling_vectors(diagram: Diagram) -> OrbitTable:
    taus = tau_orbit(diagram)
    h = len(taus)
    g = h // 2
    affine_unit = (1,) + (0,) * (diagram.size - 1)
    z = [affine_unit]
    for n in range(1, h):
        step = tuple(map(sub, taus[n - 1], taus[n]))
        if min(step) < 0:
            raise IdentityViolationError(f"assembling vector z_{n} has a negative entry")
        z.append((0,) + step)
    z.append(affine_unit)
    if max(z[g]) != 2 or sum(z[g]) != 2:  # z_g >= 0, checked above
        raise IdentityViolationError("z_g is not twice a unit vector")
    for k in range(g + 1):
        if z[g + k] != z[g - k]:
            raise IdentityViolationError(f"z_{g + k} breaks the palindrome symmetry")
    return OrbitTable(finite_part(diagram), h, taus, tuple(z))


def z_polynomials(diagram: Diagram) -> tuple[IntPoly, ...]:
    """z(t)_i = sum_n z_n[i] t^n on the coordinates of the extended diagram;
    z(t)_0 = 1 + t^h."""
    return tuple(map(_trusted, zip(*assembling_vectors(diagram).z)))


def _render_blocks(diagram: Diagram, titled) -> str:
    """One block per (title, vector) pair: the title, then the vector on the
    grid through one format string per display row, in which vertex v in
    cell c is field v right-aligned and the line ends at its last cell.  A
    cell holds -10^(_CELL-1) < v < 10^_CELL.  Without a grid, one line."""
    grid = diagram.display
    formats = [" ".join(["{}"] * diagram.size)] if grid is None else [
        "".join(f"{{{row[c]}:>{_CELL}}}" if c in row else " " * _CELL for c in range(max(row) + 1))
        for row in map(dict, grid)
    ]
    blocks = []
    for title, vec in titled:
        if grid is not None and not -10 ** (_CELL - 1) < min(vec) <= max(vec) < 10**_CELL:
            raise DomainError("cell overflow")
        blocks.append("\n".join([title, *(f.format(*vec) for f in formats)]))
    return "\n\n".join(blocks) + "\n"


def render_orbit_table(table: OrbitTable) -> str:
    return _render_blocks(
        table.diagram, ((f"tau^({n})beta", vec) for n, vec in enumerate(table.tau_beta))
    )


def render_z_table(table: OrbitTable) -> str:
    return _render_blocks(table.diagram, ((f"z_{n}", table.z[n][1:]) for n in range(1, table.h)))


def render_z_polynomials(diagram: Diagram) -> str:
    zt = z_polynomials(diagram)
    lines = [f"z(t)_{diagram.labels[i]} = {format_poly(zt[i])}" for i in range(1, diagram.size)]
    return "\n".join(lines) + "\n"
