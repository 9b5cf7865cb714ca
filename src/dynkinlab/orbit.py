"""Orbit of the highest root under the alternating bicolored products.

For a finite simply-laced diagram with even Coxeter number h the sequence
tau^(n) beta walks from beta to -beta in h - 1 steps.  tau applies the two
bicolored involutions in turn, w1 first and then w2; since C = w2 w1, this
gives tau^(2k) = C^k and tau^(2k+1) = w1 C^k.  The assembling vectors
z_n = tau^(n-1) beta - tau^(n) beta, bordered by z_0 = z_h = alpha_0 on the
extended diagram, assemble the Kostant generating function components:
summing z_n t^n per vertex gives numerators over (1 - t^a)(1 - t^b).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .coxeter import bicolored_reflections, coxeter_number
from .diagram import SIMPLY_LACED, Diagram, build, highest_root
from .errors import (
    CatalogCorruptionError,
    DomainError,
    ExcludedDiagramError,
    IdentityViolationError,
    UnsupportedFamilyError,
)
from .exact import IntPoly, _sparse_left, format_poly
from .kostant import generating_function, kostant_numbers
from .report import Report


def _require_ade_even(diagram: Diagram) -> int:
    if diagram.extended:
        raise DomainError("the orbit walk starts from a finite diagram")
    if diagram.did is None or diagram.did.family not in SIMPLY_LACED:
        raise UnsupportedFamilyError("orbit construction is simply-laced only")
    h = coxeter_number(diagram)
    if h % 2:
        raise ExcludedDiagramError(
            f"Coxeter number {h} is odd, the bicolored orbit does not close"
        )
    return h


# no caller repeats a diagram; the cache stays because bench/spans.py counts
# the walk's steps on cache misses only
@lru_cache(maxsize=None)
def tau_orbit(diagram: Diagram) -> tuple[tuple[int, ...], ...]:
    """tau^(n) beta for n = 0..h-1: step n applies w1 when n is odd and w2
    when it is even, so every even step lands on C^(n/2) beta.  The sparse
    products of w1 and w2 are built once, before the h - 1 steps."""
    h = _require_ade_even(diagram)
    pair = bicolored_reflections(diagram)
    w1, w2 = _sparse_left(pair.w1), _sparse_left(pair.w2)
    beta = highest_root(diagram)
    if tuple(w2(beta)) != beta:
        raise CatalogCorruptionError("w2 does not fix the highest root")
    out = [beta]
    for n in range(1, h):
        out.append(tuple((w1 if n % 2 else w2)(out[-1])))
    neg = tuple(-v for v in beta)
    if out[-1] != neg:
        raise IdentityViolationError("tau^(h-1) beta is not -beta")
    return tuple(out)


def _star_vertex(diagram: Diagram) -> int:
    degree3 = [i for i in range(diagram.size) if len(diagram.neighbors(i)) == 3]
    if degree3:
        return degree3[0]
    return (diagram.size - 1) // 2  # middle of the odd-rank chain


class OrbitTable(NamedTuple):
    diagram: Diagram
    h: int
    tau_beta: tuple[tuple[int, ...], ...]  # finite coordinates, n = 0..h-1
    z: tuple[tuple[int, ...], ...]         # extended coordinates, n = 0..h


@lru_cache(maxsize=None)
def assembling_vectors(diagram: Diagram) -> OrbitTable:
    taus = tau_orbit(diagram)
    h = len(taus)
    g = h // 2
    affine_unit = (1,) + (0,) * diagram.size
    z = [affine_unit]
    for n in range(1, h):
        step = tuple(x - y for x, y in zip(taus[n - 1], taus[n]))
        if any(v < 0 for v in step):
            raise IdentityViolationError(f"assembling vector z_{n} has a negative entry")
        z.append((0,) + step)
    z.append(affine_unit)
    star = _star_vertex(diagram)
    expected = tuple(2 if i == star + 1 else 0 for i in range(diagram.size + 1))
    if z[g] != expected:
        raise IdentityViolationError("z_g is not twice the branch vertex")
    for k in range(g + 1):
        if z[g + k] != z[g - k]:
            raise IdentityViolationError(f"z_{g + k} breaks the palindrome symmetry")
    return OrbitTable(diagram, h, taus, tuple(z))


def z_polynomials(diagram: Diagram) -> tuple[IntPoly, ...]:
    """z(t)_i = sum_n z_n[i] t^n on extended coordinates; z(t)_0 = 1 + t^h."""
    table = assembling_vectors(diagram)
    return tuple(
        IntPoly(table.z[n][i] for n in range(table.h + 1))
        for i in range(diagram.size + 1)
    )


def verify_kostant_form(diagram: Diagram) -> Report:
    """Orbit route against the Cramer route, component by component, as
    det M_i (1 - t^a)(1 - t^b) = z(t)_i det M."""
    a, b, _, _ = kostant_numbers(diagram.did)
    zt = z_polynomials(diagram)
    den = (1 - IntPoly.monomial(a)) * (1 - IntPoly.monomial(b))
    ext = build(diagram.did, extended=True)
    gf = generating_function(ext)
    checks = tuple(
        (
            f"[P]_{ext.labels[i]} = z(t)_{ext.labels[i]} / ((1 - t^{a})(1 - t^{b}))",
            gf.numerators[i] * den == zt[i] * gf.det_m,
        )
        for i in range(ext.size)
    )
    return Report(f"kostant form via orbit for {diagram.did.text}", checks)


def _grid_lines(diagram: Diagram, vec: tuple[int, ...], width: int = 3) -> list[str]:
    if diagram.display is None:
        return [" ".join(str(v) for v in vec)]
    lines = []
    for row in diagram.display:
        cells: dict[int, str] = {}
        for col, vtx in row:
            text = str(vec[vtx])
            if len(text) > width:
                raise ValueError("cell overflow")
            cells[col] = text
        last = max(cells)
        line = "".join(cells.get(c, "").rjust(width) for c in range(last + 1))
        lines.append(line.rstrip())
    return lines


def _render_blocks(diagram: Diagram, titled) -> str:
    """One block per (title, vector) pair: the title, then the vector on the grid."""
    blocks = ("\n".join([title, *_grid_lines(diagram, vec)]) for title, vec in titled)
    return "\n\n".join(blocks) + "\n"


def render_orbit_table(table: OrbitTable) -> str:
    return _render_blocks(
        table.diagram, ((f"tau^({n})beta", vec) for n, vec in enumerate(table.tau_beta))
    )


def render_z_table(table: OrbitTable) -> str:
    return _render_blocks(table.diagram, ((f"z_{n}", table.z[n][1:]) for n in range(1, table.h)))


def render_z_polynomials(diagram: Diagram) -> str:
    zt = z_polynomials(diagram)
    lines = [
        f"z(t)_{diagram.labels[i]} = {format_poly(zt[i + 1])}"
        for i in range(diagram.size)
    ]
    return "\n".join(lines) + "\n"
