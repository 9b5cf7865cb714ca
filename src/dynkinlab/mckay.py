"""McKay recurrences for the assembling vectors.

The semi-affine operator acts on extended coordinates: its finite block is
the adjacency matrix, its affine row is zero, and its affine column keeps
the bond multiplicities of the affine vertex.  With that orientation the
operator sends z_0 = alpha_0 to z_1 and annihilates the affine coordinate
of every image, which is exactly what the three-term recurrence
(t + 1/t) z(t)_i = sum of the neighboring z(t)_j needs at the attachment
vertex, where the neighbor sum picks up z(t)_0 = 1 + t^h.
"""

from __future__ import annotations

from .coxeter import bicolored_reflections, coxeter_transform
from .diagram import SIMPLY_LACED, Diagram, build
from .errors import UnsupportedFamilyError
from .exact import IntMatrix, IntPoly
from .kostant import _three_term, generating_function, mckay_operator
from .orbit import assembling_vectors, z_polynomials
from .report import Report

T = IntPoly.x()


def adjacency(diagram: Diagram) -> IntMatrix:
    """2I - K with unit bonds; defined on finite simply-laced diagrams."""
    if diagram.extended or diagram.did is None or diagram.did.family not in SIMPLY_LACED:
        raise UnsupportedFamilyError("adjacency with unit bonds is finite simply-laced only")
    return diagram.bonds


def semi_affine(diagram: Diagram) -> IntMatrix:
    """The McKay operator of the extension with the affine row zeroed out.

    Acts on extended coordinates: finite block = adjacency, affine column =
    bonds of the affine vertex, affine row = 0.
    """
    if diagram.extended or diagram.did is None:
        raise UnsupportedFamilyError("semi-affine operator extends a finite diagram")
    b = mckay_operator(build(diagram.did, extended=True))
    rows = ((0,) * b.ncols,) + b.rows[1:]
    return IntMatrix(rows)


def verify_z_recurrence(diagram: Diagram) -> Report:
    """Three-term recurrences of the assembling vectors, plus the two
    matrix identities that splice the orbit walk into the adjacency action."""
    table = assembling_vectors(diagram)
    h = table.h
    a_fin = adjacency(diagram)
    a_semi = semi_affine(diagram)
    z = table.z

    zero = (0,) * diagram.size  # the finite parts of z_0 and z_h
    holds = _three_term(a_fin, [zero, *(zn[1:] for zn in z[1:h]), zero])
    first, interior, last = holds[0], all(holds[1:-1]), holds[-1]
    bottom = a_semi.mulvec(z[0]) == z[1]
    top = a_semi.mulvec(z[h]) == z[h - 1]

    pair = bicolored_reflections(diagram)
    c = coxeter_transform(diagram)
    ident = IntMatrix.identity(diagram.size)
    block1 = a_fin @ (ident - pair.w2) @ pair.w1 == (ident - pair.w1) @ (ident + c)
    block2 = a_fin @ (ident - pair.w1) @ c == (ident - pair.w2) @ pair.w1 @ (ident + c)

    return Report(
        f"assembling recurrences for {diagram.did.text}",
        (
            (f"A z_n = z_(n-1) + z_(n+1) for 1 < n < {h - 1}", interior),
            ("A z_1 = z_2", first),
            (f"A z_{h - 1} = z_{h - 2}", last),
            ("A^semi z_0 = z_1", bottom),
            (f"A^semi z_{h} = z_{h - 1}", top),
            ("A (1 - w2) w1 = (1 - w1)(1 + C)", block1),
            ("A (1 - w1) C = (1 - w2) w1 (1 + C)", block2),
        ),
    )


def verify_observation(diagram: Diagram) -> Report:
    """(t + 1/t) z(t)_i = neighbor sum of z(t), for every finite vertex.

    Checked twice: once on the orbit polynomials z(t), once on the Cramer
    numerators, i.e. the generating-function components with their common
    denominator det M(t) cleared; the affine row must annihilate z(t).
    """
    a_semi = semi_affine(diagram)
    zt = z_polynomials(diagram)
    ext = build(diagram.did, extended=True)
    y = generating_function(ext).numerators
    q = 1 + T**2
    neighbor_z = a_semi.mulvec(zt)
    neighbor_y = a_semi.mulvec(y)
    checks = [
        (f"(t + 1/t) z(t)_{ext.labels[i]} = neighbor sum, both routes",
         q * zt[i] == T * neighbor_z[i] and q * y[i] == T * neighbor_y[i])
        for i in range(1, ext.size)
    ]
    checks.append(("affine row annihilates z(t)", neighbor_z[0].is_zero()))
    return Report(f"mckay observation for {diagram.did.text}", tuple(checks))
