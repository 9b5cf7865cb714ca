"""Workload definitions: a seed picks the CLI invocations of one pass.

- catalog: one `verify all` over the built-in catalog, the everyday CI gate.
  Thousands of tiny polynomials, dominated by kernel overhead (most gcds
  are trivial); the only workload that reaches the cofactor determinant.
- rank-ladder: few large matrices.  Cramer rungs (`verify ebeling` and
  `verify orbit-form` on D_n) run Bareiss; Coxeter rungs (`charpoly`,
  `zpoly` on D_n and odd-rank A_n) run matrix products and
  Faddeev-LeVerrier.  The arms are kept apart so that a change to either
  path has rungs that bypass it.
- high-degree: long 1-D recurrences: 3000-term series expansion and Molien
  sums, and the O(|G|^2) float group closure.  The only workload where
  `molien.py` does most of the work, and the one that never touches
  `coxeter.py`.

Every workload is a closed loop in one process and one thread: the next
invocation starts when the previous one has returned.  The seed moves the
ranks, group orders and term counts within small bands around nominal
sizes.  Where two invocations of a workload grow alike with their size,
they take offsets of opposite sign, so a seed changes the inputs but hardly
the total work; otherwise the seed spread of `wall_s` would swamp its bound.
"""

from __future__ import annotations

import random

NAMES = ("catalog", "rank-ladder", "high-degree")

# nominal sizes and the offsets a seed may add to them
_CATALOG_TERMS = 40
_TERM_OFFSETS = (-2, -1, 0, 1, 2)
_CRAMER_RANKS = (8, 12, 16)
_D_COXETER_RANKS = (12, 24, 36)
_A_COXETER_RANKS = (15, 31)  # odd rank, so the Coxeter number is even
_RANK_OFFSETS = (-1, 0, 1)
_A_RANK_OFFSETS = (-2, 0, 2)
_LONG_TERMS = 3000
_LONG_TERM_OFFSETS = (-20, -10, 0, 10, 20)
_DIHEDRAL_N = 200
_DIHEDRAL_OFFSETS = (-2, -1, 0, 1, 2)
_OCTAHEDRAL_TERMS = 1000
_OCTAHEDRAL_OFFSETS = (-20, -10, 0, 10, 20)


def _catalog(terms: int) -> list[list[str]]:
    return [["verify", "all", "--terms", str(terms)]]


def _cramer_rung(n: int, d: int) -> list[list[str]]:
    return [["verify", "ebeling", f"D{n + d}"], ["verify", "orbit-form", f"D{n - d}"]]


def _coxeter_d_rung(n: int, d: int) -> list[list[str]]:
    return [["charpoly", f"D{n + d}"], ["zpoly", f"D{n - d}"]]


def _coxeter_a_rung(n: int, d: int) -> list[list[str]]:
    r = n + d
    return [["charpoly", f"A{r}", "--k", str((r + 1) // 2)], ["zpoly", f"A{n - d}"]]


def _high_degree(terms: int, dihedral: int, octahedral_terms: int) -> list[list[str]]:
    return [
        ["poincare", "E8", "--terms", str(terms)],
        ["molien", "binary_icosahedral", "--terms", str(terms)],
        ["molien", f"binary_dihedral:{dihedral}", "--terms", str(terms)],
        ["verify", "molien", "binary_octahedral", "--terms", str(octahedral_terms)],
    ]


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass of `workload` for `seed`, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        return _catalog(_CATALOG_TERMS + rng.choice(_TERM_OFFSETS))
    if workload == "rank-ladder":
        out: list[list[str]] = []
        for n in _CRAMER_RANKS:
            out += _cramer_rung(n, rng.choice(_RANK_OFFSETS))
        for n in _D_COXETER_RANKS:
            out += _coxeter_d_rung(n, rng.choice(_RANK_OFFSETS))
        for n in _A_COXETER_RANKS:
            out += _coxeter_a_rung(n, rng.choice(_A_RANK_OFFSETS))
        return out
    if workload == "high-degree":
        return _high_degree(
            _LONG_TERMS + rng.choice(_LONG_TERM_OFFSETS),
            _DIHEDRAL_N + rng.choice(_DIHEDRAL_OFFSETS),
            _OCTAHEDRAL_TERMS + rng.choice(_OCTAHEDRAL_OFFSETS),
        )
    raise ValueError(f"unknown workload {workload!r}")


def every_invocation() -> list[list[str]]:
    """Every argv any seed can produce, for building the references."""
    out: list[list[str]] = []
    for d in _TERM_OFFSETS:
        out += _catalog(_CATALOG_TERMS + d)
    for n in _CRAMER_RANKS:
        for d in _RANK_OFFSETS:
            out += _cramer_rung(n, d)
    for n in _D_COXETER_RANKS:
        for d in _RANK_OFFSETS:
            out += _coxeter_d_rung(n, d)
    for n in _A_COXETER_RANKS:
        for d in _A_RANK_OFFSETS:
            out += _coxeter_a_rung(n, d)
    for dt in _LONG_TERM_OFFSETS:
        for dn in _DIHEDRAL_OFFSETS:
            for do in _OCTAHEDRAL_OFFSETS:
                out += _high_degree(_LONG_TERMS + dt, _DIHEDRAL_N + dn, _OCTAHEDRAL_TERMS + do)
    unique: dict[str, list[str]] = {}
    for argv in out:
        unique.setdefault(key(argv), argv)
    return list(unique.values())


def key(argv: list[str]) -> str:
    return " ".join(argv)
