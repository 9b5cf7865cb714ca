"""Command-line front end.

Exit codes: 0 success (and every requested verification passed), 1 usage
or domain error, 2 mathematical identity failure, including an exact
division that does not divide.  Output is deterministic
for a fixed command line; char-polynomial output uses L for the eigenvalue
variable, series output uses t.

Each verb computes its result once and returns its text with a JSON
document built lazily, only under --format json; `main` alone prints,
inside the one `try` that maps errors to exit codes.  `verify` looks its
checks up in one table, `_checks`.  Inputs beyond the MAX_* bounds are
usage errors; a group that a check pairs with a diagram must also keep
that diagram within MAX_RANK.

Each verb has its own parser: when the first argument is a verb, `main`
builds that verb's parser alone and parses the arguments after it.  Any
other command line (help, no verb, an unknown verb) goes to the whole tree,
one subparser per verb, so the top-level help and the choice errors list
every verb.  `json` is imported only to print JSON.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Callable, NamedTuple

from .coxeter import char_polys, coxeter_number, coxeter_transform, ebeling_quotient
from .diagram import SIMPLY_LACED, BpgId, Diagram, DiagramId, build, catalog_extended, catalog_groups, finite_part
from .errors import DynkinlabError
from .exact import RatFunc, format_poly, format_ratfunc
from .kostant import component_series, generating_function
from .mckay import (
    Report,
    crosscheck,
    folded_component_report,
    mckay_matrix_numeric,
    verify_closed_form,
    verify_ebeling,
    verify_kostant_form,
    verify_kostant_relation,
    verify_observation,
    verify_z_recurrence,
)
from .molien import enumerate_group, molien_coeffs
from .orbit import assembling_vectors, render_orbit_table, render_z_polynomials, render_z_table, z_polynomials

# input bounds: the largest rank, group order and number of series terms
MAX_RANK = 128
MAX_GROUP_ORDER = 1024
MAX_TERMS = 100_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _integer(text: str) -> int:
    """An optional minus sign and ASCII digits; int() alone would also read
    other scripts' digits, '+', '_' and surrounding spaces."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _terms(text: str) -> int:
    n = _integer(text)
    if not 1 <= n <= MAX_TERMS:
        raise argparse.ArgumentTypeError(f"must lie in 1..{MAX_TERMS}")
    return n


def _bounded(did: DiagramId, source: str = "") -> DiagramId:
    if did.rank is not None and did.rank > MAX_RANK:
        raise _UsageError(f"{source}rank {did.rank} is above the limit {MAX_RANK}")
    return did


def _diagram_id(text: str) -> DiagramId:
    return _bounded(DiagramId.parse(text))


def _group_id(text: str) -> BpgId:
    bid = BpgId.parse(text)
    if bid.order > MAX_GROUP_ORDER:
        raise _UsageError(f"group order {bid.order} is above the limit {MAX_GROUP_ORDER}")
    return bid


def _paired_group_id(text: str) -> BpgId:
    """A group target of a check that also runs on its paired diagram."""
    bid = _group_id(text)
    did = bid.paired_diagram()
    _bounded(did, f"{bid.text} pairs with {did.text}, ")
    return bid


# each verb's line in `dynkinlab --help`
_HELP = {
    "cartan": "print the Cartan matrix",
    "coxeter": "print the Coxeter transformation",
    "charpoly": "characteristic polynomials of the Coxeter and affine Coxeter transformations",
    "quotient": "quotient of the two characteristic polynomials",
    "poincare": "Poincare series of the invariant algebra (component 0)",
    "orbit": "orbit of beta, the nil root's finite part, under the bicolored involutions",
    "zpoly": "assembling vectors and their generating polynomials",
    "molien": "Molien series of a binary polyhedral group",
    "verify": "run named identity checks",
}


def _add_arguments(q: _Parser, verb: str) -> None:
    """The arguments of one verb."""
    if verb == "molien":
        q.add_argument("group", help="cyclic:N, binary_dihedral:N, binary_tetrahedral, binary_octahedral, binary_icosahedral")
        q.add_argument("--terms", type=_terms, default=40)
    elif verb == "verify":
        q.add_argument("check", choices=("all", *_checks()))
        q.add_argument("target", nargs="?", default=None,
                       help="diagram or group to check (default: whole catalog)")
        q.add_argument("--terms", type=_terms, default=40)
    else:
        q.add_argument("diagram", help="diagram name, e.g. E6, A3, DD4")
        if verb in ("cartan", "coxeter"):
            q.add_argument("--extended", action="store_true", help="use the extended diagram")
        if verb in ("charpoly", "quotient"):
            q.add_argument("--k", type=_integer, default=None,
                           help="conjugacy class index for family A (1 <= k <= rank)")
        if verb == "poincare":
            q.add_argument("--terms", type=_terms, default=40,
                           help="number of series coefficients (default 40)")
    q.add_argument("--format", choices=("text", "json"), default="text")


def _build_parser(verb: str | None = None) -> _Parser:
    """The parser of `verb` alone, which parses the arguments after the verb,
    when it is a key of `_HANDLERS`; otherwise the whole tree, one
    subparser per verb."""
    if verb in _HANDLERS:
        p = _Parser(prog=f"dynkinlab {verb}")
        _add_arguments(p, verb)
        p.set_defaults(verb=verb)
        return p
    p = _Parser(prog="dynkinlab", description="Coxeter transformations, Poincare series and McKay data for Dynkin diagrams")
    sub = p.add_subparsers(dest="verb", required=True, parser_class=_Parser)
    for name in _HANDLERS:
        _add_arguments(sub.add_parser(name, help=_HELP[name]), name)
    return p


class _Result(NamedTuple):
    """One verb's answer: its text, a callable that builds its JSON
    document (called under --format json only) and its exit code."""

    text: str
    document: Callable[[], dict]
    code: int = 0


def _matrix_result(d: Diagram, m, header: list[str], **extra) -> _Result:
    """The header, then one row of `m` per vertex of `d` after its label."""
    cells = [[str(v) for v in row] for row in m.rows]
    width = max(len(s) for row in cells for s in row)
    label_width = max(len(s) for s in d.labels)
    rows = [f"{label.ljust(label_width)} | " + " ".join(s.rjust(width) for s in row)
            for label, row in zip(d.labels, cells)]
    return _Result("\n".join(header + rows), lambda: {
        "diagram": d.did.text,
        "extended": d.extended,
        "labels": list(d.labels),
        "matrix": [list(row) for row in m.rows],
        **extra,
    })


def _cmd_cartan(args) -> _Result:
    d = build(_diagram_id(args.diagram), extended=args.extended)
    kind = "extended" if d.extended else "finite"
    return _matrix_result(d, d.cartan, [f"cartan matrix of {d.did.text} ({kind})"])


def _cmd_coxeter(args) -> _Result:
    d = build(_diagram_id(args.diagram), extended=args.extended)
    c = coxeter_transform(d)
    h = None if d.extended else coxeter_number(d)
    kind = "affine Coxeter transformation" if d.extended else "Coxeter transformation"
    header = [f"{kind} of {d.did.text} (bicolored product)"]
    if h is not None:
        header.append(f"coxeter number: {h}")
    return _matrix_result(d, c, header, coxeter_number=h)


def _parse_k_target(args) -> DiagramId:
    did = _diagram_id(args.diagram)
    if args.k is not None and did.family != "A":
        raise _UsageError(f"--k applies to family A only, not {did.family}")
    return did


def _cmd_charpoly(args) -> _Result:
    did = _parse_k_target(args)
    chi, chi_affine = (format_poly(p, "L") for p in char_polys(did, args.k))
    return _Result("\n".join([
        f"characteristic polynomials for {did.text}" + (f" (k = {args.k})" if args.k is not None else ""),
        f"chi        = {chi}",
        f"chi_affine = {chi_affine}",
    ]), lambda: {"diagram": did.text, "k": args.k, "chi": chi, "chi_affine": chi_affine})


def _cmd_quotient(args) -> _Result:
    did = _parse_k_target(args)
    q = ebeling_quotient(did, args.k)
    return _Result(f"chi / chi_affine for {did.text} = {format_ratfunc(q, 'L')}", lambda: {
        "diagram": did.text,
        "k": args.k,
        "num": format_poly(q.num, "L"),
        "den": format_poly(q.den, "L"),
    })


def _cmd_poincare(args) -> _Result:
    did = _diagram_id(args.diagram)
    ext = build(did, extended=True)
    gf = generating_function(ext)
    component0 = RatFunc(gf.numerators[0], gf.det_m)
    coeffs = component_series(ext, 0, args.terms)
    return _Result("\n".join([
        f"component 0 for {did.text}: {format_ratfunc(component0)}",
        f"coefficients (t^0..t^{args.terms - 1}): " + ", ".join([str(c) for c in coeffs]),
    ]), lambda: {
        "diagram": did.text,
        "terms": args.terms,
        "rational": {"num": format_poly(component0.num),
                     "den": format_poly(component0.den)},
        "component0": coeffs,
    })


def _cmd_orbit(args) -> _Result:
    ext = build(_diagram_id(args.diagram), extended=True)
    table = assembling_vectors(ext)
    return _Result(render_orbit_table(table), lambda: {
        "diagram": ext.did.text,
        "coxeter_number": table.h,
        "labels": list(table.diagram.labels),
        "orbit": [list(v) for v in table.tau_beta],
    })


def _cmd_zpoly(args) -> _Result:
    ext = build(_diagram_id(args.diagram), extended=True)
    table = assembling_vectors(ext)

    def document():
        polys = z_polynomials(ext)
        return {
            "diagram": ext.did.text,
            "labels": list(ext.labels),
            "z_vectors": [list(v) for v in table.z],
            "z_polynomials": {ext.labels[i]: format_poly(polys[i]) for i in range(ext.size)},
        }

    return _Result(render_z_table(table).rstrip("\n") + "\n\n" + render_z_polynomials(ext), document)


def _cmd_molien(args) -> _Result:
    bid = _group_id(args.group)
    group = enumerate_group(bid)
    coeffs = molien_coeffs(group, args.terms - 1)
    return _Result("\n".join([
        f"group {bid.text}, order {group.order}",
        f"molien coefficients (t^0..t^{args.terms - 1}): " + ", ".join([str(c) for c in coeffs]),
    ]), lambda: {"group": bid.text, "order": group.order, "terms": args.terms, "coefficients": coeffs})


def _even_h_ade() -> list[Diagram]:
    # the orbit checks take every even-h diagram, but `verify all` runs them
    # on A/D/E only until bench/refs.json, which pins its text, is
    # regenerated (ROADMAP item 8)
    ade = [e for e in catalog_extended() if e.did.family in SIMPLY_LACED]
    return [e for e in ade if coxeter_number(finite_part(e)) % 2 == 0]


def _checks() -> dict:
    """The verify table, in the order `verify all` runs it: check name ->
    (target parser, default targets, check function of (target, terms),
    least --terms).  Built per call, so each function is looked up in the
    module when the check runs, not captured at import."""

    def extended(text):
        return build(_diagram_id(text), extended=True)

    def catalog_ids(simply_laced):
        return [e.did for e in catalog_extended() if (e.did.family in SIMPLY_LACED) == simply_laced]

    return {
        "ebeling": (extended, catalog_extended, lambda d, terms: verify_ebeling(d), 1),
        # compares consecutive series terms, so it needs at least two
        "kostant-relation": (extended, catalog_extended, verify_kostant_relation, 2),
        # A/D/E by default until ROADMAP item 8, as for _even_h_ade
        "closed-form": (_diagram_id, lambda: catalog_ids(True),
                        lambda did, terms: verify_closed_form(did), 1),
        "orbit-form": (extended, _even_h_ade, lambda d, terms: verify_kostant_form(d), 1),
        "z-recurrence": (extended, _even_h_ade, lambda d, terms: verify_z_recurrence(d), 1),
        "mckay-observation": (extended, _even_h_ade, lambda d, terms: verify_observation(d), 1),
        "molien": (_paired_group_id, catalog_groups, crosscheck, 1),
        "mckay-shift": (_paired_group_id, catalog_groups, mckay_matrix_numeric, 1),
        "molien-folded": (_diagram_id, lambda: catalog_ids(False), folded_component_report, 1),
    }


def _cmd_verify(args) -> _Result:
    table = _checks()
    rows = list(table.values()) if args.check == "all" else [table[args.check]]
    least = max(row[3] for row in rows)
    if args.terms < least:
        raise _UsageError(f"check {args.check!r} needs --terms >= {least}")
    if args.check == "all" and args.target is not None:
        raise _UsageError("check 'all' takes no target")
    reports: list[Report] = []
    for parse, default, fn, _ in rows:
        targets = [parse(args.target)] if args.target is not None else default()
        reports += [fn(x, args.terms) for x in targets]
    ok = all(r.passed for r in reports)
    return _Result("\n\n".join(r.render() for r in reports), lambda: {
        "check": args.check,
        "passed": ok,
        "reports": [
            {
                "name": r.name,
                "passed": r.passed,
                "checks": [{"label": label, "ok": good} for label, good in r.checks],
            }
            for r in reports
        ],
    }, 0 if ok else 2)


_HANDLERS = {
    "cartan": _cmd_cartan,
    "coxeter": _cmd_coxeter,
    "charpoly": _cmd_charpoly,
    "quotient": _cmd_quotient,
    "poincare": _cmd_poincare,
    "orbit": _cmd_orbit,
    "zpoly": _cmd_zpoly,
    "molien": _cmd_molien,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    known = bool(argv) and argv[0] in _HANDLERS
    parser = _build_parser(argv[0] if known else None)
    try:
        args = parser.parse_args(argv[1:] if known else argv)
        result = _HANDLERS[args.verb](args)
        if args.format == "json":
            import json  # only --format json needs it; every other run starts without it

            out = json.dumps(result.document(), indent=2)
        else:
            out = result.text
        sys.stdout.write(out if out.endswith("\n") else out + "\n")
        return result.code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DynkinlabError, ArithmeticError) as exc:
        # the taxonomy's RuntimeErrors are broken identities, its ValueErrors bad input
        if isinstance(exc, (RuntimeError, ArithmeticError)):
            print(f"identity violation: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
