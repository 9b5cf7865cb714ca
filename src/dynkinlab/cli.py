"""Command-line front end.

Exit codes: 0 success (and every requested verification passed), 1 usage
or domain error, 2 mathematical identity failure, including an exact
division that does not divide.  Output is deterministic
for a fixed command line; char-polynomial output uses L for the eigenvalue
variable, series output uses t.
"""

from __future__ import annotations

import argparse
import json
import sys

from .coxeter import char_polys, coxeter_number, coxeter_transform, ebeling_quotient
from .diagram import Diagram, DiagramId, build, catalog_extended, finite_part
from .errors import (
    CatalogCorruptionError,
    DynkinlabError,
    GeneratorSetError,
    IdentityViolationError,
    NumericalDriftError,
)
from .exact import format_poly, format_ratfunc
from .kostant import (
    generating_function,
    multiplicities,
    verify_closed_form,
    verify_ebeling,
    verify_kostant_relation,
)
from .mckay import verify_observation, verify_z_recurrence
from .molien import (
    BpgId,
    crosscheck,
    enumerate_group,
    folded_component_report,
    mckay_matrix_numeric,
    molien_coeffs,
)
from .orbit import (
    assembling_vectors,
    render_orbit_table,
    render_z_polynomials,
    render_z_table,
    verify_kostant_form,
    z_polynomials,
)
from .report import Report

_ADE = ("A", "D", "E6", "E7", "E8")
_CHECKS = (
    "all",
    "ebeling",
    "kostant-relation",
    "closed-form",
    "orbit-form",
    "z-recurrence",
    "mckay-observation",
    "molien",
    "mckay-shift",
    "molien-folded",
)


# checks that compare consecutive series terms need at least this many
_MIN_TERMS = {"all": 2, "kostant-relation": 2}
# input bounds: the largest rank and number of series terms accepted
MAX_RANK = 128
MAX_TERMS = 100_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _terms(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 1 <= n <= MAX_TERMS:
        raise argparse.ArgumentTypeError(f"must lie in 1..{MAX_TERMS}")
    return n


def _diagram_id(text: str) -> DiagramId:
    did = DiagramId.parse(text)
    if did.rank is not None and did.rank > MAX_RANK:
        raise _UsageError(f"rank {did.rank} is above the limit {MAX_RANK}")
    return did


def _build_parser() -> _Parser:
    p = _Parser(prog="dynkinlab", description="Coxeter transformations, Poincare series and McKay data for Dynkin diagrams")
    sub = p.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    def diagram_verb(name: str, help_text: str, *, extended=False, k=False, terms=False):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("diagram", help="diagram name, e.g. E6, A3, DD4")
        if extended:
            q.add_argument("--extended", action="store_true", help="use the extended diagram")
        if k:
            q.add_argument("--k", type=int, default=None,
                           help="conjugacy class index for family A (1 <= k <= rank)")
        if terms:
            q.add_argument("--terms", type=_terms, default=40,
                           help="number of series coefficients (default 40)")
        q.add_argument("--format", choices=("text", "json"), default="text")
        return q

    diagram_verb("cartan", "print the Cartan matrix", extended=True)
    diagram_verb("coxeter", "print the Coxeter transformation", extended=True)
    diagram_verb("charpoly", "characteristic polynomials of the Coxeter and affine Coxeter transformations", k=True)
    diagram_verb("quotient", "quotient of the two characteristic polynomials", k=True)
    diagram_verb("poincare", "Poincare series of the invariant algebra (component 0)", terms=True)
    diagram_verb("orbit", "orbit of the highest root under the Coxeter transformation")
    diagram_verb("zpoly", "assembling vectors and their generating polynomials")

    m = sub.add_parser("molien", help="Molien series of a binary polyhedral group")
    m.add_argument("group", help="cyclic:N, binary_dihedral:N, binary_tetrahedral, binary_octahedral, binary_icosahedral")
    m.add_argument("--terms", type=_terms, default=40)
    m.add_argument("--format", choices=("text", "json"), default="text")

    v = sub.add_parser("verify", help="run named identity checks")
    v.add_argument("check", choices=_CHECKS)
    v.add_argument("target", nargs="?", default=None,
                   help="diagram or group to check (default: whole catalog)")
    v.add_argument("--terms", type=_terms, default=40)
    v.add_argument("--format", choices=("text", "json"), default="text")
    return p


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _matrix_lines(labels, m) -> list[str]:
    cells = [[str(v) for v in row] for row in m.rows]
    width = max(len(s) for row in cells for s in row)
    label_width = max(len(s) for s in labels)
    return [
        f"{labels[i].ljust(label_width)} | " + " ".join(s.rjust(width) for s in cells[i])
        for i in range(len(cells))
    ]


def _cmd_cartan(args) -> int:
    d = build(_diagram_id(args.diagram), extended=args.extended)
    if args.format == "json":
        _emit_json({
            "diagram": d.did.text,
            "extended": d.extended,
            "labels": list(d.labels),
            "matrix": [list(row) for row in d.cartan.rows],
        })
        return 0
    kind = "extended" if d.extended else "finite"
    _emit("\n".join([f"cartan matrix of {d.did.text} ({kind})"] + _matrix_lines(d.labels, d.cartan)))
    return 0


def _cmd_coxeter(args) -> int:
    d = build(_diagram_id(args.diagram), extended=args.extended)
    c = coxeter_transform(d)
    h = None if d.extended else coxeter_number(d)
    if args.format == "json":
        _emit_json({
            "diagram": d.did.text,
            "extended": d.extended,
            "labels": list(d.labels),
            "matrix": [list(row) for row in c.rows],
            "coxeter_number": h,
        })
        return 0
    kind = "affine Coxeter transformation" if d.extended else "Coxeter transformation"
    lines = [f"{kind} of {d.did.text} (bicolored product)"]
    if h is not None:
        lines.append(f"coxeter number: {h}")
    _emit("\n".join(lines + _matrix_lines(d.labels, c)))
    return 0


def _parse_k_target(args) -> DiagramId:
    did = _diagram_id(args.diagram)
    if args.k is not None and did.family != "A":
        raise _UsageError(f"--k applies to family A only, not {did.family}")
    return did


def _cmd_charpoly(args) -> int:
    did = _parse_k_target(args)
    chi, chi_affine = char_polys(did, args.k)
    if args.format == "json":
        _emit_json({
            "diagram": did.text,
            "k": args.k,
            "chi": format_poly(chi, "L"),
            "chi_affine": format_poly(chi_affine, "L"),
        })
        return 0
    _emit("\n".join([
        f"characteristic polynomials for {did.text}" + (f" (k = {args.k})" if args.k is not None else ""),
        f"chi        = {format_poly(chi, 'L')}",
        f"chi_affine = {format_poly(chi_affine, 'L')}",
    ]))
    return 0


def _cmd_quotient(args) -> int:
    did = _parse_k_target(args)
    q = ebeling_quotient(did, args.k)
    if args.format == "json":
        _emit_json({
            "diagram": did.text,
            "k": args.k,
            "num": format_poly(q.num, "L"),
            "den": format_poly(q.den, "L"),
        })
        return 0
    _emit(f"chi / chi_affine for {did.text} = {format_ratfunc(q, 'L')}")
    return 0


def _cmd_poincare(args) -> int:
    did = _diagram_id(args.diagram)
    ext = build(did, extended=True)
    gf = generating_function(ext)
    coeffs = [v[0] for v in multiplicities(ext, args.terms).vectors]
    if args.format == "json":
        _emit_json({
            "diagram": did.text,
            "terms": args.terms,
            "rational": {"num": format_poly(gf.components[0].num),
                         "den": format_poly(gf.components[0].den)},
            "component0": coeffs,
        })
        return 0
    _emit("\n".join([
        f"component 0 for {did.text}: {format_ratfunc(gf.components[0])}",
        f"coefficients (t^0..t^{args.terms - 1}): " + ", ".join(str(c) for c in coeffs),
    ]))
    return 0


def _cmd_orbit(args) -> int:
    d = build(_diagram_id(args.diagram))
    table = assembling_vectors(d)
    if args.format == "json":
        _emit_json({
            "diagram": d.did.text,
            "coxeter_number": table.h,
            "labels": list(d.labels),
            "orbit": [list(v) for v in table.tau_beta],
        })
        return 0
    _emit(render_orbit_table(table))
    return 0


def _cmd_zpoly(args) -> int:
    d = build(_diagram_id(args.diagram))
    table = assembling_vectors(d)
    ext = build(d.did, extended=True)
    if args.format == "json":
        polys = z_polynomials(d)
        _emit_json({
            "diagram": d.did.text,
            "labels": list(ext.labels),
            "z_vectors": [list(v) for v in table.z],
            "z_polynomials": {ext.labels[i]: format_poly(polys[i]) for i in range(ext.size)},
        })
        return 0
    _emit(render_z_table(table).rstrip("\n") + "\n\n" + render_z_polynomials(d))
    return 0


def _cmd_molien(args) -> int:
    bid = BpgId.parse(args.group)
    group = enumerate_group(bid)
    coeffs = molien_coeffs(group, args.terms - 1)
    if args.format == "json":
        _emit_json({
            "group": bid.text,
            "order": group.order,
            "terms": args.terms,
            "coefficients": coeffs,
        })
        return 0
    _emit("\n".join([
        f"group {bid.text}, order {group.order}",
        f"molien coefficients (t^0..t^{args.terms - 1}): " + ", ".join(str(c) for c in coeffs),
    ]))
    return 0


def _group_catalog() -> list[BpgId]:
    out = [BpgId("cyclic", n) for n in range(2, 9)]
    out += [BpgId("binary_dihedral", n) for n in range(2, 7)]
    out += [BpgId("binary_tetrahedral"), BpgId("binary_octahedral"), BpgId("binary_icosahedral")]
    return out


def _even_h_ade() -> list[Diagram]:
    out = []
    for ext in catalog_extended():
        if ext.did.family not in _ADE:
            continue
        d = finite_part(ext)
        if coxeter_number(d) % 2 == 0:
            out.append(d)
    return out


def _folded_ids() -> list[DiagramId]:
    return [ext.did for ext in catalog_extended() if ext.did.family not in _ADE]


def _verify_reports(check: str, target: str | None, terms: int) -> list[Report]:
    if check == "all":
        if target is not None:
            raise _UsageError("check 'all' takes no target")
        reports: list[Report] = []
        for name in _CHECKS[1:]:
            reports.extend(_verify_reports(name, None, terms))
        return reports

    if check in ("molien", "mckay-shift"):
        groups = [BpgId.parse(target)] if target else _group_catalog()
        if check == "molien":
            return [crosscheck(b, terms) for b in groups]
        return [mckay_matrix_numeric(b, terms)[1] for b in groups]

    if check == "ebeling":
        exts = [build(_diagram_id(target), extended=True)] if target else list(catalog_extended())
        return [verify_ebeling(d) for d in exts]
    if check == "kostant-relation":
        exts = [build(_diagram_id(target), extended=True)] if target else list(catalog_extended())
        return [verify_kostant_relation(d, terms) for d in exts]
    if check == "closed-form":
        if target:
            dids = [_diagram_id(target)]
        else:
            dids = [e.did for e in catalog_extended() if e.did.family in _ADE]
        return [verify_closed_form(did) for did in dids]
    if check == "molien-folded":
        dids = [_diagram_id(target)] if target else _folded_ids()
        return [folded_component_report(did, terms) for did in dids]

    # orbit-based checks on finite simply-laced diagrams with even h
    diagrams = [build(_diagram_id(target))] if target else _even_h_ade()
    fn = {
        "orbit-form": verify_kostant_form,
        "z-recurrence": verify_z_recurrence,
        "mckay-observation": verify_observation,
    }[check]
    return [fn(d) for d in diagrams]


def _cmd_verify(args) -> int:
    least = _MIN_TERMS.get(args.check, 1)
    if args.terms < least:
        raise _UsageError(f"check {args.check!r} needs --terms >= {least}")
    reports = _verify_reports(args.check, args.target, args.terms)
    ok = all(r.passed for r in reports)
    if args.format == "json":
        _emit_json({
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
        })
    else:
        _emit("\n\n".join(r.render() for r in reports))
    return 0 if ok else 2


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.verb](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (IdentityViolationError, NumericalDriftError, GeneratorSetError,
            CatalogCorruptionError, ArithmeticError) as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 2
    except DynkinlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
