"""Exit codes, output shapes and JSON round-trips of the command line."""

import argparse
import hashlib
import itertools
import json
import platform
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dynkinlab.cli as cli
import dynkinlab.errors as errors
import dynkinlab.exact as exact
import dynkinlab.kostant as kostant
import dynkinlab.mckay as mckay
import dynkinlab.orbit as orbit
from dynkinlab.cli import main
from dynkinlab.coxeter import char_polys
from dynkinlab.diagram import DiagramId, build
from dynkinlab.exact import IntMatrix, IntPoly
from dynkinlab.mckay import Report
from dynkinlab.orbit import z_polynomials
from make_corpus import CORPUS, command_lines, misused_argv, outcome
from oracles import clear_package_caches, package_caches, parse_poly, product_route

BENCH_REFS = Path(__file__).resolve().parents[1] / "bench" / "refs.json"
SRC = Path(__file__).resolve().parents[1] / "src"
# the nominal sizes of the high-degree workload; its other references
# differ from these by a few terms or a group parameter
HIGH_DEGREE_NOMINAL = (
    "poincare E8 --terms 3000",
    "molien binary_icosahedral --terms 3000",
    "molien binary_dihedral:200 --terms 3000",
    "verify molien binary_octahedral --terms 1000",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_charpoly_json(capsys):
    code, out, _ = run(capsys, "charpoly", "E6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    chi = parse_poly(payload["chi"], "L")
    chi_affine = parse_poly(payload["chi_affine"], "L")
    lam = IntPoly.monomial(1)
    # table row: chi * (L^2+1)(L-1) = (L^6+1)(L^3-1)
    assert chi * (lam**2 + 1) * (lam - 1) == (lam**6 + 1) * (lam**3 - 1)
    expected_chi, expected_affine = char_polys(DiagramId.parse("E6"))
    assert chi == expected_chi and chi_affine == expected_affine


def test_poincare_a1(capsys):
    code, out, _ = run(capsys, "poincare", "A1", "--terms", "5")
    assert code == 0
    assert "1, 0, 3, 0, 5" in out


def test_verify_observation_e6(capsys):
    code, out, _ = run(capsys, "verify", "mckay-observation", "E6")
    assert code == 0
    assert out.startswith("[PASS] mckay observation for E6")
    assert out.count("neighbor sum") == 6


def test_usage_exit_codes(capsys):
    assert run(capsys, "charpoly", "A3")[0] == 1  # missing k
    assert run(capsys, "cartan", "Z9")[0] == 1
    assert run(capsys, "frobnicate", "E6")[0] == 1
    assert run(capsys, "orbit", "A2")[0] == 1  # odd coxeter number
    assert run(capsys, "verify", "all", "E6")[0] == 1
    assert run(capsys, "poincare", "A1", "--terms", "0")[0] == 1


def test_usage_errors_go_to_stderr(capsys):
    _, out, err = run(capsys, "charpoly", "A3")
    assert out == ""
    assert "k" in err


def test_identity_failure_exits_2(capsys, monkeypatch):
    broken = Report("forced failure", (("never true", False),))
    monkeypatch.setattr(cli, "verify_ebeling", lambda d: broken)
    code, out, _ = run(capsys, "verify", "ebeling", "E6")
    assert code == 2
    assert "[FAIL]" in out


def test_exit_codes_follow_the_error_taxonomy(capsys, monkeypatch):
    """The taxonomy's RuntimeErrors and every ArithmeticError are identity
    violations (exit 2); its other errors are bad requests (exit 1)."""
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.DynkinlabError)]
    violations = set()
    real = cli._HANDLERS["cartan"]
    for cls in classes + [ArithmeticError, ZeroDivisionError]:
        def fail(args, cls=cls):
            raise cls("forced")

        monkeypatch.setitem(cli._HANDLERS, "cartan", fail)
        code, out, err = run(capsys, "cartan", "E6")
        assert out == "" and "Traceback" not in err, cls
        if code == 2:
            assert err == "identity violation: forced\n", cls
            violations.add(cls.__name__)
        else:
            assert (code, err) == (1, "error: forced\n"), cls
    assert len(classes) == 12
    assert violations == {"IdentityViolationError", "GeneratorSetError",
                          "CatalogCorruptionError", "ArithmeticError", "ZeroDivisionError"}
    # a JSON document is built inside the same try: its errors map the same way
    for cls, expected in ((errors.IdentityViolationError, (2, "identity violation: forced\n")),
                          (errors.DomainError, (1, "error: forced\n"))):
        def lazy_fail(args, cls=cls):
            def refuse():
                raise cls("forced")

            return real(args)._replace(document=refuse)

        monkeypatch.setitem(cli._HANDLERS, "cartan", lazy_fail)
        code, out, err = run(capsys, "cartan", "E6", "--format", "json")
        assert (code, err) == expected, cls
        assert out == "" and "Traceback" not in err, cls


def test_misused_command_lines_fail_cleanly(capsys):
    for argv in misused_argv(2006):
        code, out, err = run(capsys, *argv)
        assert code in (1, 2), argv
        assert out == "", argv
        assert err and "Traceback" not in err, argv


# a valid call with every option of each verb
_EVERY_OPTION = {
    "cartan": ["cartan", "E6", "--extended", "--format", "json"],
    "coxeter": ["coxeter", "D4", "--extended", "--format", "json"],
    "charpoly": ["charpoly", "A3", "--k", "2", "--format", "json"],
    "quotient": ["quotient", "A3", "--k", "1", "--format", "json"],
    "poincare": ["poincare", "E6", "--terms", "7", "--format", "json"],
    "orbit": ["orbit", "E6", "--format", "json"],
    "zpoly": ["zpoly", "D4", "--format", "json"],
    "molien": ["molien", "cyclic:3", "--terms", "5", "--format", "json"],
    "verify": ["verify", "ebeling", "E6", "--terms", "5", "--format", "json"],
}


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one call; help exits by SystemExit,
    whose code stands in for the return value here only."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_text_mode_never_builds_the_document(capsys, monkeypatch):
    """With every verb's document made to raise, each text run prints
    exactly what it prints unwrapped, and the JSON run does raise."""
    def refuse():
        raise AssertionError("the JSON document was built")

    for verb, argv in _EVERY_OPTION.items():
        assert argv[-2:] == ["--format", "json"], verb
        expected = run(capsys, *argv[:-2])
        assert expected[0] == 0 and expected[1], verb
        real = cli._HANDLERS[verb]
        monkeypatch.setitem(cli._HANDLERS, verb, lambda args, real=real: real(args)._replace(document=refuse))
        assert run(capsys, *argv[:-2]) == expected, verb
        with pytest.raises(AssertionError, match="document was built"):
            main(argv)
        capsys.readouterr()


class _NoVerbKnown(dict):
    """`_HANDLERS` as `main` sees it when no first argument is a verb."""

    def __contains__(self, key):
        return False


def test_one_verb_parser_matches_the_full_tree(capsys, monkeypatch):
    """Each command line gives the same exit code and streams whether
    `main` parses the arguments after a verb with that verb's parser alone
    or parses the whole command line with the whole tree."""
    argvs = [["--help"], [], ["--", "charpoly", "D4"], ["frobnicate", "E6"]]
    for verb, argv in _EVERY_OPTION.items():
        positionals = list(itertools.takewhile(lambda a: not a.startswith("--"), argv[1:]))
        argvs += [argv, [verb, "--help"], [verb, "--", *positionals], [verb, *positionals, "extra"]]
    for verb, target in (("poincare", "E6"), ("molien", "cyclic:3"), ("verify", "all")):
        argvs += [[verb, target, "--terms=5"], [verb, target, "--ter", "3"]]
    for seed in (1, 2, 3):
        argvs += misused_argv(seed)
    one_verb = [_outcome(capsys, argv) for argv in argvs]
    full_tree = cli._build_parser

    def whole_tree_only(verb=None):
        assert verb is None
        return full_tree()

    monkeypatch.setattr(cli, "_build_parser", whole_tree_only)
    monkeypatch.setattr(cli, "_HANDLERS", _NoVerbKnown(cli._HANDLERS))
    for argv, expected in zip(argvs, one_verb):
        assert _outcome(capsys, argv) == expected, argv


def test_main_builds_only_the_requested_verbs_parser(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    full_tree = 1 + len(cli._HANDLERS)
    for argv, parsers in ((["charpoly", "D4"], 1), (["verify", "ebeling", "E6"], 1),
                          ([], full_tree), (["--help"], full_tree), (["frobnicate", "E6"], full_tree)):
        built.clear()
        _outcome(capsys, argv)
        assert len(built) == parsers, argv


def _verb_parsers(parser) -> dict:
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return verbs.choices


def test_parser_verbs_are_the_handler_table():
    """The whole tree's verbs are the handler table, and each verb's own
    parser prints the help of its subparser in the whole tree."""
    tree = _verb_parsers(cli._build_parser())
    assert list(tree) == list(cli._HANDLERS)
    for verb in cli._HANDLERS:
        assert cli._build_parser(verb).format_help() == tree[verb].format_help(), verb


# stdlib modules a start-up does not need; each one costs milliseconds to import
_NOT_AT_START_UP = ("dataclasses", "inspect", "json", "fractions", "decimal")
_START_UP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "bare = set(sys.modules)\n"
    "import dynkinlab.cli as cli\n"
    "cli._build_parser()\n"
    f"sys.stderr.write(repr(sorted(set({_NOT_AT_START_UP!r}) & set(sys.modules) - bare)))\n"
    "sys.exit(cli.main(['charpoly', 'E6', '--format', 'json']))\n"
)


def test_start_up_imports_no_unneeded_stdlib_module():
    """A fresh isolated interpreter imports the CLI and builds its parser
    without adding any of _NOT_AT_START_UP to the modules its own start-up
    loaded; --format json then imports json itself."""
    child = subprocess.run([sys.executable, "-I", "-c", _START_UP_CHILD, str(SRC)],
                           capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stderr) == (0, "[]")
    assert json.loads(child.stdout)["diagram"] == "E6"


def _text_and_json(capsys, *argv):
    """The text of one command line and its JSON document, parsed; both
    runs exit with the same code."""
    code, text, _ = run(capsys, *argv)
    json_code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == json_code, argv
    return text, json.loads(out)


def _matrix_rows(text: str) -> list[tuple[str, list[int]]]:
    """(label, entries) of each '<label> | <entries>' line of a matrix printout."""
    rows = [line.split(" | ") for line in text.splitlines() if " | " in line]
    return [(label.strip(), [int(v) for v in cells.split()]) for label, cells in rows]


def _grid_vectors(text: str, diagram) -> dict[str, list[int]]:
    """Title -> vector of each block of an orbit or z-vector table, read back
    cell by cell (three characters each) through the diagram's display grid."""
    out = {}
    for block in text.strip("\n").split("\n\n"):
        title, *lines = block.split("\n")
        vec = [None] * diagram.size
        for row, line in zip(diagram.display, lines):
            for col, vtx in row:
                vec[vtx] = int(line[3 * col:3 * col + 3])
        out[title] = vec
    return out


def test_cartan_json_round_trip(capsys):
    _, out, _ = run(capsys, "cartan", "F4dual", "--extended", "--format", "json")
    payload = json.loads(out)
    d = build(DiagramId.parse("F4dual"), extended=True)
    assert payload["labels"] == list(d.labels)
    assert tuple(tuple(row) for row in payload["matrix"]) == d.cartan.rows
    # both matrix verbs print the document's labels and rows as text
    for argv in (("cartan", "F4dual", "--extended"), ("cartan", "E6"), ("coxeter", "D5"),
                 ("coxeter", "E7", "--extended"), ("coxeter", "G2dual", "--extended")):
        text, payload = _text_and_json(capsys, *argv)
        assert _matrix_rows(text) == list(zip(payload["labels"], payload["matrix"])), argv
        assert payload["extended"] == ("--extended" in argv), argv
        if argv[0] == "coxeter":
            h = [int(line[16:]) for line in text.splitlines() if line.startswith("coxeter number: ")]
            assert h == ([] if payload["extended"] else [payload["coxeter_number"]]), argv


def test_cartan_text(capsys):
    _, out, _ = run(capsys, "cartan", "A1", "--extended")
    assert out == "cartan matrix of A1 (extended)\na0 |  2 -2\na1 | -2  2\n"


def test_quotient_text(capsys):
    _, out, _ = run(capsys, "quotient", "G2")
    assert out == "chi / chi_affine for G2 = (1 - L + L^2) / (1 - L - L^2 + L^3)\n"


def test_zpoly_json_round_trip(capsys):
    _, out, _ = run(capsys, "zpoly", "A3", "--format", "json")
    payload = json.loads(out)
    ext = build(DiagramId.parse("A3"), extended=True)
    polys = z_polynomials(ext)
    for i, label in enumerate(ext.labels):
        assert parse_poly(payload["z_polynomials"][label]) == polys[i]
    # the text's z vectors and z(t) lines are the document's
    for name in ("A3", "D5", "E6", "E8"):
        d = build(DiagramId.parse(name))
        text, payload = _text_and_json(capsys, "zpoly", name)
        table, _, poly_lines = text.rpartition("\n\n")
        z = payload["z_vectors"]
        assert _grid_vectors(table, d) == {f"z_{n}": z[n][1:] for n in range(1, len(z) - 1)}, name
        finite = {label: payload["z_polynomials"][label] for label in payload["labels"][1:]}
        assert dict(line[len("z(t)_"):].split(" = ") for line in poly_lines.splitlines()) == finite, name


def _report_lines(text: str) -> list[dict]:
    """verify's text read back into the document's report records."""
    reports = []
    for line in text.splitlines():
        if line.startswith("["):
            reports.append({"name": line[7:], "passed": line[1:5] == "PASS", "checks": []})
        elif line:
            reports[-1]["checks"].append({"label": line[8:], "ok": line[2:6] == "PASS"})
    return reports


def _rational(payload) -> str:
    num, den = payload["num"], payload["den"]
    return num if den == "1" else f"({num}) / ({den})"


def _series(line: str) -> list[int]:
    return [int(c) for c in line.split(": ", 1)[1].split(", ")]


def test_json_and_text_agree(capsys, monkeypatch):
    """Each verb's document holds what its text prints: polynomials,
    coefficients, orbit vectors and every verify label with its verdict."""
    for argv in (("charpoly", "E6"), ("charpoly", "A5", "--k", "3"), ("charpoly", "B4")):
        text, payload = _text_and_json(capsys, *argv)
        lines = dict(line.split(" = ") for line in text.splitlines()[1:])
        assert lines == {"chi       ": payload["chi"], "chi_affine": payload["chi_affine"]}, argv
    for argv in (("quotient", "G2"), ("quotient", "A5", "--k", "3"), ("quotient", "E8")):
        text, payload = _text_and_json(capsys, *argv)
        assert text == f"chi / chi_affine for {payload['diagram']} = {_rational(payload)}\n", argv
    for argv in (("poincare", "E6", "--terms", "12"), ("poincare", "B3"), ("poincare", "A1", "--terms", "1")):
        text, payload = _text_and_json(capsys, *argv)
        head, coeffs = text.splitlines()
        assert head == f"component 0 for {payload['diagram']}: {_rational(payload['rational'])}", argv
        assert _series(coeffs) == payload["component0"] and len(payload["component0"]) == payload["terms"]
    for argv in (("molien", "binary_icosahedral"), ("molien", "cyclic:5", "--terms", "12")):
        text, payload = _text_and_json(capsys, *argv)
        head, coeffs = text.splitlines()
        assert head == f"group {payload['group']}, order {payload['order']}", argv
        assert _series(coeffs) == payload["coefficients"] and len(payload["coefficients"]) == payload["terms"]
    for name in ("A5", "D6", "E7"):
        text, payload = _text_and_json(capsys, "orbit", name)
        orbit = _grid_vectors(text, build(DiagramId.parse(name)))
        assert orbit == {f"tau^({n})beta": v for n, v in enumerate(payload["orbit"])}, name
        assert len(orbit) == payload["coxeter_number"], name
    for argv in (("verify", "all", "--terms", "12"), ("verify", "molien", "binary_octahedral")):
        text, payload = _text_and_json(capsys, *argv)
        assert _report_lines(text) == payload["reports"], argv
        assert payload["passed"] is True
    mixed = Report("forced mixture", (("holds", True), ("never true", False)))
    monkeypatch.setattr(cli, "verify_ebeling", lambda d: mixed)
    text, payload = _text_and_json(capsys, "verify", "ebeling", "E6")
    assert _report_lines(text) == payload["reports"] == [
        {"name": "forced mixture", "passed": False,
         "checks": [{"label": "holds", "ok": True}, {"label": "never true", "ok": False}]}]
    assert payload["passed"] is False


def test_molien_json(capsys):
    code, out, _ = run(capsys, "molien", "cyclic:2", "--terms", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 2
    assert payload["coefficients"] == [1, 0, 3, 0, 5]


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--terms", "12")
    assert code == 0
    assert "[FAIL]" not in out


# the label of every line that reads McKay's relation, one pattern per family
_RELATION_LINES = [re.compile(p) for p in (
    r"B v_n = v_\(n-1\) \+ v_\(n\+1\) for 1 <= n <= \d+", r"t B x = \(1 \+ t\^2\) x - e0",  # kostant-relation
    r"B v_0 = v_1", r"B v_n = v_\(n-1\) \+ v_\(n\+1\) for n = 1\.\.\d+",  # mckay-shift
    r"A z_n = z_\(n-1\) \+ z_\(n\+1\) for 1 < n < \d+", r"A z_1 = z_2", r"A z_\d+ = z_\d+",  # z-recurrence
    r"A\^semi z_0 = z_1", r"A\^semi z_\d+ = z_\d+",
    r"\(t \+ 1/t\) z\(t\)_\w+ = neighbor sum, both routes",  # mckay-observation
)]


def test_three_term_is_the_one_place_mckays_relation_is_compared(capsys, monkeypatch):
    """With `mckay._three_term` reporting every row and every degree false,
    `verify all` FAILs exactly the lines that read McKay's relation, each
    family on some line: kostant-relation's shift and Z[t] lines,
    mckay-shift's two shift lines, z-recurrence's five recurrence lines and
    every observation vertex line.  A1's "for 1 < n < 1" reads no degree
    and still PASSes (see the empty-range test below)."""
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    labels = [line.split(maxsplit=1)[1] for line in out.splitlines() if line.startswith("  PASS")]
    relation = [label for label in labels if any(p.fullmatch(label) for p in _RELATION_LINES)]
    monkeypatch.setattr(mckay, "_three_term", lambda bv, v, w, n, e0=0: ([False] * len(bv), [False] * n))
    code, out, _ = run(capsys, "verify", "all")
    failed = [line.split(maxsplit=1)[1] for line in out.splitlines() if line.startswith("  FAIL")]
    assert code == 2
    assert failed == [label for label in relation if label != "A z_n = z_(n-1) + z_(n+1) for 1 < n < 1"]
    assert all(any(p.fullmatch(label) for label in failed) for p in _RELATION_LINES)


def test_no_verify_all_label_states_an_empty_range(capsys):
    """A check stated over an empty range of n tests nothing.  The one known
    case is A1 (h = 2), whose z-recurrence line reads "for 1 < n < 1";
    ROADMAP item 10 mends it, which changes the `verify all` digests that
    bench/refs.json pins.  Drop it from `known` then."""
    known = {"A z_n = z_(n-1) + z_(n+1) for 1 < n < 1"}
    pattern = re.compile(r"(-?\d+) (<=?) n (<=?) (-?\d+)|n = (-?\d+)\.\.(-?\d+)")
    for terms in ("2", "40"):
        out = run(capsys, "verify", "all", "--terms", terms)[1]
        ranges, empty = 0, set()
        for line in out.splitlines():
            for m in pattern.finditer(line):
                ranges += 1
                if m[1] is None:
                    lo, hi = int(m[5]), int(m[6])
                else:
                    lo, hi = int(m[1]) + (m[2] == "<"), int(m[4]) - (m[3] == "<")
                if lo > hi:
                    empty.add(line.split(maxsplit=1)[1])
        assert ranges > 50, terms
        assert empty == known, terms


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "closed-form", "E7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["reports"][0]["checks"]


def test_too_few_terms_is_a_usage_error(capsys):
    # with one term the recurrence range 1 <= n <= 0 is empty: nothing to check
    for argv in (("verify", "kostant-relation", "E6", "--terms", "1"),
                 ("verify", "all", "--terms", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "--terms >= 2" in err
    code, out, _ = run(capsys, "verify", "kostant-relation", "E6", "--terms", "2")
    assert code == 0
    assert "1 <= n <= 1" in out


def test_k_is_a_usage_error_outside_family_a(capsys):
    for verb in ("charpoly", "quotient"):
        for target in ("E6", "D5", "B4", "G2"):
            code, out, err = run(capsys, verb, target, "--k", "3")
            assert code == 1, (verb, target)
            assert out == ""
            assert "family A" in err
        assert run(capsys, verb, "A5", "--k", "3")[0] == 0
    assert "(k = 3)" in run(capsys, "charpoly", "A5", "--k", "3")[1]


def test_inexact_division_is_an_identity_violation(capsys, monkeypatch):
    def refuse(self, d):
        raise ArithmeticError("division is not exact")

    monkeypatch.setattr(IntPoly, "divexact", refuse)
    # the Cramer solve divides nothing; the reduction of component 0 for
    # printing does
    code, out, err = run(capsys, "poincare", "E6", "--terms", "3")
    assert code == 2
    assert out == ""
    assert err == "identity violation: division is not exact\n"
    assert "Traceback" not in err


def test_extended_cycle_at_the_rank_limit(capsys):
    code, out, _ = run(capsys, "poincare", "A128", "--terms", "2")
    assert code == 0
    assert out.endswith("/ (1 - t - t^129 + t^130)\ncoefficients (t^0..t^1): 1, 0\n")
    code, out, _ = run(capsys, "verify", "mckay-shift", "cyclic:129", "--terms", "2")
    assert code == 0
    assert out.startswith("[PASS] mckay shift for cyclic:129 via A128\n")
    assert "FAIL" not in out and out.count("  PASS  ") == 4


def test_domain_error_in_the_solve_exits_1(capsys, monkeypatch):
    # an "extended E6" whose finite part holds a triangle
    rows = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, -1], [0, -1, -1, 2]]
    triangle = build(DiagramId("E6"), extended=True)._replace(
                                   labels=("a0", "p", "q", "r"), cartan=IntMatrix(rows), u0=(1,))
    monkeypatch.setattr(cli, "build", lambda did, extended=False: triangle)
    code, out, err = run(capsys, "poincare", "E6", "--terms", "3")
    assert code == 1
    assert out == ""
    assert err == "error: the finite part of extended E6 has a cycle\n"


def test_verify_all_reduces_no_fraction(capsys, monkeypatch):
    calls = []
    gcd = exact.poly_gcd

    def counting_gcd(p, q):
        calls.append((p, q))
        return gcd(p, q)

    monkeypatch.setattr(exact, "poly_gcd", counting_gcd)
    kostant.generating_function.cache_clear()  # a cached result would hide its gcds
    assert run(capsys, "verify", "all")[0] == 0
    assert calls == []
    # printing component 0 reduces it, so the counter does see gcds
    assert run(capsys, "poincare", "E6", "--terms", "3")[0] == 0
    assert calls


def test_molien_folded_fails_on_a_swapped_pair(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "molien-folded")
    assert code == 0
    reports = out.count("[PASS] folded molien exploration for ")
    assert reports == 23
    pair = mckay.folded_pair
    monkeypatch.setattr(mckay, "folded_pair", lambda did: pair(did)[::-1])
    code, out, _ = run(capsys, "verify", "molien-folded")
    assert code == 2
    assert out.count("[FAIL] folded molien exploration for ") == reports
    assert out.count("  FAIL  component 0 ") == 2 * reports
    assert "PASS" not in out


def test_cross_multiplied_checks_see_a_perturbed_numerator(capsys, monkeypatch):
    """det M_i (1 - t^a)(1 - t^b) = z(t)_i det M and its closed-form twin
    must fail once one Cramer numerator of extended E6 is off by t^k."""
    ext = build(DiagramId("E6"), extended=True)
    real = mckay.generating_function
    gf = real(ext)
    for i, k in ((0, 3), (0, 40), (ext.size - 1, 5)):
        nums = list(gf.numerators)
        nums[i] = nums[i] + IntPoly.monomial(k)
        broken = gf._replace(numerators=tuple(nums))

        def patched(d, broken=broken):
            return broken if d == ext else real(d)

        monkeypatch.setattr(mckay, "generating_function", patched)
        code, out, _ = run(capsys, "verify", "orbit-form", "E6")
        assert code == 2, (i, k)
        failed = [line for line in out.splitlines() if line.startswith("  FAIL")]
        assert failed == [f"  FAIL  [P]_{ext.labels[i]} = z(t)_{ext.labels[i]} / ((1 - t^6)(1 - t^8))"]
        code, out, _ = run(capsys, "verify", "closed-form", "E6")
        assert (code, out.startswith("[FAIL]")) == ((2, True) if i == 0 else (0, False)), (i, k)


@pytest.mark.parametrize("i, j", [(0, 0), (2, 4), (5, 1)])
def test_block_identities_see_a_perturbed_coxeter_matrix(capsys, monkeypatch, i, j):
    """One entry of the C that coxeter_transform returns, off by one: both
    block identities of E6 fail, and nothing else."""
    real = mckay.coxeter_transform

    def patched(d):
        rows = [list(row) for row in real(d).rows]
        rows[i][j] += 1
        return IntMatrix(rows)

    monkeypatch.setattr(mckay, "coxeter_transform", patched)
    code, out, _ = run(capsys, "verify", "z-recurrence", "E6")
    assert code == 2
    assert [line for line in out.splitlines() if line.startswith("  FAIL")] == [
        "  FAIL  A (1 - w2) w1 = (1 - w1)(1 + C)",
        "  FAIL  A (1 - w1) C = (1 - w2) w1 (1 + C)",
    ]


@pytest.mark.parametrize("route", ["z", "y"])
@pytest.mark.parametrize("i, k", [(1, 3), (3, 0), (6, 13)])
def test_observation_lines_see_a_perturbed_side(capsys, monkeypatch, route, i, k):
    """z(t)_i of E6 (route z) or its Cramer numerator y_i (route y) off by
    t^k: the line of vertex i fails, with those of its finite neighbours,
    whose sums read it.  Through y the z route still holds on every line."""
    ext = build(DiagramId("E6"), extended=True)
    if route == "z":
        real_z = mckay.z_polynomials
        bumped = list(real_z(ext))
        bumped[i] += IntPoly.monomial(k)
        monkeypatch.setattr(mckay, "z_polynomials", lambda g: tuple(bumped) if g == ext else real_z(g))
    else:
        real_gf = mckay.generating_function
        bumped = list(real_gf(ext).numerators)
        bumped[i] += IntPoly.monomial(k)
        broken = real_gf(ext)._replace(numerators=tuple(bumped))
        monkeypatch.setattr(mckay, "generating_function", lambda g: broken if g == ext else real_gf(g))
    a_semi = mckay.semi_affine(ext)
    failing = [v for v in range(1, ext.size) if v == i or a_semi[v, i]]
    code, out, _ = run(capsys, "verify", "mckay-observation", "E6")
    assert code == 2
    assert [line for line in out.splitlines() if line.startswith("  FAIL")] == [
        f"  FAIL  (t + 1/t) z(t)_{ext.labels[v]} = neighbor sum, both routes" for v in failing
    ]
    if route == "y":
        z_pairs = [pairs[0] for pairs in product_route("mckay-observation", ext)[:-1]]
        assert all(lhs == rhs for lhs, rhs in z_pairs)


def test_negative_series_fails_the_nonnegativity_line(capsys, monkeypatch):
    """The Cramer numerator of E6's last vertex lowered at t^7, as both
    `kostant` and `mckay` read it: `verify kostant-relation` keeps its three
    labelled lines and FAILs the nonnegativity line among them (exit 2, no
    stderr), while `verify mckay-shift`, which has no such line, refuses
    with the witness."""
    ext = build(DiagramId("E6"), extended=True)
    real = kostant.generating_function
    nums = list(real(ext).numerators)
    nums[-1] -= 10 * IntPoly.monomial(7)
    broken = real(ext)._replace(numerators=tuple(nums))
    for module in (kostant, mckay):
        monkeypatch.setattr(module, "generating_function", lambda g: broken if g == ext else real(g))
    code, out, err = run(capsys, "verify", "kostant-relation", "E6", "--terms", "12")
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "[FAIL] kostant relation for extended E6",
        "  FAIL  series coefficients are nonnegative integers",
        "  FAIL  B v_n = v_(n-1) + v_(n+1) for 1 <= n <= 11",
        "  FAIL  t B x = (1 + t^2) x - e0",
    ]
    code, out, err = run(capsys, "verify", "mckay-shift", "binary_tetrahedral", "--terms", "12")
    assert (code, out, err) == (2, "", "identity violation: component y3 coefficient at t^7 is -8\n")


def test_broken_orbit_walk_is_an_identity_violation(capsys, monkeypatch):
    """With w1 and w2 swapped the walk's own check refuses E6: exit 2, one
    line on stderr, no traceback."""
    real = orbit.bicolored_reflections
    monkeypatch.setattr(orbit, "bicolored_reflections",
                        lambda d: real(d)._replace(w1=real(d).w2, w2=real(d).w1))
    caches = (orbit.tau_orbit, orbit.assembling_vectors)
    for c in caches:
        c.cache_clear()
    try:
        result = run(capsys, "verify", "orbit-form", "E6")
    finally:
        for c in caches:
            c.cache_clear()
    assert result == (2, "", "identity violation: w2 does not fix beta\n")


def test_component_0_commands_expand_one_series(capsys, monkeypatch):
    """poincare, verify molien and the folded report read component 0 only,
    so each expands one series, not one per vertex."""
    calls = []
    expand = kostant.series_expand

    def counting_expand(f, nterms, den):
        calls.append(nterms)
        return expand(f, nterms, den)

    monkeypatch.setattr(kostant, "series_expand", counting_expand)
    runs = (
        lambda: run(capsys, "poincare", "E8", "--terms", "50")[0] == 0,
        lambda: run(capsys, "verify", "molien", "binary_icosahedral")[0] == 0,
        lambda: mckay.folded_component_report(DiagramId.parse("F4"), 24).passed,
    )
    for go in runs:
        calls.clear()
        assert go()
        assert len(calls) == 1, calls


def test_rank_above_the_limit_is_a_usage_error(capsys):
    assert cli.MAX_RANK == 128
    for argv in (("cartan", "D129"), ("coxeter", "A129"), ("charpoly", "A129", "--k", "1"),
                 ("quotient", "B129"), ("poincare", "D129"), ("orbit", "A129"),
                 ("zpoly", "D129"), ("verify", "ebeling", "C129"),
                 ("verify", "orbit-form", "D129")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err == "usage error: rank 129 is above the limit 128\n"
    code, out, _ = run(capsys, "cartan", "A128")
    assert code == 0
    assert out.startswith("cartan matrix of A128 (finite)")


def test_terms_above_the_limit_is_a_usage_error(capsys):
    assert cli.MAX_TERMS == 100_000
    for argv in (("poincare", "A1", "--terms", "100001"),
                 ("molien", "cyclic:2", "--terms", "100001"),
                 ("verify", "molien", "cyclic:2", "--terms", "100001")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("usage error: ") and "1..100000" in err
        assert "Traceback" not in err
    code, out, _ = run(capsys, "molien", "cyclic:2", "--terms", "100000")
    assert code == 0
    assert out.startswith("group cyclic:2, order 2")


def test_group_pairing_above_the_rank_limit_is_a_usage_error(capsys):
    for argv, pair in ((("verify", "molien", "binary_dihedral:127"), "D129"),
                       (("verify", "mckay-shift", "cyclic:130"), "A129")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err == f"usage error: {argv[2]} pairs with {pair}, rank 129 is above the limit 128\n"
    assert cli._paired_group_id("binary_dihedral:126").n == 126  # pairs with D128
    # cyclic:1 pairs with no diagram at all: a domain error, as before
    code, out, err = run(capsys, "verify", "molien", "cyclic:1")
    assert (code, out) == (1, "")
    assert err == "error: cyclic:1 has no paired diagram in the catalog\n"


def test_group_order_above_the_limit_is_a_usage_error(capsys):
    assert cli.MAX_GROUP_ORDER == 1024
    for argv in (("molien", "binary_dihedral:257"), ("molien", "cyclic:1025"),
                 ("verify", "molien", "binary_dihedral:2000")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("usage error: group order ") and "above the limit 1024" in err
        assert "Traceback" not in err
    assert cli._group_id("binary_dihedral:256").order == 1024
    assert cli._group_id("binary_dihedral:202").order == 808  # the bench's largest group


def test_verify_all_runs_the_table_rows_in_order(capsys):
    code, whole, _ = run(capsys, "verify", "all")
    assert code == 0
    parts = []
    for check in cli._checks():
        code, out, _ = run(capsys, "verify", check)
        assert code == 0, check
        parts.append(out)
    assert whole == "\n".join(parts)


def _bench_refs() -> tuple[dict, list[str]]:
    """bench/refs.json's outputs, and the keys of the 57 it pins here: every
    catalog and rank-ladder invocation, and the nominal high-degree ones."""
    refs = json.loads(BENCH_REFS.read_text())["outputs"]
    pinned = [k for k in refs if not k.startswith(("poincare", "molien", "verify molien"))]
    return refs, pinned + list(HIGH_DEGREE_NOMINAL)


def test_bench_reference_outputs(capsys):
    """Exit code and stdout digest of every catalog and rank-ladder bench
    invocation, and of the nominal high-degree ones, against bench/refs.json."""
    refs, pinned = _bench_refs()
    assert len(pinned) == 57
    for key in pinned:
        code, out, _ = run(capsys, *key.split())
        assert code == refs[key]["exit"], key
        assert hashlib.sha256(out.encode()).hexdigest() == refs[key]["sha256"], key


def test_corpus_replays_byte_identically(monkeypatch):
    """Each command line of tests/corpus.json, from cold caches with
    COLUMNS=80, gives the exit code and the stdout and stderr digests that
    the file records; the file holds the command lines `make_corpus`
    generates, in its order.  On another Python version than the one that
    wrote it, help and errors, which argparse may render, compare their
    exit codes only."""
    monkeypatch.setenv("COLUMNS", "80")
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    outputs = corpus["outputs"]
    assert list(outputs) == [shlex.join(argv) for argv in command_lines()]
    same_python = corpus["made_with"]["python"] == platform.python_version()
    caches, changed = list(package_caches().values()), []
    for key, ref in outputs.items():
        got = outcome(shlex.split(key), caches)
        if not same_python and (ref["exit"] != 0 or "--help" in key.split()):
            got, ref = got["exit"], ref["exit"]
        if got != ref:
            changed.append(key)
    assert changed == []


# no caller repeats a diagram in the walk, but bench/spans.py counts its
# steps on cache misses only, so its cache goes once that counter counts
# calls (ROADMAP item 5c)
UNHIT_BY_DESIGN = {"dynkinlab.orbit.tau_orbit"}


def test_every_cache_is_hit_by_the_bench_traffic(capsys):
    """Replayed as the benchmark runs them, each from cold caches, the
    pinned invocations hit every package cache but the ones allowlisted: a
    cache that no traffic hits keeps its entries and saves nothing."""
    caches = package_caches()
    hits = dict.fromkeys(caches, 0)
    for key in _bench_refs()[1]:
        clear_package_caches()
        run(capsys, *key.split())
        for name, cache in caches.items():
            hits[name] += cache.cache_info().hits
    assert {name for name, n in hits.items() if n == 0} == UNHIT_BY_DESIGN
