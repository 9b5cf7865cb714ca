"""The byte-identity corpus, tests/corpus.json: for each command line, its
exit code and the sha256 of its stdout and of its stderr, each run in
process through `dynkinlab.cli.main` from cold caches with COLUMNS=80, and
the Python version that wrote them ("made_with", as in bench/refs.json):
argparse renders help and usage errors, and its text differs between
interpreters (3.13 wraps the top-level usage line of `--help` otherwise).

    PYTHONPATH=src python tests/make_corpus.py          # rewrite tests/corpus.json
    PYTHONPATH=src python tests/make_corpus.py --diff   # print the changed keys only

`test_cli.py::test_corpus_replays_byte_identically` replays every entry.  A
change that keeps the output generates nothing; one that changes output on
purpose rewrites the file and lists what `--diff` printed.  Keys are
`shlex.join(argv)`.  The command lines are the catalog at every verb,
check and option, the rank and group limits that replay fast, help, usage
and the seeded misuse of `misused_argv`.  The 93 command lines of
`bench/refs.json` are left out, as that file pins them already, and so are
the series at the --terms limit and the rest of the rank limit, which the
CI workflow runs: the replay stays under 3 s on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shlex
import sys
from pathlib import Path

from dynkinlab.cli import _HANDLERS, _checks, main as cli_main
from dynkinlab.diagram import catalog_extended, catalog_groups
from oracles import package_caches

CORPUS = Path(__file__).with_name("corpus.json")
BENCH_REFS = Path(__file__).resolve().parents[1] / "bench" / "refs.json"
# the rank-limit diagrams the workflow runs, the cycle A128 among them
RANK_LIMIT = ("D128", "A127", "A128", "B128", "C128", "DD128", "CD64")


def misused_argv(seed: int) -> list[list[str]]:
    """Seeded misuses of the command line, each one a usage, domain or
    parse error before any result is printed."""
    rng = random.Random(seed)
    diagram_verbs = ("cartan", "coxeter", "charpoly", "quotient", "poincare", "orbit", "zpoly")
    bad_diagrams = ("Z9", "H4", "E9", "F5", "a5", "", "A0", "B1", "C1", "D3", "DD2", "CD1",
                    "A129", "D129", "B200", "A\u00b2", "D\u0663", "B\uff13")
    bad_groups = ("dihedral:3", "binary_cubic", "cyclic", "binary_dihedral", "cyclic:0",
                  "binary_dihedral:1", "binary_tetrahedral:2", "cyclic:1.5", "cyclic:-2",
                  "cyclic:\u00b2", "cyclic:\u0663", "binary_dihedral:\uff13", "cyclic:1025")
    out = [[]]
    out += [[verb, "E6"] for verb in ("frobnicate", "Cartan", "verify-all", "molien2")]
    out += [[rng.choice(diagram_verbs), d] for d in bad_diagrams]
    out += [["verify", rng.choice(("ebeling", "orbit-form", "closed-form")), d] for d in bad_diagrams]
    out += [["molien", g] for g in bad_groups]
    out += [["verify", rng.choice(("molien", "mckay-shift")), g] for g in bad_groups]
    for terms in ("0", "-1", "1e3", "", "100001", "\u0663", "1\u0660", "+3", "1_0", " 3"):
        out.append(["poincare", rng.choice(("E6", "D5", "A3")), "--terms", terms])
        out.append(["molien", "cyclic:3", "--terms", terms])
        out.append(["verify", "all", "--terms", terms])
    for target in ("E6", "D5", "B4", "G2", "DD4"):
        out.append([rng.choice(("charpoly", "quotient")), target, "--k", str(rng.randint(1, 4))])
    for k in ("0", "-1", "6", "99", "x", "", "\u0663", "\uff13", "+3", " 3"):
        out.append([rng.choice(("charpoly", "quotient")), "A5", "--k", k])
    out += [["verify", "all", "E6"], ["verify", "molien-folded", "A5"], ["verify", "nope"],
            ["cartan", "E6", "--format", "xml"], ["verify", "all", "--format", "yaml"]]
    rng.shuffle(out)
    return out


def _with_json(argvs):
    for argv in argvs:
        yield argv
        yield argv + ["--format", "json"]


def command_lines() -> list[list[str]]:
    """Every command line of the corpus, each once, in a fixed order."""
    diagrams = [d.did for d in catalog_extended()]
    groups = [g.text for g in catalog_groups()]
    group_checks = ("molien", "mckay-shift")
    diagram_checks = [check for check in _checks() if check not in group_checks]
    out = [["verify", "all"], ["verify", "all", "--format", "json"]]
    out += [["verify", "all", "--terms", n] for n in ("1", "2", "9", "3000")]
    for did in diagrams:
        name = did.text
        ks = [[]] if did.family != "A" else [["--k", str(k)] for k in sorted({1, (did.rank + 1) // 2, did.rank})]
        out += _with_json([["cartan", name], ["cartan", name, "--extended"], ["coxeter", name],
                           ["coxeter", name, "--extended"], *(["charpoly", name, *k] for k in ks),
                           *(["quotient", name, *k] for k in ks), ["poincare", name], ["orbit", name],
                           ["zpoly", name], *(["verify", check, name] for check in diagram_checks)])
        out += [["poincare", name, "--terms", "12"]]
        out += [["verify", "kostant-relation", name, "--terms", n] for n in ("2", "3", "200")]
    for group in groups + ["cyclic:1", "binary_dihedral:1", "binary_dihedral:200", "binary_dihedral:256",
                           "cyclic:1021"]:
        out += _with_json([["molien", group], *(["verify", check, group] for check in group_checks)])
        out += [["molien", group, "--terms", "200"], ["verify", "molien", group, "--terms", "200"]]
        out += [["verify", "mckay-shift", group, "--terms", n] for n in ("2", "200")]
    out += [["cartan", name, "--extended"] for name in RANK_LIMIT]
    for name, k in (("D128", []), ("A127", ["--k", "64"])):
        out += [["verify", "ebeling", name], ["verify", "closed-form", name], ["charpoly", name, *k]]
    out += [["verify", "mckay-shift", "cyclic:129", "--terms", "2"],
            ["verify", "molien", "binary_dihedral:126", "--terms", "5"]]
    # help and usage
    out += [["--help"], ["--", "charpoly", "D4"], ["verify", "--list"], ["cartan"], ["verify", "all", "X"]]
    for verb in _HANDLERS:
        out += [[verb], [verb, "--help"]]
    out += [["poincare", "--", "E6"], ["charpoly", "D4", "extra"], ["poincare", "E6", "--terms=5"],
            ["poincare", "E6", "--ter", "3"], ["molien", "cyclic:3", "--terms=5"], ["verify", "all", "--ter", "3"],
            ["cartan", "E6", "--ext"], ["charpoly", "A5", "--k=2"], ["cartan", "A0"], ["cartan", "Q4"],
            ["cartan", "A129"], ["orbit", "A2"], ["charpoly", "A3"], ["verify", "molien", "cyclic:1"]]
    for seed in (1, 2, 3, 2006):
        out += misused_argv(seed)
    pinned = json.loads(BENCH_REFS.read_text())["outputs"]
    return [shlex.split(key) for key in dict.fromkeys(map(shlex.join, out)) if key not in pinned]


def outcome(argv: list[str], caches) -> dict:
    """Exit code and the sha256 of stdout and of stderr of one call with every
    cache in caches cleared first (`oracles.package_caches().values()`); help
    exits by SystemExit, whose code stands in for the return value here."""
    for cache in caches:
        cache.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def build() -> dict[str, dict]:
    os.environ["COLUMNS"] = "80"
    caches = list(package_caches().values())
    return {shlex.join(argv): outcome(argv, caches) for argv in command_lines()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--diff", action="store_true", help="print the keys whose outcome changed; write nothing")
    args = p.parse_args(argv)
    corpus = build()
    if args.diff:
        old = json.loads(CORPUS.read_text(encoding="utf-8"))["outputs"]
        changed = sorted(k for k in old.keys() | corpus.keys() if old.get(k) != corpus.get(k))
        for key in changed:
            print(key)
        return int(bool(changed))
    entries = (f"{json.dumps(key, ensure_ascii=False)}: {json.dumps(ref)}" for key, ref in corpus.items())
    made_with = json.dumps({"python": platform.python_version()})
    CORPUS.write_text(f'{{"made_with": {made_with},\n"outputs": {{\n' + ",\n".join(entries) + "\n}}\n",
                      encoding="utf-8")
    print(f"{len(corpus)} command lines written to {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
