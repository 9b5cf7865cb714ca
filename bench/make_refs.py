"""Write `refs.json`: the expected exit code and stdout digest of every
invocation a seed can produce, after validating the outputs independently.

    python3 bench/make_refs.py

Run it only when the bands in `workloads.py` change; the references must be
made from a commit whose outputs are trusted.  Validation, none of it using
the code under test:

- `charpoly`: sympy's characteristic polynomial of the integer matrix that
  `coxeter <diagram> [--extended] --format json` prints equals chi
  (chi_affine).  On odd-rank A_n with k = (n + 1)/2 the extended diagram is
  an even cycle with equal colour classes, so chi_affine is its charpoly.
- `poincare E8` and `molien binary_icosahedral` at one term count agree
  with each other and with Klein's (1 + t^30)/((1 - t^12)(1 - t^20));
  `molien binary_dihedral:N` agrees with (1 + t^(2N+2))/((1 - t^4)(1 - t^(2N))).
- every `verify` report says PASS and every exit code is 0.

`zpoly` outputs are recorded as printed; only their exit code is checked.
"""

from __future__ import annotations

import json
import platform
import sys

import sympy

import checks
import harness
import workloads


def klein_series(a: int, b: int, h: int, nterms: int) -> list[int]:
    """Coefficients of (1 + t^h) / ((1 - t^a)(1 - t^b)) up to t^(nterms-1)."""
    base = [0] * nterms
    for i in range(0, nterms, a):
        for j in range(i, nterms, b):
            base[j] += 1
    return [base[n] + (base[n - h] if n >= h else 0) for n in range(nterms)]


def _sympy_charpoly(cli, caches, argv: list[str]) -> sympy.Expr:
    outcome = harness.invoke(cli, argv + ["--format", "json"], caches)
    matrix = json.loads(outcome.stdout)["matrix"]
    return sympy.Matrix(matrix).charpoly(sympy.Symbol("L")).as_expr()


def _printed_poly(stdout: str, label: str) -> sympy.Expr:
    for line in stdout.splitlines():
        name, _, text = line.partition("=")
        if name.strip() == label:
            return sympy.sympify(text.replace("^", "**"), locals={"L": sympy.Symbol("L")})
    raise ValueError(f"no {label} line")


def validate(cli, caches, outcome: harness.Outcome) -> list[str]:
    argv = list(outcome.argv)
    name = workloads.key(argv)
    bad = []
    if outcome.exit_code != 0:
        bad.append(f"{name}: exit code {outcome.exit_code}")
    if argv[0] == "verify" and not checks.verify_passed(outcome.stdout):
        bad.append(f"{name}: a report does not PASS")
    if argv[0] == "charpoly":
        diagram = argv[1]
        for label, extra in (("chi", []), ("chi_affine", ["--extended"])):
            expected = _sympy_charpoly(cli, caches, ["coxeter", diagram] + extra)
            if sympy.expand(_printed_poly(outcome.stdout, label) - expected) != 0:
                bad.append(f"{name}: {label} differs from sympy")
    if argv[0] in ("poincare", "molien"):
        coeffs = checks.coefficients(outcome.stdout)
        nterms = int(argv[-1])
        target = argv[1]
        if target in ("E8", "binary_icosahedral"):
            expected = klein_series(12, 20, 30, nterms)
        else:
            n = int(target.partition(":")[2])
            expected = klein_series(4, 2 * n, 2 * n + 2, nterms)
        if coeffs != expected:
            bad.append(f"{name}: coefficients differ from Klein's closed form")
    return bad


def main() -> int:
    modules = harness.load_package()
    import dynkinlab.cli as cli

    caches = harness.discover_caches(modules)
    outputs, outcomes, bad = {}, [], []
    for argv in workloads.every_invocation():
        outcome = harness.invoke(cli, argv, caches)
        outcomes.append(outcome)
        bad += validate(cli, caches, outcome)
        outputs[workloads.key(argv)] = {
            "exit": outcome.exit_code,
            "sha256": checks.digest(outcome.stdout),
            "bytes": len(outcome.stdout.encode()),
        }
        print(f"{outcome.seconds:8.3f} s  {workloads.key(argv)}", flush=True)
    bad += checks.cross_route_problems(outcomes)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    checks.REFS_PATH.write_text(json.dumps({
        "made_with": {"python": platform.python_version(), "sympy": sympy.__version__},
        "outputs": outputs,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} references to {checks.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
