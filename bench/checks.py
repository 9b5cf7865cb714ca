"""Correctness gate: each invocation against its stored reference.

`refs.json` maps every argv a seed can produce to the exit code and the
SHA-256 of the stdout the program must print.  `make_refs.py` writes it
after validating the outputs by routes independent of the code under test.
Besides the reference, every `verify` report must PASS, and the Molien
series of the binary icosahedral group must equal component 0 of the
Cramer route on E8 wherever a pass computes both at one term count.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from harness import Outcome
from workloads import key

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

_REPORT = re.compile(r"^\[(PASS|FAIL)\] ", re.M)
_FAILED_CHECK = re.compile(r"^  FAIL  ", re.M)
_COEFFS = re.compile(r"coefficients \(t\^0\.\.t\^\d+\): (.*)$", re.M)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_refs() -> dict[str, dict]:
    return json.loads(REFS_PATH.read_text())["outputs"]


def verify_passed(stdout: str) -> bool:
    """Every report of a `verify` invocation says PASS, and there is one."""
    verdicts = _REPORT.findall(stdout)
    return bool(verdicts) and set(verdicts) == {"PASS"} and not _FAILED_CHECK.search(stdout)


def coefficients(stdout: str) -> list[int] | None:
    m = _COEFFS.search(stdout)
    return [int(c) for c in m.group(1).split(", ")] if m else None


def problems(outcome: Outcome, refs: dict[str, dict]) -> list[str]:
    """What is wrong with one invocation; empty when it is right."""
    name = key(list(outcome.argv))
    ref = refs.get(name)
    if ref is None:
        return [f"{name}: no reference stored"]
    out = []
    if outcome.exit_code != ref["exit"]:
        out.append(f"{name}: exit code {outcome.exit_code}, expected {ref['exit']}"
                   + (f" ({outcome.stderr.strip()})" if outcome.stderr else ""))
    if digest(outcome.stdout) != ref["sha256"]:
        out.append(f"{name}: stdout differs from the reference")
    if outcome.argv[0] == "verify" and not verify_passed(outcome.stdout):
        out.append(f"{name}: a verify report does not PASS")
    return out


def cross_route_problems(outcomes: list[Outcome]) -> list[str]:
    """Molien series of binary_icosahedral against component 0 of E8."""
    poincare, molien = {}, {}
    for o in outcomes:
        if o.argv[:2] == ("poincare", "E8"):
            poincare[o.argv[-1]] = coefficients(o.stdout)
        elif o.argv[:2] == ("molien", "binary_icosahedral"):
            molien[o.argv[-1]] = coefficients(o.stdout)
    return [
        f"molien binary_icosahedral differs from poincare E8 at --terms {terms}"
        for terms in poincare.keys() & molien.keys()
        if poincare[terms] is None or poincare[terms] != molien[terms]
    ]
