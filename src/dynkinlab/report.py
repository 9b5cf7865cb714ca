"""Verification reports: named lists of pass/fail checks."""

from __future__ import annotations

from typing import NamedTuple


class Report(NamedTuple):
    name: str
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def lines(self) -> list[str]:
        out = [f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"]
        out += [f"  {'PASS' if ok else 'FAIL'}  {label}" for label, ok in self.checks]
        return out

    def render(self) -> str:
        return "\n".join(self.lines())
