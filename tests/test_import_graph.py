"""The package's import graph, pinned: each module's imports from the
package, in function bodies too, must equal its row of GRAPH, so a new
edge is a deliberate edit of this table.

The sides of the paper's identities are `coxeter` (C and chi), `kostant`
(the Cramer solve and its series), `orbit` (the highest-root walk) and
`molien` (the group and its sums).  No side reads another's answer: every
comparison of two sides is in `mckay`, and only `mckay` and the two front
ends, `cli` and the package, import `report`.
"""

import ast
from pathlib import Path

import dynkinlab

PACKAGE = Path(dynkinlab.__file__).parent

GRAPH = {
    "__init__": {"coxeter", "diagram", "exact", "kostant", "mckay", "molien", "orbit", "report"},
    "__main__": {"cli"},
    "cli": {"coxeter", "diagram", "errors", "exact", "kostant", "mckay", "molien", "orbit", "report"},
    "coxeter": {"diagram", "errors", "exact"},
    "diagram": {"errors", "exact"},
    "errors": set(),
    "exact": {"errors"},
    "kostant": {"diagram", "errors", "exact"},
    "mckay": {"coxeter", "diagram", "errors", "exact", "kostant", "molien", "orbit", "report"},
    "molien": {"diagram", "errors"},
    # the walk steps by C's two factors w1 and w2 and stops at h, the order
    # of C; no check compares the orbit side with chi
    "orbit": {"coxeter", "diagram", "errors", "exact"},
    "report": set(),
}


def _package_imports(path: Path) -> set[str]:
    """The package modules that the module at path imports, anywhere in it."""
    dotted = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            base = f"dynkinlab.{module}".rstrip(".") if node.level else module
            # `from . import x` and `from dynkinlab import x` name the module x
            dotted += [f"{base}.{alias.name}" for alias in node.names] if base == "dynkinlab" else [base]
    parts = [name.split(".") for name in dotted]
    return {p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "dynkinlab"}


def test_import_graph_is_the_table():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    assert set(modules) == set(GRAPH)
    assert {name: _package_imports(path) for name, path in modules.items()} == GRAPH
