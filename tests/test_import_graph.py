"""The package's import graph, pinned: each module's imports from the
package, in function bodies too, must equal its row of GRAPH, so a new
edge is a deliberate edit of this table.

The sides of the paper's identities are `coxeter` (C and chi), `kostant`
(the Cramer solve and its series), `orbit` (the highest-root walk) and
`molien` (the group and its sums).  No side reads another's answer: every
comparison of two sides is in `mckay`, with the `Report` type it fills.

Two finer rules keep each decision in one module.  Every definition is
read somewhere in the package or exported, so no surface is kept for
tests alone.  No module imports another's private name, except from
`exact`, whose packed-slot helpers are the kernel's; the slot bias
`exact._bias` stays inside `exact` even so.

A third rule keeps the per-process caches safe to share: every
`lru_cache` function states its return type, and that type names no
mutable container, so no caller can edit what the next one is handed.
"""

import ast
from pathlib import Path

import dynkinlab

PACKAGE = Path(dynkinlab.__file__).parent

GRAPH = {
    "__init__": {"coxeter", "diagram", "exact", "kostant", "mckay", "molien", "orbit"},
    "__main__": {"cli"},
    "cli": {"coxeter", "diagram", "errors", "exact", "kostant", "mckay", "molien", "orbit"},
    "coxeter": {"diagram", "errors", "exact"},
    "diagram": {"errors", "exact"},
    "errors": set(),
    "exact": {"errors"},
    "kostant": {"diagram", "errors", "exact"},
    "mckay": {"coxeter", "diagram", "errors", "exact", "kostant", "molien", "orbit"},
    "molien": {"diagram", "errors"},
    # the walk steps by C's two factors w1 and w2 and stops at h, the order
    # of C; no check compares the orbit side with chi
    "orbit": {"coxeter", "diagram", "errors", "exact"},
}

# argparse calls the parser's error hook; nothing in the package names it
UNREAD_BY_DESIGN = {"cli._Parser.error"}

# (importer, module, private name): the Molien sums with their float
# deviation, read by `crosscheck` past `molien_coeffs` (ROADMAP item 2)
PRIVATE_IMPORTS = {("mckay", "molien", "_molien_sums")}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules that a module imports, anywhere in it."""
    dotted = []
    for node in ast.walk(tree):
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
    assert {name: _package_imports(tree) for name, tree in _trees().items()} == GRAPH


def _unread(trees: dict[str, ast.Module]) -> list[str]:
    """Every module-level function and class, class-body method and
    annotated field that no code in the package reads and `__all__` does
    not export.  A module-level name is read as a name or an attribute, a
    class member as an attribute only (a local variable may share its name)."""
    exported = set(ast.literal_eval(next(
        node.value for node in trees["__init__"].body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"])))
    names, attrs, defined = set(), set(), []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    member = (item.name if isinstance(item, ast.FunctionDef) else
                              item.target.id if isinstance(item, ast.AnnAssign) else None)
                    if member and not (member.startswith("__") and member.endswith("__")):
                        defined.append(f"{module}.{node.name}.{member}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    unread = []
    for qualified in defined:
        _, *owner, name = qualified.split(".")
        if not (name in attrs or (not owner and (name in names or name in exported))):
            unread.append(qualified)
    return sorted(set(unread) - UNREAD_BY_DESIGN)


def test_every_definition_is_read_or_exported():
    assert _unread(_trees()) == []


def _private_imports(trees: dict[str, ast.Module]) -> list[tuple[str, str, str]]:
    """(importer, module, name) for every underscore name imported from a
    package module other than `exact`, and for `exact._bias`."""
    found = []
    for importer, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [(importer, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")
                          and (node.module != "exact" or alias.name == "_bias")]
    return sorted(found)


def test_no_private_name_crosses_a_module_boundary():
    assert set(_private_imports(_trees())) == PRIVATE_IMPORTS


# containers whose instances a caller could edit in place
MUTABLE = {"list", "dict", "set", "bytearray"}


def _named(node: ast.AST) -> set[str]:
    """The names and attribute names an expression mentions."""
    return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}


def _cached_mutable(trees: dict[str, ast.Module]) -> list[str]:
    """Every `lru_cache` or `cache` function with no return annotation, or
    with one that names a mutable container."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                    _named(d) & {"lru_cache", "cache"} for d in node.decorator_list):
                if node.returns is None or _named(node.returns) & MUTABLE:
                    found.append(f"{module}.{node.name}")
    return sorted(found)


def test_no_cached_function_hands_out_a_mutable_value():
    assert _cached_mutable(_trees()) == []
    sample = ast.parse(
        "@lru_cache(maxsize=None)\ndef tables(n) -> tuple[dict[int, int], int]: ...\n"
        "@functools.cache\ndef bare(n): ...\n"
        "@lru_cache\ndef rows(n) -> list[int]: ...\n"
        "@lru_cache(maxsize=None)\ndef frozen(n) -> tuple[int, ...]: ...\n"
    )
    assert _cached_mutable({"m": sample}) == ["m.bare", "m.rows", "m.tables"]
