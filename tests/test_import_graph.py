"""The package's import graph, pinned: each module's imports from the
package, in function bodies too, must equal its row of GRAPH, so a new
edge is a deliberate edit of this table.

The sides of the paper's identities are `coxeter` (C and chi), `kostant`
(the Cramer solve and its series), `orbit` (the walk from beta =
delta[1:], the highest root on A/D/E only) and `molien` (the group and its
sums).  No side reads another's answer: every comparison of two sides is
in `mckay`, with the `Report` type it fills.

Two finer rules keep each decision in one module.  Every definition is
read somewhere in the package or exported, so no surface is kept for
tests alone.  No module imports another's private name, except from
`exact`, whose packed-slot helpers are the kernel's; the slot bias
`exact._bias` stays inside `exact` even so.

A third rule keeps the per-process caches safe to share: every
`lru_cache` function states its return type, and that type names no
mutable container, so no caller can edit what the next one is handed.

A fourth rule keeps every check in `mckay` able to fail: no check tuple
there, a label and its verdict, holds a literal bool as the verdict.

A fifth keeps every memo one that a caller can clear: no function stores
into a module-level container, so each memo is an `lru_cache`, and the
benchmark's `cache_clear` before each invocation starts it cold.

A sixth keeps the width rule in one place: in `mckay`, only
`_semi_relation`, which packs one polynomial per vertex for McKay's
relation, and the matrix identities of z-recurrence size a packed width by
`_width`; a check that compares cross-multiplied fractions calls
`exact._agree`, which sizes its own.
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


def _is_literal(node: ast.AST, kind: type) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, kind)


def _literal_verdicts(tree: ast.Module) -> list[int]:
    """The line of every check tuple, a 2-tuple whose first element is a str
    or an f-string label, whose verdict is the literal True or False."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Tuple) and len(node.elts) == 2
                  and (isinstance(node.elts[0], ast.JoinedStr) or _is_literal(node.elts[0], str))
                  and _is_literal(node.elts[1], bool))


def test_no_check_in_mckay_has_a_constant_verdict():
    assert _literal_verdicts(_trees()["mckay"]) == []
    sample = ast.parse(
        'Report(name, ((f"series expansion: {exc}", False),))\n'
        '("series coefficients are nonnegative integers", True)\n'
        'zip(folded_pair(did), (True, False))\n'
        '("B v_0 = v_1", holds[0])\n'
        '(f"group order is {bid.order}", group.order == bid.order)\n'
    )
    assert _literal_verdicts(sample) == [1, 2]


# the calls that change a container in place, by method name
IN_PLACE = {"setdefault", "append", "add", "update"}


def _global_stores(trees: dict[str, ast.Module]) -> list[str]:
    """`module.function:line` for every store into a module-level container
    from inside a function: a subscript assignment or an in-place call
    (IN_PLACE) on a name bound at module level that the function does not
    bind itself, or binds after a `global` statement.  A function here is a
    module-level function or a class-body method, with the functions
    nested in it."""
    found = []
    for module, tree in trees.items():
        bound = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 for t in ast.walk(target) if isinstance(t, ast.Name)}
        outer = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        outer += [item for node in tree.body if isinstance(node, ast.ClassDef)
                  for item in node.body if isinstance(item, ast.FunctionDef)]
        for func in outer:
            nodes = list(ast.walk(func))
            declared = {name for n in nodes if isinstance(n, ast.Global) for name in n.names}
            local = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            local |= {a.arg for n in nodes if isinstance(n, ast.arguments)
                      for a in (*n.posonlyargs, *n.args, *n.kwonlyargs, n.vararg, n.kwarg) if a}
            shared = bound - (local - declared)
            for n in nodes:
                target = (n.value if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store) else
                          n.func.value if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                          and n.func.attr in IN_PLACE else None)
                if isinstance(target, ast.Name) and target.id in shared:
                    found.append(f"{module}.{func.name}:{n.lineno}")
    return sorted(found)


def test_no_function_stores_into_a_module_level_container():
    """Every memo is an `lru_cache`, which the benchmark clears before each
    invocation; a module-level dict or list filled by a function would carry
    work from one invocation into the next."""
    assert _global_stores(_trees()) == []
    sample = ast.parse(
        "CACHE, SEEN = {}, []\n"
        "TABLE: dict = {}\n"
        "def memo(n):\n    CACHE[n] = n * n\n"
        "def log(x):\n    SEEN.append(x)\n"
        "def local(n):\n    CACHE = {}\n    CACHE[n] = 1\n    rows = []\n    rows.append(n)\n"
        "class K:\n    def m(self):\n        TABLE.setdefault(1, 2)\n"
        "def g():\n    global TABLE\n    TABLE = {}\n    TABLE.update(a=1)\n"
        "def h(SEEN):\n    SEEN.add(1)\n"
        "def nested():\n    def inner():\n        CACHE[1] += 1\n    return inner\n"
    )
    assert _global_stores({"m": sample}) == ["m.g:18", "m.log:6", "m.m:14", "m.memo:4", "m.nested:23"]


def _width_callers(tree: ast.Module) -> list[str]:
    """Every module-level function that calls `_width`, by name or as an
    attribute, in its body or in a function nested in it."""
    return sorted(func.name for func in tree.body if isinstance(func, ast.FunctionDef)
                  and any(isinstance(n, ast.Call) and "_width" in _named(n.func) for n in ast.walk(func)))


def test_only_the_matrix_identities_size_a_width_in_mckay():
    assert _width_callers(_trees()["mckay"]) == ["_semi_relation", "verify_z_recurrence"]
    sample = ast.parse(
        "def closed(p):\n    return _width(p)\n"
        "def kernel(p):\n    return exact._width(p)\n"
        "def outer(p):\n    def inner():\n        return _width(p)\n    return inner\n"
        "def agreed(p):\n    return _agree(p)\n"
        "def named(p):\n    width = _width\n    return width\n"
    )
    assert _width_callers(sample) == ["closed", "kernel", "outer"]


# what a function must not read for chi to come from C alone
NOT_C = {"cartan", "bonds", "bicolored_reflections"}


def _reads_besides_c(tree: ast.Module, name: str) -> list[str]:
    """The names in NOT_C that the module-level function `name` mentions,
    as a name or an attribute, in its body or in a function nested in it."""
    func = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)
    return sorted(_named(func) & NOT_C)


def test_coxeter_charpoly_reads_c_alone():
    """chi's one input is C, through `coxeter_transform`: neither the Cartan
    matrix, the bonds nor the pair, so it cannot agree with another side
    by reading that side's data."""
    assert _reads_besides_c(_trees()["coxeter"], "coxeter_charpoly") == []
    sample = ast.parse(
        "def cartan_side(d):\n    return d.cartan\n"
        "def pair_side(d):\n    return bicolored_reflections(d).w1\n"
        "def nested(d):\n    def inner():\n        return d.bonds\n    return inner\n"
        "def c_side(d):\n    return coxeter_transform(d).rows\n"
    )
    assert [_reads_besides_c(sample, name) for name in ("cartan_side", "pair_side", "nested", "c_side")] == [
        ["cartan"], ["bicolored_reflections"], ["bonds"], []]
