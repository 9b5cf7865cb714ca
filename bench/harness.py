"""Loading the package from the checkout, cache discipline and invocation.

The benchmark imports `dynkinlab` from `src/` of the checkout it sits in,
never from an installed copy, and drives `dynkinlab.cli.main(argv)` in
process with stdout captured.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import pkgutil
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "dynkinlab"


# probe() on a 2-core VM (Python 3.11) when nothing else loaded the host
PROBE_REF_S = 0.0067


class BenchError(Exception):
    """The benchmark cannot run: missing sources or a broken invariant."""


def load_package() -> list[types.ModuleType]:
    """Import dynkinlab from the checkout and every module it contains."""
    if not (PACKAGE_DIR / "cli.py").is_file():
        raise BenchError(f"no dynkinlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("dynkinlab")
    if Path(pkg.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise BenchError(f"dynkinlab was imported from {pkg.__file__}, not from {SRC}")
    modules = [pkg]
    for info in pkgutil.walk_packages(pkg.__path__, "dynkinlab."):
        modules.append(importlib.import_module(info.name))
    return modules


def discover_caches(modules: list[types.ModuleType]) -> dict[str, object]:
    """Every object with `cache_clear` that the package defines, by name:
    module globals and class attributes alike, so a cache added later is
    found without editing the benchmark."""
    found: dict[int, tuple[str, object]] = {}
    for mod in modules:
        candidates = [(f"{mod.__name__}.{k}", v) for k, v in vars(mod).items()]
        for cname, cls in vars(mod).items():
            if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                candidates += [(f"{mod.__name__}.{cname}.{k}", getattr(v, "__func__", v))
                               for k, v in vars(cls).items()]
        for name, obj in candidates:
            owner = getattr(obj, "__module__", None) or type(obj).__module__
            if (not inspect.isclass(obj) and callable(getattr(obj, "cache_clear", None))
                    and owner.startswith("dynkinlab")):
                if hasattr(obj, "__qualname__"):  # name it where it is defined
                    name = f"{owner}.{obj.__qualname__}"
                found.setdefault(id(obj), (name, obj))
    return dict(sorted(found.values(), key=lambda item: item[0]))


def reset_caches(caches: dict[str, object]) -> None:
    """Clear every cache, as a fresh CLI process would start; raise if any
    cache still holds an entry afterwards."""
    for c in caches.values():
        c.cache_clear()
    full = [name for name, c in caches.items()
            if hasattr(c, "cache_info") and c.cache_info().currsize]
    if full:
        raise BenchError(f"caches not empty at invocation start: {', '.join(full)}")


@dataclass(frozen=True)
class Outcome:
    argv: tuple[str, ...]
    exit_code: int | None  # None when main raised
    stdout: str
    stderr: str
    seconds: float


def invoke(cli, argv: list[str], caches: dict[str, object]) -> Outcome:
    """Run `cli.main(argv)` once with fresh caches, capturing both streams.

    `main` is looked up on the module at each call, so a traced run sees
    the wrapper installed in its place."""
    reset_caches(caches)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a leaked exception is a failed invocation
            code = None
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    seconds = time.perf_counter() - t0
    return Outcome(tuple(argv), code, out.getvalue(), err.getvalue(), seconds)


_SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import dynkinlab.cli as cli\n"
    "cli._build_parser()\n"
    "sys.stdout.write(cli.__file__ + '\\n')\n"
    "sys.stdout.flush()\n"
)


def setup_sample() -> float:
    """Seconds from spawning `sys.executable` until `dynkinlab.cli` is
    imported and its parser is built, in one fresh process.

    `-I` keeps PYTHONPATH and the user site out of the child, so it imports
    the checkout's sources the same way every time.
    """
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, text=True,
    ) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        _, err = proc.communicate()
    if proc.returncode != 0 or Path(line.strip()).resolve().parent != PACKAGE_DIR.resolve():
        raise BenchError(f"set-up child failed ({proc.returncode}): {err.strip() or line}")
    return seconds


def scale(before: float, after: float) -> float:
    """Reference seconds per measured second, from the probes around a timing."""
    return 2 * PROBE_REF_S / (before + after)


def probe() -> float:
    """Seconds for a fixed piece of pure-Python work of the program's kind:
    Fractions with growing big-int denominators, tuples and a dict."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for k in range(1, 2000):
        acc += Fraction(k, k + 1)
        table[k] = tuple(range(k % 7))
    return time.perf_counter() - t0
