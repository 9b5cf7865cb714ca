"""Layer spans recorded from outside the program.

The layers are the package's modules.  A layer's boundary is its public
module-level functions, plus `IntMatrix.__matmul__` and the private Molien
sums, which `crosscheck` calls without going through `molien_coeffs`.
Private helpers are timed inside their caller, so `exact.gcd` includes its
pseudo-remainders and `exact.det` its cofactor expansion.

Each wrapper is re-bound in every module that imported the name
(`kostant.charpoly`, `cli.generating_function`, the package's re-exports),
otherwise those calls would go untraced.  Spans are kept in memory as
(name, start, end, parent) and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("exact", "diagram", "coxeter", "kostant", "orbit", "mckay", "molien", "cli")

# span names of the functions that the per-layer metrics name differently
_RENAME = {
    "exact.poly_gcd": "exact.gcd",
    "exact.series_expand": "exact.series",
    "exact.det_poly": "exact.det",
    "exact.nullspace_primitive": "exact.nullspace",
    "molien._molien_sums": "molien.sums",
}
_PRIVATE_ENTRIES = {"_molien_sums"}

# (name, unit) of every per-layer metric; the suffix says how it is measured:
# calls, self_s (span minus children; a bare layer sums its spans), total_s
# (outermost spans only, so recursion counts once) or a named work counter
PER_LAYER = (
    ("exact.gcd.calls", "count"),
    ("exact.gcd.self_s", "s"),
    ("exact.gcd.trivial_ratio", "ratio"),
    ("exact.series.calls", "count"),
    ("exact.series.self_s", "s"),
    ("exact.series.terms", "count"),
    ("exact.det.calls", "count"),
    ("exact.det.self_s", "s"),
    ("exact.det.n3", "count"),
    ("exact.matmul.calls", "count"),
    ("exact.matmul.n3", "count"),
    ("exact.charpoly.calls", "count"),
    ("exact.charpoly.self_s", "s"),
    ("exact.nullspace.self_s", "s"),
    ("coxeter.self_s", "s"),
    ("coxeter.coxeter_number.calls", "count"),
    ("coxeter.coxeter_number.total_s", "s"),
    ("kostant.generating_function.calls", "count"),
    ("kostant.generating_function.total_s", "s"),
    ("kostant.multiplicities.total_s", "s"),
    ("kostant.self_s", "s"),
    ("orbit.self_s", "s"),
    ("orbit.tau_orbit.steps", "count"),
    ("mckay.self_s", "s"),
    ("molien.enumerate_group.self_s", "s"),
    ("molien.enumerate_group.elements", "count"),
    ("molien.sums.self_s", "s"),
    ("molien.sums.terms", "count"),
    ("diagram.build.calls", "count"),
    ("diagram.build.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_gcd(c, args, kwargs, result, miss):
    c["exact.gcd.trivial"] += result.degree <= 0


def _count_series(c, args, kwargs, result, miss):
    c["exact.series.terms"] += _arg(args, kwargs, 1, "nterms")


def _count_det(c, args, kwargs, result, miss):
    c["exact.det.n3"] += args[0].size ** 3


def _count_matmul(c, args, kwargs, result, miss):
    if result is NotImplemented:
        return
    a, b = args
    c["exact.matmul.n3"] += a.nrows * a.ncols * b.ncols


def _count_tau_orbit(c, args, kwargs, result, miss):
    if miss:  # a cache hit walks no step
        c["orbit.tau_orbit.steps"] += len(result)


def _count_enumerate(c, args, kwargs, result, miss):
    c["molien.enumerate_group.elements"] += result.order


def _count_sums(c, args, kwargs, result, miss):
    # one recurrence step per element and coefficient, degrees 0..nterms
    c["molien.sums.terms"] += args[0].order * (_arg(args, kwargs, 1, "nterms") + 1)


_COUNTERS = {
    "exact.gcd": _count_gcd,
    "exact.series": _count_series,
    "exact.det": _count_det,
    "exact.matmul": _count_matmul,
    "orbit.tau_orbit": _count_tau_orbit,
    "molien.enumerate_group": _count_enumerate,
    "molien.sums": _count_sums,
}


def _is_boundary(mod, attr: str, obj) -> bool:
    traceable = inspect.isfunction(obj) or callable(getattr(obj, "cache_clear", None))
    return (traceable and getattr(obj, "__module__", None) == mod.__name__
            and (not attr.startswith("_") or attr in _PRIVATE_ENTRIES))


class Tracer:
    """Wraps the layer boundaries and records one span per call."""

    def __init__(self):
        # span: [name, start, end, parent index, seconds in children, outermost]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        cache_info = getattr(fn, "cache_info", None)
        stack, opened = self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, opened[name] == 0]
            stack.append(len(spans))
            spans.append(rec)
            opened[name] += 1
            misses = cache_info().misses if cache_info else 0
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = rec[2] = clock()
                stack.pop()
                opened[name] -= 1
                if parent >= 0:
                    spans[parent][4] += end - rec[1]
            if count:
                miss = cache_info is not None and cache_info().misses > misses
                count(self.counts, args, kwargs, result, miss)
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap every layer boundary and re-bind it wherever it was imported."""
        by_name = {m.__name__: m for m in modules}
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = by_name[f"dynkinlab.{layer}"]
            for attr, obj in vars(mod).items():
                if _is_boundary(mod, attr, obj):
                    name = _RENAME.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    wrapped[id(obj)] = (obj, self._wrap(name, obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))
        matrix = by_name["dynkinlab.exact"].IntMatrix
        original = matrix.__dict__["__matmul__"]
        matrix.__matmul__ = self._wrap("exact.matmul", original)
        self._patches.append((matrix, "__matmul__", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _aggregate(self):
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, _, children, outermost in self.spans:
            self_s[name] += end - start - children
            calls[name] += 1
            if outermost:
                total_s[name] += end - start
        return self_s, total_s, calls

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric of the spans recorded since `reset`,
        except `trace.overhead_s`, which needs an untraced pass."""
        self_s, total_s, calls = self._aggregate()
        for layer in LAYERS:
            self_s[layer] = sum(v for k, v in list(self_s.items()) if k.startswith(layer + "."))
        out: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            span, _, field = metric.rpartition(".")
            if span == "trace":
                continue
            if field == "calls":
                out[metric] = calls[span]
            elif field == "self_s":
                out[metric] = self_s[span]
            elif field == "total_s":
                out[metric] = total_s[span]
            elif field == "trivial_ratio":
                out[metric] = self.counts[f"{span}.trivial"] / calls[span] if calls[span] else 0.0
            else:
                out[metric] = self.counts[metric]
        return out

    def self_times(self) -> dict[str, float]:
        """Self time of each span name since `reset`."""
        return dict(self._aggregate()[0])

    def write(self, path: Path, header: dict) -> None:
        """Write the header and then one span per line, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, _, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
