"""Re-measure the baseline table of ROADMAP.md with the benchmark's harness.

    python3 bench/baseline_table.py [--repeats 5] [--out bench/results/roadmap_table.json]

Each row is timed `--repeats` times with every package cache cleared first,
and reported as the median in reference seconds, as `wall_s` is (see
README.md), next to the single wall-clock figure the ROADMAP recorded.  The
first row runs `python -m dynkinlab verify all` as a fresh `sys.executable`
process, as the ROADMAP did; the others call the layer function in process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness


def _rows(dl):
    from dynkinlab.molien import BpgId

    def ext(text):
        return dl.build(dl.DiagramId.parse(text), extended=True)

    def fin(text):
        return dl.build(dl.DiagramId.parse(text))

    def verify_all():
        env = dict(os.environ, PYTHONPATH=str(harness.SRC))
        subprocess.run([sys.executable, "-m", "dynkinlab", "verify", "all"], env=env,
                       cwd=harness.ROOT, check=True, stdout=subprocess.DEVNULL)

    icosahedral = dl.enumerate_group(BpgId("binary_icosahedral"))
    return [
        ("python -m dynkinlab verify all", 1.75, verify_all),
        ("generating_function extended D8", 0.02, lambda: dl.generating_function(ext("D8"))),
        ("generating_function extended D16", 0.28, lambda: dl.generating_function(ext("D16"))),
        ("generating_function extended D24", 1.07, lambda: dl.generating_function(ext("D24"))),
        ("coxeter_number D40", 0.41, lambda: dl.coxeter_number(fin("D40"))),
        ("coxeter_number D80", 6.0, lambda: dl.coxeter_number(fin("D80"))),
        ("charpoly(coxeter_transform) D40", 0.17,
         lambda: dl.exact.charpoly(dl.coxeter_transform(fin("D40")))),
        ("charpoly(coxeter_transform) D80", 2.3,
         lambda: dl.exact.charpoly(dl.coxeter_transform(fin("D80")))),
        ("multiplicities extended E8, 1000 terms", 0.35, lambda: dl.multiplicities(ext("E8"), 1000)),
        ("multiplicities extended E8, 3000 terms", 1.28, lambda: dl.multiplicities(ext("E8"), 3000)),
        ("assembling_vectors D40", 0.58, lambda: dl.assembling_vectors(fin("D40"))),
        ("enumerate_group binary_dihedral:200", 0.86,
         lambda: dl.enumerate_group(BpgId("binary_dihedral", 200))),
        ("molien_coeffs binary_icosahedral, 3000 terms", 0.06,
         lambda: dl.molien_coeffs(icosahedral, 3000)),
    ]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    modules = harness.load_package()
    caches = harness.discover_caches(modules)
    import dynkinlab as dl

    table = []
    for what, roadmap_s, fn in _rows(dl):
        raw, scaled = [], []
        for _ in range(args.repeats):
            harness.reset_caches(caches)
            before = harness.probe()
            t0 = time.perf_counter()
            fn()
            raw.append(time.perf_counter() - t0)
            scaled.append(raw[-1] * harness.scale(before, harness.probe()))
        median = statistics.median(scaled)
        table.append({"what": what, "roadmap_s": roadmap_s, "reference_s": median,
                      "samples_s": raw, "ratio": median / roadmap_s})
        print(f"{what:46s} roadmap {roadmap_s:6.2f} s  now {median:7.3f} s  "
              f"ratio {median / roadmap_s:5.2f}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
