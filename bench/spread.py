"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads catalog ...] [--trace 1]
                            [--out bench/results/name.json]

For every workload and end-to-end metric this prints the median over the
seeds, the quartiles (`statistics.quantiles(values, n=4)`), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json.  Spreads
must stay below the bound, except that of setup_s; a steady benchmark keeps
them below a third of it.  With `--trace 1` it summarises the per-layer
metrics the same way, without bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return dict(result, meta=record["meta"], detail=record["detail"])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    for workload in args.workloads:
        runs = [one_run(workload, s, args.seconds, args.trace) for s in args.seeds]
        names = list(runs[0]["metrics"])
        summary[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {n: dict(summarise([r["metrics"][n]["value"] for r in runs]),
                            unit=runs[0]["metrics"][n]["unit"]) for n in names},
            "meta": {k: runs[0]["meta"][k] for k in ("git_sha", "python", "nproc", "src_lines")},
            "runs": [{"seed": s, **r["detail"]} for s, r in zip(args.seeds, runs)],
        }
        print(f"{workload}: correct {summary[workload]['correct']}, "
              f"failed {summary[workload]['failed']}/{summary[workload]['attempted']}")
        for n, s in summary[workload]["metrics"].items():
            bound = bounds.get(n)
            spread = "   n/a" if s["spread"] is None else f"{s['spread']:6.3f}"
            limit = f"bound {bound:.2f} (third {bound / 3:.3f})" if bound else ""
            print(f"  {n:38s} median {s['median']:14.6f} {s['unit']:6s} spread {spread} {limit}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
