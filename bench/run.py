"""dynkinlab benchmark: time to a verdict, timed from outside the program.

    python3 bench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Runs whole passes over the workload's CLI invocations in process, with every
cache of the package cleared before each invocation, until the next pass
would overrun `--seconds` (at least MIN_PASSES passes, or MIN_PAIRS pairs
when traced).  Each invocation's exit code and stdout are checked against
`refs.json`.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates an
untraced and a traced pass and reports the per-layer metrics.  The last
line of stdout is the result as one JSON object; the run is also written,
with its metadata, to `bench/out/`.  Exit code 2 means the benchmark could
not run at all, e.g. because the checkout has no `src/dynkinlab`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import harness
import spans
import workloads

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("correct_ratio", "ratio"),
)
MIN_PASSES = 3
MIN_PAIRS = 1
SETUP_PER_PASS = 2
OUT_DIR = Path(__file__).resolve().parent / "out"
NO_WAIT = ("wait time: none measured; nothing in the program waits on another "
           "thread, a queue or I/O")


class Gate:
    """Counts attempted and failed invocations and keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, outcomes, refs, flagged: dict[int, str] | None = None) -> None:
        """Check one pass; `flagged` adds problems found by the caller."""
        flagged = flagged or {}
        self.attempted += len(outcomes)
        found = [checks.problems(o, refs) for o in outcomes]
        route = checks.cross_route_problems(outcomes)
        bad = {i for i, f in enumerate(found) if f} | set(flagged)
        if route:  # the Molien side is the one that disagrees with the reference
            bad |= {i for i, o in enumerate(outcomes) if o.argv[0] == "molien"}
        self.failed += len(bad)
        self.problems += [p for f in found for p in f] + route + list(flagged.values())
        del self.problems[20:]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


@dataclass(frozen=True)
class Pass:
    """One pass over the invocations, with the machine's speed around each.

    `scales[i]` is PROBE_REF_S over the mean of the probes run just before
    and just after invocation i: it turns the measured seconds into
    reference seconds, the time on the machine with nothing else loading it.
    """

    outcomes: list[harness.Outcome]
    scales: list[float]

    @property
    def raw_s(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def scale(self) -> float:
        return statistics.median(self.scales)


def run_pass(cli, argvs, caches) -> Pass:
    outcomes, scales = [], []
    before = harness.probe()
    for argv in argvs:
        outcomes.append(harness.invoke(cli, argv, caches))
        after = harness.probe()
        scales.append(harness.scale(before, after))
        before = after
    return Pass(outcomes, scales)


def reference_seconds(passes: list[Pass]) -> float:
    """Each invocation's median time in reference seconds, summed over a pass.

    Other tenants of the machine slowed the same pass by up to 1.9x, for
    seconds to minutes at a time.  The probe slows with the program, so
    their ratio holds where the seconds themselves do not.
    """
    return sum(
        statistics.median(p.outcomes[i].seconds * p.scales[i] for p in passes)
        for i in range(len(passes[0].outcomes))
    )


def scaled_setup_sample() -> float:
    """setup_s of one fresh process, in reference seconds."""
    before = harness.probe()
    seconds = harness.setup_sample()
    return seconds * harness.scale(before, harness.probe())


def rounds(seconds: float, minimum: int, body) -> int:
    """Call `body` until another call would likely end past `seconds`."""
    t0 = time.perf_counter()
    took: list[float] = []
    while True:
        start = time.perf_counter()
        body()
        took.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - t0
        if len(took) >= minimum and elapsed + statistics.median(took) > seconds:
            return len(took)


def metadata(args, caches) -> dict:
    sha = None
    if (harness.ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT,
                             capture_output=True, text=True, timeout=30)
        sha = git.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(harness.PACKAGE_DIR.rglob("*.py"))),
        "caches": list(caches),
        "loop": "closed, one process, one thread",
    }


def _timings(passes: list[Pass]) -> dict:
    return {"pass_s": [p.raw_s for p in passes], "scale": [p.scale for p in passes]}


def end_to_end(args, cli, argvs, caches, refs, gate) -> tuple[dict, dict]:
    passes: list[Pass] = []
    setups: list[float] = []

    def one():
        done = run_pass(cli, argvs, caches)
        passes.append(done)
        gate.record(done.outcomes, refs)
        # spread over the run, so that one slow stretch cannot hold them all
        setups.extend(scaled_setup_sample() for _ in range(SETUP_PER_PASS))

    rounds(args.seconds, MIN_PASSES, one)
    metrics = {
        "wall_s": reference_seconds(passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "correct_ratio": (gate.attempted - gate.failed) / gate.attempted,
    }
    return metrics, dict(_timings(passes), setup_samples_s=setups)


def per_layer(args, cli, argvs, caches, refs, gate, modules) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    samples: list[dict] = []
    self_times: list[dict] = []
    plain_passes: list[Pass] = []
    traced_passes: list[Pass] = []

    def pair():
        plain = run_pass(cli, argvs, caches)
        tracer.reset()
        tracer.install(modules)
        try:
            traced = run_pass(cli, argvs, caches)
        finally:
            tracer.uninstall()
        differ = {i: f"{workloads.key(list(p.argv))}: traced stdout differs from untraced"
                  for i, (p, t) in enumerate(zip(plain.outcomes, traced.outcomes))
                  if (p.exit_code, p.stdout) != (t.exit_code, t.stdout)}
        gate.record(plain.outcomes, refs)
        gate.record(traced.outcomes, refs, differ)
        units = dict(spans.PER_LAYER)
        samples.append({n: v * traced.scale if units[n] == "s" else v
                        for n, v in tracer.layer_metrics().items()})
        self_times.append({n: v * traced.scale for n, v in tracer.self_times().items()})
        plain_passes.append(plain)
        traced_passes.append(traced)

    rounds(args.seconds, MIN_PAIRS, pair)
    # counts repeat exactly from pass to pass; times vary
    metrics = {name: statistics.median(s[name] for s in samples) if unit == "s" else samples[-1][name]
               for name, unit in spans.PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = reference_seconds(traced_passes) - reference_seconds(plain_passes)
    span_names = {n for times in self_times for n in times}
    median_self = {n: statistics.median(t.get(n, 0.0) for t in self_times) for n in span_names}
    top = sorted(median_self.items(), key=lambda kv: -kv[1])[:3]
    tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl",
                 {"workload": args.workload, "seed": args.seed})
    return metrics, dict(_timings(plain_passes),
                         traced=_timings(traced_passes),
                         top_self_s=[[name, s] for name, s in top])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        modules = harness.load_package()
        refs = checks.load_refs()
    except (harness.BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import dynkinlab.cli as cli

    caches = harness.discover_caches(modules)
    argvs = workloads.invocations(args.workload, args.seed)
    gate = Gate()
    meta = metadata(args, caches)
    try:
        if args.trace:
            metrics, detail = per_layer(args, cli, argvs, caches, refs, gate, modules)
            units = dict(spans.PER_LAYER)
        else:
            metrics, detail = end_to_end(args, cli, argvs, caches, refs, gate)
            units = dict(END_TO_END)
    except harness.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    print(f"# {args.workload} seed {args.seed}: {len(argvs)} invocations per pass")
    print(f"# meta {json.dumps(meta)}")
    for name, value in metrics.items():
        shown = f"{value:14.6f}" if isinstance(value, float) else f"{value:14d}"
        print(f"# {name:38s} {shown} {units[name]}")
    times, scales = detail["pass_s"], detail["scale"]
    print(f"# {len(times)} untraced passes, wall clock: median {statistics.median(times):.4f} s,"
          f" min {min(times):.4f} s, max {max(times):.4f} s; reference seconds per second:"
          f" median {statistics.median(scales):.3f}")
    print(f"# fail_ratio {gate.failed}/{gate.attempted}")
    if args.trace:
        tops = ", ".join(f"{n} {s:.3f} s" for n, s in detail["top_self_s"])
        print(f"# top layers by self time: {tops}")
    print(f"# {NO_WAIT}")
    for problem in gate.problems:
        print(f"# problem: {problem}")

    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = dict(result, meta=meta, detail=detail, problems=gate.problems,
                  invocations=[workloads.key(a) for a in argvs])
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
