"""The ordfactor benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs in one process and one thread and calls the package in-process (the
`ordfactor` command's ``main`` and the library functions), built from the
``src`` tree next to this directory.  Inputs depend only on the workload
and ``--seed``.

``--trace 0`` times whole passes with tracing off and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of the traced ones, plus the tracing
overhead; its spans go to ``.bench_out/trace-<workload>.jsonl``.  Either
way the human-readable lines come first, with each workload's output
digest and failed instances, and the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

An instance fails when it raises, exits outside {0, 1, 2}, fails an output
check, or writes other bytes than it did in the first pass.  ``correct`` is
false when any output check or byte comparison fails; an exception is
counted in ``failed`` but is no wrong output.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads  # the benchmark's own modules, next to this file
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 4  # before each untraced pass
MIN_PASSES = 3  # untraced run
MIN_PAIRS = 1  # traced run: (untraced, traced) pass pairs

# Counters taken straight from the tracer, per traced pass.
TRACER_COUNTS = ("ideals.closure_calls", "ideals.family_members", "ideals.partial_families",
                 "poset.dual_calls", "galois.pairs", "reporting.bytes")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def setup_once(workload: str, seed: int) -> tuple[float, list[str]]:
    """Import the package afresh and build the workload's inputs."""
    for name in [n for n in sys.modules if n == "ordfactor" or n.startswith("ordfactor.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    start = perf_counter()
    package = importlib.import_module("ordfactor")
    importlib.import_module("ordfactor.cli")
    tokens = workloads.tokens_for(workload, seed)
    elapsed = perf_counter() - start
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported ordfactor from {package.__file__}, not from the source tree")
    return elapsed, tokens


def timed_passes(workload: str, seed: int, seconds: float, tracer: Tracer | None):
    """Untraced passes, or alternating untraced and traced ones, until the
    next would end after ``seconds``.  Each untraced pass is preceded by
    SETUP_REPS set-ups, so set-up samples spread over the whole run.

    Returns (set-up times, tokens, untraced passes, traced passes).
    """
    if not (SRC / "ordfactor" / "__init__.py").is_file():
        raise BenchError("the ordfactor source tree (src/ordfactor) is missing")
    sys.path.insert(0, str(SRC))
    kind = workloads.WORKLOADS[workload]
    setup_times, plain, traced = [], [], []
    start = perf_counter()
    pass_no = 0
    while True:
        for _ in range(SETUP_REPS):
            elapsed, tokens = setup_once(workload, seed)
            setup_times.append(elapsed)
        gc.collect()
        plain.append(workloads.run_pass(kind, tokens, pass_no=pass_no))
        pass_no += 1
        if tracer is not None:
            gc.collect()
            tracer.counts.clear()
            tracer.install()
            try:
                traced.append(workloads.run_pass(kind, tokens, tracer, pass_no))
            finally:
                tracer.uninstall()
            traced[-1].counts = dict(tracer.counts)
            pass_no += 1
        elapsed = perf_counter() - start
        done = len(traced) if tracer is not None else len(plain)
        need = MIN_PAIRS if tracer is not None else MIN_PASSES
        if done >= need and elapsed * (done + 1) / done > seconds:
            return setup_times, tokens, plain, traced


def layer_metrics(tracer: Tracer, traced: list, plain: list,
                  units: dict[str, str]) -> tuple[dict, bool]:
    """Median per-layer times and per-pass counts over the traced passes;
    the flag says whether every count repeated exactly."""
    per_pass = []
    for result in traced:
        m = tracer.pass_metrics(result.pass_no)
        for name in TRACER_COUNTS:
            m[name] = result.counts.get(name, 0)
        enum_calls = result.counts.get("ideals.enumerate_closure_calls", 0)
        members = m["ideals.family_members"]
        m["ideals.closures_per_ideal"] = enum_calls / members if members else 0.0
        errors = [o.error for o in result.outcomes if o.error is not None]
        m["instances.errors"] = len(errors)
        m["instances.errors.ValueError"] = errors.count("ValueError")
        m["trace.pass_s"] = result.wall_s
        per_pass.append(m)
    out, steady = {}, True
    for name, unit in units.items():
        if name in ("trace.overhead_frac", "instances.check_failures"):
            continue
        values = [m[name] for m in per_pass]
        if unit == "s":
            out[name] = statistics.median(values)
        else:
            steady &= len(set(values)) == 1
            out[name] = values[0]
    out["trace.overhead_frac"] = (
        statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in plain) - 1
    )
    return out, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    kind = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    try:
        setup_times, tokens, plain, traced = timed_passes(
            args.workload, args.seed, args.seconds, tracer)
    except (BenchError, ImportError) as err:
        sys.stderr.write(f"bench: {err}\n")
        return 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = plain + traced
    verdict = workloads.judge(kind, tokens, results)
    digests = {r.digest for r in results}
    correct = verdict.check_failures == 0 and len(digests) == 1

    print(f"workload {args.workload}  seed {args.seed}  instances/pass {len(tokens)}  "
          f"passes {len(plain)} untraced, {len(traced)} traced")
    print(f"digest sha256:{sorted(digests)[0]}" + ("" if len(digests) == 1
                                                   else f"  ({len(digests)} distinct)"))
    print(f"fail_frac {verdict.failed / verdict.attempted:.6f} ratio  "
          f"(n={verdict.attempted} instance runs, {verdict.failed} failed)")
    by_reason: dict[str, list[str]] = {}
    for token, reason in verdict.failures.items():
        by_reason.setdefault(reason, []).append(token)
    for reason, failed_tokens in by_reason.items():
        print(f"failed ({len(failed_tokens)}) {reason}: {' '.join(failed_tokens)}")
    if args.trace:
        units = metric_units("per_layer")
        metrics, steady = layer_metrics(tracer, traced, plain, units)
        metrics["instances.check_failures"] = verdict.check_failures
        metrics = {name: metrics[name] for name in units}
        correct &= steady
        if not steady:
            print("counts differ between traced passes")
        split = Counter(o.error for o in traced[0].outcomes if o.error is not None)
        print("errors by type, per pass: " + json.dumps(dict(sorted(split.items()))))
        tracer.write(OUT / f"trace-{args.workload}.jsonl", tokens)
        note = f"(median of {len(traced)} traced passes; counts per pass)"
    else:
        # Each instance's median over the passes, then percentiles over instances.
        latencies = [statistics.median(r.latencies_s[i] for r in plain) * 1e3
                     for i in range(len(tokens))]
        p50, p99 = (statistics.quantiles(latencies, n=100, method="inclusive")[i]
                    for i in (49, 98))
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(r.wall_s for r in plain),
            "instance_p50_ms": p50,
            "instance_p99_ms": p99,
            "peak_rss_mb": peak_rss_mb,
        }
        units = metric_units("end_to_end")
        metrics = {name: metrics[name] for name in units}
        note = (f"(setup n={len(setup_times)}, passes n={len(plain)}, "
                f"instances n={len(latencies)}, each the median of its passes)")
    print(note)
    for name, value in metrics.items():
        print(f"  {name:32s} {value!r:>24} {units[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
