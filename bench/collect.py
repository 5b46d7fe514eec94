"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py [--workloads ladder,wide,...] [--seeds 1-10]
                             [--trace 0|1] [--seconds S] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
prints for every metric the median, the quartiles and the spread (the
distance between the quartiles as a share of the median, from
``statistics.quantiles(values, n=4)``).  With ``--out`` it also writes the
summary as JSON.  ``bench/baseline.json`` joins two such summaries: the
end-to-end metrics over seeds 1-10 and the per-layer ones (``--trace 1``)
over seeds 1-3.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["lines"] = lines[:-1]
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                             if n in bounds), flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = first["unit"]
        summary[workload] = {
            "seeds": seed_list(args.seeds),
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "digest": sorted({line.split()[1] for r in runs for line in r["lines"]
                              if line.startswith("digest ")}),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and m["spread"] is not None and name != "setup_s":
                flag = "ok" if m["spread"] < bound / 3 else ("WIDE" if m["spread"] > bound else "near")
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {workload:8s} {name:32s} median {m['median']:.6g} {m['unit']}  "
                  f"spread {spread}  {flag}", flush=True)
    if args.out:
        out = {
            "machine": {"platform": platform.platform(), "python": platform.python_version(),
                        "cpus": os.cpu_count(), "processor": platform.processor()},
            "run_seconds": args.seconds,
            "trace": args.trace,
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
