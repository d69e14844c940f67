#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workload table_sweep ...] [--trace 1]
                                 [--write perfbench/baseline.json]

For every workload and metric it prints the median, the quartiles and the
spread (q3 - q1) / median over the seeds, and, for end-to-end metrics, the
bound from BENCHMARK.json with a mark when the spread exceeds a third of
it.  ``--write`` stores the summary with the environment facts of the
first run, as a point of the performance trajectory.
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


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# raw "):  # end-to-end figures before scaling
            for name, value in json.loads(line[6:]).items():
                result["metrics"][f"raw:{name}"] = {"value": value}
    return result, env


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", help="store the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seeds": parse_seeds(args.seeds), "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in report["seeds"]:
            result, env = run_once(workload, seed, args.seconds, args.trace)
            report.setdefault("environment", {k: v for k, v in env.items()
                                              if k not in ("argv", "seed", "workload",
                                                           "argv_sha256", "cycles")})
            results.append(result)
            ok &= result["correct"]
        metrics = {name: summarise([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        summary = report["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        print(f"== {workload} ({len(results)} seeds, failed "
              f"{summary['failed']}/{summary['attempted']})")
        for name, s in metrics.items():
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                mark = ("ok" if s["spread"] < bound / 3
                        else "WIDE" if s["spread"] > bound else "over 1/3")
            print(f"  {name:<58} median {s['median']:<12.6g} spread {s['spread']:7.4f}"
                  f"  {'' if bound is None else f'bound {bound}'} {mark}")
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
