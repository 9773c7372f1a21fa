#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's run-to-run spread.

Run from the repository root:

    python3 bench/repeat.py [--first-seed 1] [--workloads latent_4x64,...]
                            [--out FILE] [--compare FILE]

For every workload this makes RUNS untraced runs of run.py with
consecutive seeds, then one traced run. For every end-to-end metric it
prints the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread (q3 - q1) / median next to the metric's bound;
then every per-layer metric of the traced run.
``--out`` writes a summary with the environment; ``--compare`` prints how far
each median moved from an earlier summary, as a share of the earlier median
(positive is worse), against the bound.

Exits 1 if a run failed, a spread exceeds its bound, or a compared median
got worse by more than its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

RUNS = 10  # seeds per workload; the bounds in BENCHMARK.json were set from this many


def _run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    record = json.loads((run.RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    print(f"  {workload} seed={seed} trace={trace} wall={wall:.1f}s attempted={result['attempted']} "
          f"failed={result['failed']} host_steal={record['host_steal_s']}s", flush=True)
    return result


def _worse(old: float, new: float, better: str) -> float:
    """Relative change of `new` against `old`; positive is worse."""
    return (old - new) / old if better == "higher" else (new - old) / old


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path, default=None, help="write the summary JSON here")
    parser.add_argument("--compare", type=Path, default=None, help="an earlier summary to compare with")
    args = parser.parse_args(argv)

    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    summary = {"environment": run.environment(), "run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        results = [_run_once(workload, seed, args.seconds, 0) for seed in seeds]
        traced = _run_once(workload, seeds[0], args.seconds, 1)
        failed = sum(r["failed"] for r in results + [traced])
        ok &= failed == 0
        e2e = {}
        print(f"{workload}: {sum(r['attempted'] for r in results)} pipeline runs, {failed} failed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            e2e[name] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": values}
            line = (f"  {name:16s} median={median:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                    f"spread={spread:.4f} bound={metric['bound']} ({metric['unit']})")
            if spread > metric["bound"]:
                ok = False
                line += "  SPREAD OVER BOUND"
            elif spread > metric["bound"] / 3:
                line += "  spread over a third of the bound"
            old = earlier.get(workload, {}).get("end_to_end", {}).get(name)
            if old is not None:
                worse = _worse(old["median"], median, metric["better"])
                line += f"  vs earlier: {worse:+.4f}"
                if worse > metric["bound"]:
                    ok = False
                    line += " WORSE THAN BOUND"
            print(line)
        print(f"  per-layer, traced run of seed {seeds[0]}:")
        for name, metric in traced["metrics"].items():
            print(f"    {name} = {metric['value']!r} {metric['unit']}")
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed,
            "end_to_end": e2e,
            "per_layer_seed": seeds[0],
            "per_layer": traced["metrics"],
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
