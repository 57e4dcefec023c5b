"""Run every workload (or some) over several seeds and summarise the spread.

Usage, from the root of a source checkout::

    python3 perfbench/run_all.py                        # every workload, seed 7
    python3 perfbench/run_all.py --seeds 1-10 --workloads full-doubling

Each run is ``perfbench/run.py`` in its own process, one after another.  For
every end-to-end metric the summary gives the median over the seeds, the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), and that share against the metric's
bound in ``BENCHMARK.json``.  ``failed_share`` is failed / attempted requests.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: int, traced: int) -> tuple[list[str], dict]:
    """The metric lines run.py prints, and its JSON result."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(traced)],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return [line for line in lines[:-1] if " = " in line], json.loads(lines[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            lines, res = run_one(workload, seed, args.seconds, args.trace)
            results.append(res)
            ok &= res["correct"]
            print(f"{workload} seed={seed} correct={res['correct']}")
            for line in lines:
                print(f"  {line}", flush=True)
        if args.trace or len(results) < 2:
            continue
        for name in sorted(results[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            print(f"  {workload} {name}: median={med:.4g} {results[0]['metrics'][name]['unit']} "
                  f"iqr/median={spread:.3f} bound={bound} "
                  f"{'ok' if bound is None or spread < bound / 3 else 'WIDE'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
