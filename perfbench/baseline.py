"""Record the benchmark's numbers for the library in ./src.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For each workload this makes one untraced run per seed (1..10) and one traced
run on seed 1, and writes per metric the median, the quartiles and their
distance as a share of the median -- the spread the bounds in
BENCHMARK.json are set against -- with the traced per-layer metrics and the
failure counts.  ``--out`` writes a second set elsewhere, to compare its
medians with the recorded ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def _run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "slag3").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report = {"src_sha256": _src_digest(), "run_seconds": seconds,
              "seeds": SEEDS, "workloads": {}}
    for wl in (w["name"] for w in bench["workloads"]):
        runs = [_run(wl, seed, seconds, 0) for seed in report["seeds"]]
        traced = _run(wl, 1, seconds, 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        metrics = {name: _summary([r["metrics"][name]["value"]
                                   for r in runs])
                   for name in runs[0]["metrics"]}
        report["workloads"][wl] = {
            "correct_runs": sum(r["correct"] for r in runs),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "end_to_end": metrics,
            "traced_seed_1": {name: m["value"]
                              for name, m in traced["metrics"].items()},
        }
        for name, m in metrics.items():
            print(f"{wl:9s} {name:12s} median {m['median']:12.5g} "
                  f"spread {m['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
