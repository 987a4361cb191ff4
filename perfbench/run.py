"""Run one slag3 benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; slag3 is imported from ./src.  With
``--trace 0`` the run reports the end-to-end metrics, measured untraced.
With ``--trace 1`` it first runs untraced for half the time, then replays
the same calls with every traced function wrapped, and reports per-layer
metrics.  Times are calibrated to a reference machine speed (calibrate.py),
except inside traced spans.  See perfbench/NOTES.md for what each workload
and metric is for.
"""

from __future__ import annotations

import os
import time

_START = time.perf_counter()  # set-up time counts from here

# one caller, one thread: pin BLAS/OpenMP before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9  # fresh processes; the median of their set-up is setup_s


def _load_library():
    """slag3's modules from this checkout's src/, or exit without a result."""
    if not (SRC / "slag3" / "__init__.py").is_file():
        sys.exit(f"perfbench: no slag3 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    lib = {name: importlib.import_module(f"slag3.{name}")
           for name in ("cubics", "geometry", "gallery", "ambient")}
    if SRC not in Path(lib["cubics"].__file__).resolve().parents:
        sys.exit("perfbench: slag3 was imported from outside this checkout")
    return lib


def _setup_in_fresh_process(workload, seed):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(tally, setup_s):
    lat_ms = np.array(tally.calibrated_s) * 1e3
    return {
        "setup_s": _metric(setup_s, "s"),
        "items_per_s": _metric(tally.items / sum(tally.calibrated_s), "1/s"),
        "call_ms_p50": _metric(np.percentile(lat_ms, 50), "ms"),
        "call_ms_p90": _metric(np.percentile(lat_ms, 90), "ms"),
        "ok_share": _metric((tally.attempted - tally.failed)
                            / tally.attempted, "share"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }


def per_layer(tracer, tally, untraced_s):
    m = {}
    for name, st in tracer.stats.items():
        m[f"{name}.calls"] = _metric(st.calls, "count")
        m[f"{name}.self_s"] = _metric(st.self_s, "s")
        m[f"{name}.errors"] = _metric(st.errors, "count")
    s = tracer.stats

    def ratio(num, den):
        return num / den if den else 0.0

    fsa = s["cubics.find_symmetry_axes"]
    m["cubics.find_symmetry_axes.calls_per_classify"] = _metric(
        ratio(fsa.calls, s["cubics.classify"].calls), "ratio")
    m["cubics.find_symmetry_axes.axes_per_call"] = _metric(
        ratio(fsa.outcomes, fsa.calls), "ratio")
    for name in ("gallery.eval", "gallery.jac", "geometry.jacobian"):
        m[f"{name}.calls_per_item"] = _metric(
            ratio(s[name].calls, tally.items), "ratio")
    for kind in checks.FAILURE_KINDS:
        m[f"failed.{kind}"] = _metric(tally.failures[kind], "count")
    m["trace.overhead_ratio"] = _metric(
        sum(tally.calibrated_s) / untraced_s, "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("classify", "singular", "sweep", "audit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the set-up time and exit")
    args = ap.parse_args(argv)

    # calibrate set-up by kernel runs on both sides of its bulk, the
    # library import and the inputs; the first ones' time is not set-up
    t0 = time.perf_counter()
    kernel = calibrate.setup_runs()
    kernel_block_s = time.perf_counter() - t0
    lib = _load_library()
    make = workloads.WORKLOADS[args.workload]
    workload = make(lib, args.seed)
    wall_s = time.perf_counter() - _START - kernel_block_s
    kernel += calibrate.setup_runs()
    setup_s = wall_s * calibrate.REFERENCE_S / statistics.median(kernel)
    if args.setup_only:
        print(repr(setup_s))
        return

    if not args.trace:
        tally = workloads.run(workload, seconds=args.seconds)
        samples = [setup_s] + [_setup_in_fresh_process(args.workload,
                                                       args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(tally, statistics.median(samples))
    else:
        # the kernel must stay out of the spans: classify, singular and
        # audit run it between calls in both phases; sweep would run it
        # inside its calls, so there both phases use wall time alone
        calibrated = not make.kernel_in_call
        plain = workloads.run(workload, seconds=args.seconds / 2,
                              calibrated=calibrated)
        tracer = layertrace.Tracer()
        traced_workload = make(lib, args.seed, tracer.wrap_patch)
        tracer.patch(lib)
        try:
            tally = workloads.run(traced_workload, calls=plain.calls,
                                  calibrated=calibrated)
        finally:
            tracer.unpatch()
        metrics = per_layer(tracer, tally, sum(plain.calibrated_s))

    print(json.dumps({
        "correct": tally.wrong_answers == 0 and tally.unsteady == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
