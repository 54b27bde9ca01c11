"""cwgeom benchmark: one command, seeded workloads, every output checked.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload {cli-oneshot,pd-sweep,reports}
                             --seed N --seconds S --trace {0,1} [--size tiny]

Each workload runs from a single worker process as a closed loop with
one client.  The set-up time is the median over SETUP_REPS fresh worker
processes, each timed from its start until its first request is ready.
All processes are pinned to one CPU, and every timing is scaled to the
machine's nominal speed by a calibration loop run next to it (see
harness.py); the raw wall-clock figures are printed as well.
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
prints the per-layer metrics of one traced cycle, the tracing overhead
against the same cycle untraced, and the import times of the package.
The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import KNOWN_DEFECTS, NOMINAL_CAL_S, calibrate, median  # noqa: E402
from metrics import END_TO_END, PER_LAYER, end_to_end  # noqa: E402

SETUP_REPS = 3
SETUP_CALS = 3  # calibration loops before and after each set-up sample
RUN_BUDGET_S = 170  # the whole run, set-up included, ends well inside 180 s
WORKLOADS = ("cli-oneshot", "pd-sweep", "reports")


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so that calibration
    and measured work share it."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def start_worker(args, env, mode, budget, out_dir):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), args.size, mode,
           str(budget), out_dir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker set-up failed: {line.strip()!r}")
    return proc, ready


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few requests per cycle (smoke test)")
    args = parser.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "cwgeom", "__init__.py")):
        print(f"no cwgeom sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")

    pin_to_one_cpu()
    # byte-compile once, as an installed package would be, before timing
    subprocess.run([sys.executable, "-c", "import cwgeom, cwgeom.cli"], cwd=ROOT,
                   env=env, check=True, timeout=120)
    setup_raw, setup = [], []
    for _ in range(SETUP_REPS):
        cals = [calibrate() for _ in range(SETUP_CALS)]
        proc, ready = start_worker(args, env, "setup", 60, out_dir)
        finish(proc, 60)
        cals += [calibrate() for _ in range(SETUP_CALS)]
        setup_raw.append(ready)
        setup.append(ready * NOMINAL_CAL_S / median(cals))
    budget = RUN_BUDGET_S - (time.perf_counter() - started)
    proc, _ = start_worker(args, env, "run", budget - 10, out_dir)
    result = json.loads(finish(proc, budget).strip().splitlines()[-1])

    info = result["info"]
    attempted, failed = result["attempted"], result["failed"]
    known = sum(result["known"].values())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    print("inputs " + json.dumps(info, sort_keys=True))
    print(f"error_frac {failed / attempted:.4f} ({failed} of {attempted} requests failed; "
          f"{known} are known defects)")
    for key, n in sorted(result["known"].items()):
        print(f"  known defect {key}: {n} failures ({KNOWN_DEFECTS[key]})")
    for line in result["unexpected"]:
        print(f"  UNEXPECTED FAILURE {line}")
    print("all layers run on one thread: no layer waits on another, "
          "so there are no wait-time metrics")

    if args.trace == 0:
        raw, lat = result["latencies"], result["scaled"]
        values, level = end_to_end(setup, lat, sum(lat), result["words"],
                                   result["peak_rss_mb"])
        raw_values, _ = end_to_end(setup_raw, raw, result["timed_s"], result["words"],
                                   result["peak_rss_mb"])
        units = END_TO_END
        print(f"{len(lat)} requests in {result['cycles']} cycles over "
              f"{result['timed_s']:.2f} s timed; set-up samples {len(setup)}")
        print(f"machine speed: calibration loop median {median(result['cals']) * 1e3:.3f} ms "
              f"(nominal {NOMINAL_CAL_S * 1e3:.3f} ms); raw wall clock: " + ", ".join(
                  f"{k} {raw_values[k]:.6g}" for k in units if k != "peak_rss_mb"))
        notes = {"latency_tail_s": f"p{level:.1f} of {len(lat)} samples",
                 "latency_p50_s": f"{len(lat)} samples",
                 "setup_s": f"median of {len(setup)} fresh workers",
                 "peak_rss_mb": ("max over CLI child processes"
                                 if args.workload == "cli-oneshot" else "worker process")}
    else:
        values, units = result["per_layer"], PER_LAYER
        print(f"traced cycle {result['traced_s']:.3f} s vs untraced {result['untraced_s']:.3f} s; "
              f"{result['spans']} spans written under {os.path.relpath(out_dir, ROOT)}")
        notes = {"curvature.riemann.bytes": "computed from the dense array shape, not measured",
                 "trace.overhead_frac": "traced / untraced cycle time - 1"}
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {values[name]:.6g} {unit}{note}")

    print(json.dumps({
        "correct": failed == known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
