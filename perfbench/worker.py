"""One benchmark worker process: set up a workload, then measure it.

Usage (started by run.py, with PYTHONPATH naming the checkout's src):
    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE SIZE MODE BUDGET OUT_DIR

Set-up (import cwgeom, generate the seeded inputs) ends with a READY line
on stdout.  In MODE "setup" the worker then exits; in MODE "run" it
measures and prints one JSON result line.  In-process workloads first run
one untimed warm-up cycle.  TRACE 0 then runs, with tracing off, the
number of whole cycles that takes SECONDS at nominal machine speed at the
time of writing (a fixed count, so every run has the same samples);
TRACE 1 runs one cycle untraced and the same cycle traced, and reports
per-layer metrics and the tracing overhead.
"""

import json
import math
import os
import resource
import shutil
import sys
import time

STARTED = time.perf_counter()

import numpy as np  # noqa: E402

import cwgeom  # noqa: E402
import cwgeom.cli  # noqa: E402

import cli_oneshot  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402
import pd_sweep  # noqa: E402
import reports  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = {"cli-oneshot": cli_oneshot, "pd-sweep": pd_sweep, "reports": reports}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IMPORTTIME_REPS = 3


def main(argv):
    workload, seed, seconds, trace, size, mode, budget, out_dir = argv
    seed, seconds, trace, budget = int(seed), float(seconds), int(trace), float(budget)
    deadline = STARTED + budget
    rng = np.random.default_rng(seed)
    span_dir = os.path.join(out_dir, "cli-spans")
    if workload == "cli-oneshot":
        runner = cli_oneshot.Runner(ROOT, dict(os.environ), span_dir)
        cycle, info = cli_oneshot.build(cwgeom, rng, size, runner)
    else:
        cycle, info = WORKLOADS[workload].build(cwgeom, rng, size)
    print("READY", flush=True)
    if mode == "setup":
        if workload == "cli-oneshot":
            runner.close()
        return

    tally = harness.Tally()
    result = {"info": info}
    if workload != "cli-oneshot":
        # one untimed cycle first, so that first-call costs (numpy and
        # scipy lazy set-up) stay out of the timings; each CLI request is
        # a fresh process and pays them every time
        harness.run_cycle(cycle, tally)
    if trace == 0:
        n = max(1, math.ceil(seconds / WORKLOADS[workload].NOMINAL_CYCLE_S))
        timings, timed_s, cycles = harness.run_cycles(cycle, n, deadline, tally)
        if workload == "cli-oneshot":
            peak = runner.close()
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(latencies=timings.latencies, scaled=timings.scaled(),
                      cals=timings.cals, timed_s=timed_s, cycles=cycles,
                      words=tally.words, peak_rss_mb=peak)
    else:
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(span_dir)
        untraced = sum(harness.run_cycle(cycle, tally).scaled())
        if workload == "cli-oneshot":
            traced = sum(harness.run_cycle(cycle, tally, traced=True).scaled())
            traces = []
            for name in sorted(os.listdir(span_dir)):
                with open(os.path.join(span_dir, name), encoding="utf-8") as fh:
                    data = json.load(fh)
                traces.append((data["spans"], data["counts"]))
        else:
            recorder = tracing.Recorder()
            saved = tracing.install(recorder)
            try:
                traced = sum(harness.run_cycle(cycle, tally, traced=True).scaled())
            finally:
                tracing.restore(saved)
            recorder.dump(os.path.join(out_dir, "spans.json"))
            traces = [(recorder.spans, recorder.counts)]
        if workload == "cli-oneshot":
            runner.close()
        runs = [tracing.import_times(sys.executable, dict(os.environ), ROOT)
                for _ in range(IMPORTTIME_REPS)]
        import_s = {name: harness.median([r.get(name, 0.0) for r in runs])
                    for name in ("cwgeom", "cwgeom.flat")}
        result["per_layer"] = metrics.per_layer(traces, import_s, traced / untraced - 1.0)
        result.update(untraced_s=untraced, traced_s=traced,
                      spans=sum(len(s) for s, _ in traces))
    result.update(attempted=tally.attempted, failed=tally.failed,
                  known=tally.known, unexpected=tally.unexpected)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
