"""Closed-loop runner shared by the workloads: one client, one request at
a time, whole cycles of a seeded request list, every output checked
right after its request with the check time kept out of the timed window.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# Known defects a check may expose.  A check reports one by returning
# (detail, key).  These failures count in `failed` and error_frac like
# any other, but do not make the run's outputs incorrect: `correct` turns
# false only on a failure outside this list.
KNOWN_DEFECTS = {
    "long-word-conditioning": ("long-word round trips on real and mixed profiles exceed "
                               "the 1e-12*k relative bound, the quotient part exact"),
    "malformed-traceback": "malformed payload gives a traceback instead of a JSON error",
    "failed-3d-abs-tol": ("verify_example failed-3d judges conj_zeta_displayed "
                          "by an absolute 1e-7, which about 1% of sample seeds exceed"),
}


@dataclass
class Request:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Any]  # None if right, else detail or (detail, defect key)
    words: int = 0                         # pd words the request checks
    payload_bytes: int = 0                 # size of a CLI request's input
    self_timed: bool = False               # call() returns (seconds, output)
    traced_call: Optional[Callable[[], Any]] = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known: dict = field(default_factory=dict)
    unexpected: list = field(default_factory=list)
    words: int = 0

    def record(self, req, detail):
        self.attempted += 1
        if detail is None:
            self.words += req.words
            return
        self.failed += 1
        if isinstance(detail, tuple):
            self.known[detail[1]] = self.known.get(detail[1], 0) + 1
        elif len(self.unexpected) < 20:
            self.unexpected.append(f"{req.kind}: {detail}")


# Machine-speed calibration.  The host's speed drifts by up to 1.5x over
# tens of seconds (other tenants; process CPU time tracks wall time, so
# it is not preemption), which no run length here averages away.  A
# fixed pure-Python loop runs before every request, outside the timed
# window; each latency is scaled by NOMINAL_CAL_S over the median loop
# time within CAL_WINDOW_S of the request, giving the time the request
# takes when the loop takes NOMINAL_CAL_S.  Raw wall-clock figures are
# printed next to the scaled ones.
CAL_LOOPS = 50_000
NOMINAL_CAL_S = 3.5e-3
CAL_WINDOW_S = 2.0


def calibrate():
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


@dataclass
class Timings:
    """Per request: latency and start time; per calibration loop: its
    duration and the time it ended (the next request's start; the last
    one follows the last request)."""
    latencies: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    cals: list = field(default_factory=list)
    cal_ends: list = field(default_factory=list)

    def scaled(self):
        """Latencies at nominal speed."""
        out = []
        for lat, t in zip(self.latencies, self.starts):
            lo = bisect.bisect_left(self.cal_ends, t - CAL_WINDOW_S)
            hi = bisect.bisect_right(self.cal_ends, t + lat + CAL_WINDOW_S)
            out.append(lat * NOMINAL_CAL_S / median(self.cals[lo:hi]))
        return out

    def add_cal(self):
        self.cals.append(calibrate())
        self.cal_ends.append(time.perf_counter())


def run_one(req, tally, timings, traced=False):
    """Calibrate, time one request, then check its output.  Returns the
    seconds spent outside the timed window."""
    call = req.traced_call if traced and req.traced_call else req.call
    c0 = time.perf_counter()
    timings.add_cal()
    t0 = time.perf_counter()
    try:
        out, raised = call(), None
    except Exception as exc:  # a raising request is a failed request
        out, raised = None, f"raised {type(exc).__name__}: {exc}"
    lat = time.perf_counter() - t0
    if raised is None and req.self_timed:
        lat, out = out
    timings.latencies.append(lat)
    timings.starts.append(t0)
    if raised is None:
        try:
            detail = req.check(out)
        except Exception as exc:
            detail = f"check raised {type(exc).__name__}: {exc}"
    else:
        detail = raised
    tally.record(req, detail)
    return time.perf_counter() - c0 - lat


def run_cycles(cycle, cycles, deadline, tally):
    """`cycles` whole cycles, or fewer if the last one suggests the next
    would end after `deadline` (a time.perf_counter() value).

    Returns (timings, timed wall seconds, cycles run).
    """
    timings = Timings()
    start = time.perf_counter()
    untimed = 0.0
    done = 0
    while done < cycles:
        c0 = time.perf_counter()
        for req in cycle:
            untimed += run_one(req, tally, timings)
        done += 1
        now = time.perf_counter()
        if now + (now - c0) > deadline:
            break
    timed = time.perf_counter() - start - untimed
    timings.add_cal()
    return timings, timed, done


def run_cycle(cycle, tally, traced=False):
    """One cycle; returns its timings."""
    timings = Timings()
    for req in cycle:
        run_one(req, tally, timings, traced)
    timings.add_cal()
    return timings


def median(values):
    s = sorted(values)
    k = len(s)
    return 0.5 * (s[(k - 1) // 2] + s[k // 2])


def tail(values):
    """The highest sample with at least 10 samples beyond it, with its
    percentile level; the maximum (level 100) when there are too few."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)
