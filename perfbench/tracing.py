"""Span tracing of the cwgeom layers, installed from outside the library.

`install()` wraps the public functions of each layer module, plus two
methods of `SymmetricProfile`, and rebinds every module-level name that
refers to a wrapped function.  Modules import with `from .x import y`, so
`beta_eval` is bound in core, group, dynamics and quotients, and compose,
inverse, power and apply in group, dynamics and quotients; patching only
the defining module would miss those calls.  Dispatch tables
(`quotients.EXAMPLES`, `cli.COMMANDS`) keep the original functions, so
the example bodies count as self time of `quotients.verify_example` and
the subcommand handlers as self time of `cli.main`.

Each wrapped call records a span (name, start, end, parent) in memory.
Self time is a span's duration minus the time its direct child spans
cover; everything runs on one thread, so children never overlap and no
layer waits on another.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import subprocess
import sys
import time
from collections import defaultdict

LAYERS = ("core", "curvature", "group", "dynamics", "flat", "quotients",
          "serialize", "cli")
METHODS = {"core": {"SymmetricProfile": ("__eq__", "in_centraliser")}}


def _pd_counts(args, kwargs, out):
    gens = args[0]
    max_length = args[1] if len(args) > 1 else kwargs.get("max_length", 3)
    letters = 2 * len(gens)
    return {"words": out.words_checked,
            "combos": sum(letters ** k for k in range(1, max_length + 1))}


def _adjacency_counts(args, kwargs, out):
    gens = args[1]
    r = args[2] if len(args) > 2 else kwargs.get("exponent_range", 3)
    return {"tuples": (2 * r + 1) ** len(gens)}


def _riemann_counts(args, kwargs, out):
    return {"bytes_max": out.components.size * out.components.itemsize}


# Counts derived from a call's arguments and result, per span name.
COUNTERS = {
    "dynamics.pd_necessary_report": _pd_counts,
    "quotients.self_adjacency": _adjacency_counts,
    "curvature.riemann": _riemann_counts,
}


class Recorder:
    """In-memory spans [name, start, end, parent index] and counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(lambda: defaultdict(float))

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    slot = self.counts[name]
                    if key.endswith("_max"):
                        slot[key] = max(slot[key], value)
                    else:
                        slot[key] += value
            return out

        traced.__wrapped_original__ = fn
        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "counts": {k: dict(v) for k, v in self.counts.items()}}, fh)


def _targets():
    """(qualified span name, owner object, attribute, original function)."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"cwgeom.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out.append((f"{layer}.{attr}", mod, attr, obj))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for attr in methods:
                out.append((f"{layer}.{cls_name}.{attr}", cls, attr,
                            vars(cls)[attr]))
    return out


def install(recorder):
    """Wrap every target and rebind it in every cwgeom module namespace.

    Returns the list of (owner, attribute, original) needed by restore().
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "cwgeom" or name.startswith("cwgeom.")]
    by_original = {}
    saved = []
    for name, owner, attr, fn in _targets():
        wrapper = recorder.wrap(name, fn)
        by_original[id(fn)] = (fn, wrapper)
        saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = by_original.get(id(obj))
            if hit is not None and hit[0] is obj:
                saved.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    return saved


def restore(saved):
    for owner, attr, fn in reversed(saved):
        setattr(owner, attr, fn)


def aggregate(spans):
    """Per span name: calls and self seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        slot = out[name]
        slot["calls"] += 1
        slot["self_s"] += end - start - child[i]
    return out


def calls_under(spans, name, ancestor):
    """Number of `name` spans that have an `ancestor` span above them."""
    n = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                n += 1
                break
            parent = spans[parent][3]
    return n


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)")


def import_times(python, env, cwd):
    """Cumulative import seconds per cwgeom module from -X importtime."""
    proc = subprocess.run([python, "-X", "importtime", "-c", "import cwgeom"],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=60, check=True)
    out = {}
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.search(line)
        if m and (m.group(3) == "cwgeom" or m.group(3).startswith("cwgeom.")):
            out[m.group(3)] = int(m.group(2)) * 1e-6
    return out
