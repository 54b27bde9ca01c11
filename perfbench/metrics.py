"""Metric names and units, and the per-layer metrics computed from spans.

BENCHMARK.json lists the same names; test_smoke.py checks that they agree.
"""

from __future__ import annotations

import tracing
from harness import median, tail

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "pd_words_per_s": "1/s",
}

# spans reported with call count and self time
CALLS_AND_SELF = (
    "core.beta_eval", "core.SymmetricProfile.__eq__",
    "core.SymmetricProfile.in_centraliser",
    "group.compose", "group.apply", "group.differential", "group.inverse",
    "group.power",
    "dynamics.normal_form", "dynamics.solve_conjugation_beta",
    "dynamics.orbit_obstruction_sequence",
    "curvature.riemann", "curvature.weyl", "curvature.metric_at",
    "curvature.kulkarni_nomizu", "quotients.self_adjacency",
)
# spans reported with self time only
SELF_ONLY = (
    "cli.main", "dynamics.pd_necessary_report", "flat.flatness_blowup_demo",
    "flat.pullback_metric", "quotients.verify_example",
)

PER_LAYER = {
    "import.cwgeom_s": "s",
    "import.cwgeom.flat_s": "s",
    "serialize.load.self_s": "s",
    "serialize.dump.self_s": "s",
    **{f"{name}.self_s": "s" for name in SELF_ONLY},
    **{f"{name}.{part}": unit for name in CALLS_AND_SELF
       for part, unit in (("calls", "count"), ("self_s", "s"))},
    "group.compose.calls_per_word": "ratio",
    "dynamics.pd.words_per_combo": "ratio",
    "curvature.riemann.bytes": "B",
    "quotients.self_adjacency.compose_per_tuple": "ratio",
    "trace.overhead_frac": "ratio",
}


def end_to_end(setup_samples, latencies, timed_s, words, peak_rss_mb):
    """End-to-end metrics and the tail's percentile level.  With scaled
    samples, timed_s is their sum."""
    value, level = tail(latencies)
    metrics = {
        "setup_s": median(setup_samples),
        "throughput_ops_s": len(latencies) / timed_s,
        "latency_p50_s": median(latencies),
        "latency_tail_s": value,
        "peak_rss_mb": peak_rss_mb,
        "pd_words_per_s": words / timed_s,
    }
    return metrics, level


def per_layer(traces, import_s, overhead):
    """Per-layer metrics from a list of (spans, counts), one per traced
    process, plus the import times and the tracing overhead."""
    stats = {}
    counts = {}
    compose_in_pd = compose_in_adjacency = 0
    for spans, cnt in traces:
        for name, s in tracing.aggregate(spans).items():
            slot = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
            slot["calls"] += s["calls"]
            slot["self_s"] += s["self_s"]
        for name, kv in cnt.items():
            slot = counts.setdefault(name, {})
            for key, value in kv.items():
                slot[key] = (max(slot.get(key, 0), value) if key.endswith("_max")
                             else slot.get(key, 0) + value)
        compose_in_pd += tracing.calls_under(
            spans, "group.compose", "dynamics.pd_necessary_report")
        compose_in_adjacency += tracing.calls_under(
            spans, "group.compose", "quotients.self_adjacency")

    def get(name, part):
        return stats.get(name, {}).get(part, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    pd = counts.get("dynamics.pd_necessary_report", {})
    out = {
        "import.cwgeom_s": import_s.get("cwgeom", 0.0),
        "import.cwgeom.flat_s": import_s.get("cwgeom.flat", 0.0),
        "serialize.load.self_s": sum(
            s["self_s"] for n, s in stats.items()
            if n.startswith(("serialize.load_", "serialize.parse_"))),
        "serialize.dump.self_s": sum(
            s["self_s"] for n, s in stats.items() if n.startswith("serialize.dump_")),
    }
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    out["group.compose.calls_per_word"] = ratio(compose_in_pd, pd.get("words", 0))
    out["dynamics.pd.words_per_combo"] = ratio(pd.get("words", 0), pd.get("combos", 0))
    out["curvature.riemann.bytes"] = counts.get("curvature.riemann", {}).get("bytes_max", 0)
    out["quotients.self_adjacency.compose_per_tuple"] = ratio(
        compose_in_adjacency, counts.get("quotients.self_adjacency", {}).get("tuples", 0))
    out["trace.overhead_frac"] = overhead
    assert out.keys() == PER_LAYER.keys()
    return out
