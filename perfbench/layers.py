"""Per-layer metrics of a traced run: span self times by layer, plus counts
read from ``RunResult`` fields and the public ``stats()`` interfaces.

Times are per traced round (median over traced rounds); simulated counts
are exact and repeat on every run of the same seed.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from tracing import self_times

#: (metric, unit, better) — the order BENCHMARK.json lists them in.
PER_LAYER = (
    ("workload.trace_s", "s", "lower"),
    ("workload.traces_built", "count", "lower"),
    ("cores.schedule_s", "s", "lower"),
    ("cores.schedules_built", "count", "lower"),
    ("monitors.plan_s", "s", "lower"),
    ("monitors.plans_built", "count", "lower"),
    ("api.cache.hit_ratio", "ratio", "higher"),
    ("system.build_s", "s", "lower"),
    ("system.warmup_s", "s", "lower"),
    ("system.engine_s", "s", "lower"),
    ("system.finalize_s", "s", "lower"),
    ("system.engine_ns_per_event", "ns", "lower"),
    ("system.sim_cycles", "cycles", "lower"),
    ("system.events", "count", "lower"),
    ("system.timed_instructions", "count", "higher"),
    ("fade.instruction_events", "count", "lower"),
    ("fade.filtered", "count", "higher"),
    ("fade.filter_ratio", "ratio", "higher"),
    ("queues.eq_rejected", "count", "lower"),
    ("api.store.get_s", "s", "lower"),
    ("api.store.put_s", "s", "lower"),
    ("api.store.bytes", "bytes", "lower"),
    ("api.store.hits", "count", "higher"),
    ("api.store.misses", "count", "lower"),
    ("checkpoint.put_s", "s", "lower"),
    ("checkpoint.written", "count", "lower"),
    ("checkpoint.completed", "count", "higher"),
    ("checkpoint.restored", "count", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("service.accept_s", "s", "lower"),
    ("service.warm_p50_s", "s", "lower"),
    ("service.warm_hits", "count", "higher"),
    ("service.computed", "count", "higher"),
    ("service.coalesced", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("service.errors", "count", "lower"),
    ("api.runner.overhead_s", "s", "lower"),
    ("trace.unaccounted_frac", "ratio", "lower"),
    ("tracing_overhead_frac", "ratio", "lower"),
)

#: Span name -> metric for the layers measured by self time.
SPAN_METRICS = {
    "workload.trace": "workload.trace_s",
    "cores.schedule": "cores.schedule_s",
    "monitors.plan": "monitors.plan_s",
    "system.build": "system.build_s",
    "system.warmup": "system.warmup_s",
    "system.engine": "system.engine_s",
    "system.finalize": "system.finalize_s",
    "api.store.get": "api.store.get_s",
    "api.store.put": "api.store.put_s",
    "checkpoint.put": "checkpoint.put_s",
}


def _round_layers(out) -> Dict[str, float]:
    # Only spans inside the timed region, in any thread or worker.
    root = next(s for s in out.spans if s["name"] == "round")
    timed = [
        s for s in out.spans
        if s["start"] >= root["start"] and s["end"] <= root["end"]
    ]
    selfs = self_times(timed)
    values = {metric: selfs.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    # Runner glue: the runner's and each cell's time outside every layer
    # below them.
    values["api.runner.overhead_s"] = selfs.get("api.runner", 0.0) + selfs.get(
        "api.cell", 0.0
    )
    values["trace.unaccounted_frac"] = selfs["round"] / (root["end"] - root["start"])
    values["service.accept_s"] = (
        statistics.median(out.accept_latency) if out.accept_latency else 0.0
    )

    results = out.computed
    events = sum(
        r.monitored_events + r.stack_update_events + r.high_level_events
        for r in results
    )
    values["system.events"] = events
    values["system.engine_ns_per_event"] = (
        values["system.engine_s"] * 1e9 / events if events else 0.0
    )
    values["system.sim_cycles"] = sum(r.cycles for r in results)
    values["system.timed_instructions"] = sum(r.instructions for r in results)
    fade = [r.fade_stats for r in results if r.fade_stats is not None]
    instruction_events = sum(f.instruction_events for f in fade)
    filtered = sum(f.filtered for f in fade)
    values["fade.instruction_events"] = instruction_events
    values["fade.filtered"] = filtered
    values["fade.filter_ratio"] = (
        filtered / instruction_events if instruction_events else 0.0
    )
    values["queues.eq_rejected"] = sum(
        r.event_queue_stats.rejected for r in results if r.event_queue_stats
    )

    cache = out.cache_stats
    values["workload.traces_built"] = cache.get("trace_misses", 0)
    values["cores.schedules_built"] = cache.get("schedule_misses", 0)
    values["monitors.plans_built"] = cache.get("plan_misses", 0)
    hits = sum(cache.get(f"{kind}_hits", 0) for kind in ("trace", "schedule", "plan"))
    misses = sum(
        cache.get(f"{kind}_misses", 0) for kind in ("trace", "schedule", "plan")
    )
    values["api.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    store = out.store_stats
    values["api.store.bytes"] = store.get("bytes", 0)
    values["api.store.hits"] = store.get("hits", 0)
    values["api.store.misses"] = store.get("misses", 0)

    server = out.server_stats.get("server") or {}
    values["checkpoint.written"] = server.get("checkpoints_written", 0)
    values["checkpoint.completed"] = server.get("checkpoints_completed", 0)
    values["checkpoint.restored"] = server.get("checkpoints_restored", 0)
    values["checkpoint.bytes"] = out.checkpoint_bytes
    for name in ("warm_hits", "computed", "coalesced", "retries", "errors"):
        values[f"service.{name}"] = server.get(name, 0)
    return values


def per_layer(rounds: List, untraced_wall_s: float) -> Dict[str, float]:
    traced = [r for r in rounds if r.traced]
    per_round = [_round_layers(r) for r in traced]
    from_rounds = {"tracing_overhead_frac", "service.warm_p50_s"}
    values = {
        name: statistics.median(v[name] for v in per_round)
        for name, _, _ in PER_LAYER
        if name not in from_rounds
    }
    # An end-to-end latency, so taken from the untraced rounds.
    warm = [x for r in rounds if not r.traced for x in r.warm_latency]
    values["service.warm_p50_s"] = statistics.median(warm) if warm else 0.0
    traced_wall = statistics.median(r.wall_s for r in traced)
    values["tracing_overhead_frac"] = traced_wall / untraced_wall_s - 1.0
    return values
