"""Per-layer entry points and the metrics derived from their spans.

Each entry point is patched where its caller resolves it at call time:
``sweep`` resolves ``run_trial`` and ``_run_trial_with`` resolves
``measure_backend_latency`` and ``run_check`` as ``repro.api.cluster``
globals; ``run_schedule`` re-imports ``run_check`` from that module on
every call; the explorer calls ``run_schedule`` and its ``_fingerprint``
alias as ``repro.explore.engine`` globals, and the witness minimizer
holds its own ``run_schedule`` name; the obs derivations are imported
from ``repro.obs`` per trial; the rest are methods.

``registers``, ``faults`` and ``sim.network`` self time stay inside
``sim.run_s``: they cannot be separated from outside the program.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

import repro.api.cluster as cluster_module
import repro.explore.engine as engine_module
import repro.explore.witness as witness_module
import repro.obs as obs_module
from repro.api.backends import BackendSpec
from repro.storage.meter import SpaceMeter
from repro.workloads.generator import WorkloadGenerator

from tracer import EntryPoint, Span

ENTRY_POINTS = {
    point.name: point
    for point in (
        EntryPoint("workloads.plan", (WorkloadGenerator,), "plan"),
        EntryPoint("api.build", (BackendSpec,), "build"),
        EntryPoint("api.run_trial", (cluster_module,), "run_trial", trial=True),
        EntryPoint(
            "analysis.measure", (cluster_module,), "measure_backend_latency",
            attrs=lambda report, *a, **k: {"sim_s": report.elapsed_s,
                                           "events": report.events},
        ),
        EntryPoint(
            "consistency.check", (cluster_module,), "run_check",
            attrs=lambda verdict, name, histories: {
                "ops": sum(len(h) for h in histories.values())},
        ),
        EntryPoint(
            "storage.meter", (SpaceMeter,), "measure",
            attrs=lambda report, *a: {
                "retained_bytes": report["retained_bytes"],
                "gc_freed_bytes": report["gc_freed_bytes"]},
        ),
        EntryPoint("obs.derive_spans", (obs_module,), "derive_spans",
                   attrs=lambda spans, *a: {"spans": len(spans)}),
        EntryPoint("obs.derive_metrics", (obs_module,), "derive_metrics"),
        EntryPoint(
            "explore.run_schedule", (engine_module, witness_module), "run_schedule",
            trial=True,
            attrs=lambda outcome, probe: {
                "ops": len(probe.plans),
                "completed": outcome.completed,
                "decisions": json.dumps([d.to_json() for d in probe.decisions]),
            },
        ),
        EntryPoint("explore.fingerprint", (engine_module,), "_fingerprint"),
        EntryPoint("robustness.rung", (cluster_module.Cluster,), "explore"),
    )
}

#: Spans whose self time is a named layer's work.  ``round``,
#: ``api.run_trial`` and ``robustness.rung`` self time is harness glue
#: and explorer bookkeeping, left out of the coverage share.
LEAF_LAYERS = (
    "workloads.plan", "api.build", "api.serialize", "analysis.measure",
    "consistency.check", "storage.meter", "obs.derive_spans",
    "obs.derive_metrics", "explore.run_schedule", "explore.fingerprint",
)

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    ("workloads.plan_s", "s", "lower"),
    ("api.build_s", "s", "lower"),
    ("api.serialize_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("analysis.account_s", "s", "lower"),
    ("analysis.account_share", "share", "lower"),
    ("analysis.worst_read_rounds", "count", "lower"),
    ("analysis.worst_write_rounds", "count", "lower"),
    ("consistency.check_s", "s", "lower"),
    ("consistency.checked_ops", "count", "higher"),
    ("storage.meter_s", "s", "lower"),
    ("storage.retained_bytes", "bytes", "lower"),
    ("storage.gc_freed_bytes", "bytes", "higher"),
    ("obs.derive_s", "s", "lower"),
    ("obs.spans", "count", "higher"),
    ("explore.schedule_s", "s", "lower"),
    ("explore.schedules", "count", "lower"),
    ("explore.fingerprint_s", "s", "lower"),
    ("explore.check_s", "s", "lower"),
    ("explore.simulate_s", "s", "lower"),
    ("explore.useful_share", "share", "higher"),
    ("explore.minimization_runs", "count", "lower"),
    ("robustness.rungs", "count", "lower"),
    ("robustness.rung_s", "s", "lower"),
    ("robustness.repeat_share", "share", "lower"),
    ("trace.round_s", "s", "lower"),
    ("trace.coverage", "share", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Metrics that must repeat exactly from round to round and run to run.
EXACT = {name for name, unit, _ in PER_LAYER if unit in ("count", "bytes")} | {
    "explore.useful_share", "robustness.repeat_share",
}


def round_layers(
    spans: list[Span], round_span: Span, exact: dict[str, float]
) -> dict[str, float]:
    """Per-layer metrics of one traced round, per round."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    parent_name = {span.id: span.name for span in spans}

    def total(name: str, attr: str | None = None) -> float:
        return sum(s.attrs[attr] if attr else s.duration for s in by_name[name])

    wall = round_span.duration
    sim_s = total("analysis.measure", "sim_s")
    events = total("analysis.measure", "events")
    account_s = total("analysis.measure") - sim_s
    checks = by_name["consistency.check"]
    in_explore = [s for s in checks
                  if parent_name.get(s.parent) == "explore.run_schedule"]
    in_trials = [s for s in checks
                 if parent_name.get(s.parent) != "explore.run_schedule"]

    schedules = by_name["explore.run_schedule"]
    rungs = by_name["robustness.rung"]
    seen_by_rung: dict[int, set[str]] = defaultdict(set)
    repeats = 0
    for span in schedules:
        key = span.attrs["decisions"]
        if any(key in seen for rung, seen in seen_by_rung.items() if rung != span.parent):
            repeats += 1
        seen_by_rung[span.parent].add(key)

    metrics = {
        "workloads.plan_s": total("workloads.plan"),
        "api.build_s": total("api.build"),
        "api.serialize_s": total("api.serialize"),
        "sim.run_s": sim_s,
        "sim.events": events,
        "sim.events_per_s": events / sim_s if sim_s else 0.0,
        "analysis.account_s": account_s,
        "analysis.account_share": account_s / wall,
        "analysis.worst_read_rounds": 0,
        "analysis.worst_write_rounds": 0,
        "consistency.check_s": sum(s.duration for s in in_trials),
        "consistency.checked_ops": sum(s.attrs["ops"] for s in in_trials),
        "storage.meter_s": total("storage.meter"),
        "storage.retained_bytes": total("storage.meter", "retained_bytes"),
        "storage.gc_freed_bytes": total("storage.meter", "gc_freed_bytes"),
        "obs.derive_s": total("obs.derive_spans") + total("obs.derive_metrics"),
        "obs.spans": total("obs.derive_spans", "spans"),
        "explore.schedule_s": total("explore.run_schedule"),
        "explore.schedules": len(schedules),
        "explore.fingerprint_s": total("explore.fingerprint"),
        "explore.check_s": sum(s.duration for s in in_explore),
        "explore.simulate_s": sum(s.self_time for s in schedules),
        "explore.useful_share": 0.0,
        "explore.minimization_runs": 0,
        "robustness.rungs": len(rungs),
        "robustness.rung_s": statistics.fmean(s.duration for s in rungs) if rungs else 0.0,
        "robustness.repeat_share": repeats / len(schedules) if schedules else 0.0,
        "trace.round_s": wall,
        "trace.coverage": sum(
            s.self_time for name in LEAF_LAYERS for s in by_name[name]) / wall,
    }
    metrics.update(exact)
    return metrics
