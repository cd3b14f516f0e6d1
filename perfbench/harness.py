"""The benchmark's three workloads, each generated from one seed.

A workload builds its inputs once from ``--seed``; :meth:`round` then runs
one unit of user-visible work on them (one ``Cluster.run`` trial, one
``sweep``, one frontier walk) and serializes the result the way
``repro run --jsonl`` does.  Every round of a run replays the same inputs,
so every round must produce the same payload digest and the same exact
counts.  :meth:`assess` runs the correctness gates outside the timed
region.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any

from repro.api import Cluster, available_protocols, get_spec, sweep

from tracer import Span, Tracer


@dataclass(slots=True)
class Assessment:
    """What one round did, and whether it was right."""

    attempted: int
    completed: int
    failed: int
    errors: list[str] = field(default_factory=list)
    #: Exact per-layer counts read from the result itself.
    exact: dict[str, float] = field(default_factory=dict)
    #: ``FrontierResult.schedules`` of a frontier walk.
    schedules: int = 0


def serialize(tracer: Tracer, results: list[Any]) -> list[str]:
    """``to_dict`` + sorted-key JSON per result, as ``repro run --jsonl``."""
    with tracer.span("api.serialize"):
        return [json.dumps(result.to_dict(), sort_keys=True) for result in results]


def _assess_runs(runs: list[Any], operations: int) -> Assessment:
    """Ops of a trial fail when it left any incomplete or failed a check."""
    attempted = completed = failed = 0
    errors: list[str] = []
    for run in runs:
        for trial in run.trials:
            done = len(trial.write_rounds) + len(trial.read_rounds)
            attempted += operations
            completed += done
            if not trial.ok:
                checks_ok = all(v.ok for v in trial.checks.values())
                failed += operations - done if checks_ok else operations
                errors.append(
                    f"{run.protocol}/{run.scenario} trial {trial.trial}: "
                    f"incomplete={trial.incomplete} checks="
                    + ",".join(f"{n}:{'ok' if v.ok else 'FAIL'}"
                               for n, v in trial.checks.items())
                )
    return Assessment(
        attempted=attempted,
        completed=completed,
        failed=failed,
        errors=errors,
        exact={
            "analysis.worst_read_rounds": max(run.worst_read for run in runs),
            "analysis.worst_write_rounds": max(run.worst_write for run in runs),
        },
    )


class RunLarge:
    """One big read-heavy trial through ``Cluster.run`` on the batched engine."""

    name = "run-large"
    operations = 1000
    #: The round is the trial: one ``run(trials=1)`` call plus its JSON.
    round_is_trial = True
    boundary: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cluster = (
            Cluster("abd", n_readers=4, engine="batched")
            .check("atomicity")
            .with_workload(reads=0.9, operations=self.operations)
        )

    def first_spec(self) -> Any:
        return self.cluster._prepare_run(1, self.seed, keep_history=False)

    def round(self, tracer: Tracer) -> tuple[Any, list[str]]:
        result = self.cluster.run(trials=1, seed=self.seed, keep_history=False)
        return result, serialize(tracer, [result])

    def assess(self, result: Any, spans: list[Span]) -> Assessment:
        return _assess_runs([result], self.operations)


class SweepDurable:
    """Every atomic protocol × its advertised scenarios, journaled and observed.

    ``sweep`` runs every cell of one call on the same workload seeds, so
    one call replays only ``trials`` distinct plans and its timing swings
    with them.  Each cell is therefore its own ``sweep`` call with its own
    seed drawn from ``--seed``: the same grid and code path, 29 independent
    plans.  One trial per cell keeps a round near five seconds, so a run
    fits several rounds and can report its fastest.
    """

    name = "sweep-durable"
    operations = 40
    trials = 1
    round_is_trial = False
    #: ``sweep`` resolves ``run_trial`` per trial: the trial boundary.
    boundary = ("api.run_trial",)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.cells = tuple(
            (name, scenario, rng.randrange(10**6))
            for name in available_protocols()
            if get_spec(name).semantics == "atomic"
            for scenario in get_spec(name).scenarios
        )

    def first_spec(self) -> Any:
        name, scenario, seed = self.cells[0]
        cluster = (
            Cluster(name, durability="mem", observe=True)
            .with_scenario(scenario)
            .with_workload(spacing=30, operations=self.operations)
            .check("atomicity")
        )
        return cluster._prepare_run(self.trials, seed, keep_history=False)

    def round(self, tracer: Tracer) -> tuple[Any, list[str]]:
        runs = [
            run
            for name, scenario, seed in self.cells
            for run in sweep(
                [name],
                scenarios=[scenario],
                operations=self.operations,
                trials=self.trials,
                spacing=30,
                seed=seed,
                checks=("atomicity",),
                durability="mem",
                observe=True,
            ).runs
        ]
        return runs, serialize(tracer, runs)

    def assess(self, runs: list[Any], spans: list[Span]) -> Assessment:
        return _assess_runs(runs, self.operations)


class FrontierWalk:
    """The certified robustness frontier of an over-faulted fast-read stack."""

    name = "frontier-walk"
    round_is_trial = False
    #: Every executed schedule (search, minimization) is one trial.
    boundary = ("explore.run_schedule",)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        read_at = rng.randrange(40, 160)
        self.plan = (
            ("write", f"v{rng.randrange(10**6)}", 0),
            ("read", rng.randint(1, 2), read_at),
            ("write", f"w{rng.randrange(10**6)}", read_at + rng.randrange(10, 160)),
        )
        self.cluster = (
            Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
            .with_faults("stale-echo", count=1)
            .with_faults("timed", count=1, inner="stale-echo", at=99)
            .with_operations(self.plan)
        )

    def first_spec(self) -> Any:
        return self.cluster._schedule_probe()

    def round(self, tracer: Tracer) -> tuple[Any, list[str]]:
        result = self.cluster.frontier(max_holds=2, max_schedules=3000)
        return result, serialize(tracer, [result])

    def assess(self, result: Any, spans: list[Span]) -> Assessment:
        runs = [s for s in spans if s.name == "explore.run_schedule"]
        attempted = sum(s.attrs["ops"] for s in runs)
        errors: list[str] = []
        if result.outcomes.get("atomicity") != "refuted":
            errors.append(f"atomicity reads {result.outcomes.get('atomicity')}")
        if result.strongest != "k-atomic(2)" or not result.certified:
            errors.append(f"strongest certified model is {result.strongest}")
        if not result.degraded:
            errors.append("over-budget configuration not flagged degraded")
        witness = result.witness
        if witness is None:
            errors.append("no separating witness")
        elif not witness.reproduces(witness.replay()):
            errors.append("separating witness does not replay")
        stats = [r.stats for r in result.results.values()]
        explored = sum(s.explored for s in stats)
        return Assessment(
            attempted=attempted,
            completed=sum(s.attrs["completed"] for s in runs),
            failed=attempted if errors else 0,
            errors=errors,
            exact={
                "explore.useful_share":
                    (explored - sum(s.pruned_duplicate for s in stats)) / explored,
                "explore.minimization_runs": sum(s.minimization_runs for s in stats),
            },
            schedules=result.schedules,
        )


WORKLOADS = {w.name: w for w in (RunLarge, SweepDurable, FrontierWalk)}
