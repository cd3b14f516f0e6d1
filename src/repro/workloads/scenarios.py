"""Named benchmark scenarios: fault mixes and schedule shapes.

The latency-matrix experiment (E6) runs every protocol under every scenario
here; tests reuse them so benchmark configurations stay covered by the test
suite.  Scenarios are **registry-addressable**: :func:`get_scenario` builds
one by name for a given threshold, :func:`available_scenarios` lists the
names, and :func:`register_scenario` adds custom regimes (which the
:class:`repro.api.cluster.Cluster` facade then accepts by name).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import ConfigurationError
from repro.faults.adversary import CrashAt, SilentBehavior
from repro.faults.byzantine import FabricatingBehavior, StaleEchoBehavior
from repro.faults.churn import Flap, RollingRestart
from repro.sim.network import DeliveryPolicy
from repro.sim.process import FaultBehavior
from repro.types import ProcessId, object_id


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Which objects misbehave and how.

    ``maker`` builds a fresh behaviour per object (behaviours can be
    stateful); ``count`` says how many of the lowest-indexed objects get
    one.  ``count`` is clamped to the system's ``t`` — scenarios model
    legal adversaries, not over-threshold demolition (tests cover that
    separately).  The clamp is explicit: :meth:`effective_count` reports
    what a given threshold actually yields, and ``strict=True`` turns the
    clamp into a :class:`~repro.errors.ConfigurationError` so sweeps cannot
    silently under-fault.
    """

    name: str
    count: int
    maker: Callable[[], FaultBehavior] | None
    strict: bool = False
    #: Fleet-wide plans (rolling restarts hit *every* object) opt out of
    #: the threshold clamp: the full ``count`` materializes, and adopting
    #: clusters flip ``allow_overfault`` on.  Legal because the faults are
    #: staggered — at most ``t`` machines are down at any one time even
    #: though more than ``t`` misbehave over the whole run.
    overfault: bool = False

    def effective_count(self, t: int) -> int:
        """How many objects actually misbehave at threshold ``t``."""
        if self.maker is None:
            return 0
        if self.overfault:
            return self.count
        return min(self.count, t)

    def behaviors(self, t: int) -> Mapping[ProcessId, FaultBehavior]:
        """Materialize behaviours for a system with threshold ``t``.

        Raises :class:`~repro.errors.ConfigurationError` when ``strict``
        and the requested ``count`` exceeds ``t``.
        """
        if self.maker is None or self.count == 0:
            return {}
        effective = self.effective_count(t)
        if self.strict and effective < self.count:
            raise ConfigurationError(
                f"fault plan {self.name!r} requests {self.count} faulty objects "
                f"but the threshold is t={t} (strict)"
            )
        return {object_id(i + 1): self.maker() for i in range(effective)}


@dataclass(frozen=True, slots=True)
class Scenario:
    """A fault plan plus workload shape — and, optionally, a schedule.

    ``policy_factory`` builds a fresh adversarial
    :class:`~repro.sim.network.DeliveryPolicy` per trial (policies are
    stateful), making message-timing adversaries — block skipping via
    :class:`~repro.faults.schedules.PlannedSchedulePolicy`, reply
    withholding, custom holds — first-class citizens of the scenario
    registry next to fault plans.  ``None`` keeps the default synchronous
    unit-latency fabric.
    """

    name: str
    fault_plan: FaultPlan
    read_fraction: float = 0.6
    spacing: int = 25
    description: str = ""
    policy_factory: Callable[[], "DeliveryPolicy"] | None = None
    #: Recovery scenarios replay durable journals on rejoin, so adopting
    #: clusters must run with ``durability='mem'`` or ``'dir'``; the facade
    #: checks this parent-side and fails with a clear error before any
    #: trial (or pool worker) starts.
    requires_durability: bool = False


# --------------------------------------------------------------------- #
# Scenario registry
# --------------------------------------------------------------------- #

#: name → builder mapping a threshold ``t`` to a concrete :class:`Scenario`.
_SCENARIOS: dict[str, Callable[[int], Scenario]] = {}

#: Canonical presentation order of the built-in sweep.
_STANDARD_ORDER = ("fault-free", "crash", "silent", "replay", "fabricate")


def register_scenario(
    name: str, builder: Callable[[int], Scenario], *, overwrite: bool = False
) -> None:
    """Register ``builder`` (t → Scenario) under ``name``."""
    if name in _SCENARIOS and not overwrite:
        raise ConfigurationError(f"scenario {name!r} registered twice")
    _SCENARIOS[name] = builder


def get_scenario(name: str, t: int) -> Scenario:
    """Build the scenario registered under ``name`` for threshold ``t``."""
    try:
        builder = _SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {', '.join(available_scenarios())}"
        ) from None
    return builder(t)


def available_scenarios() -> tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_SCENARIOS))


register_scenario(
    "fault-free",
    lambda t: Scenario(
        name="fault-free",
        fault_plan=FaultPlan("none", 0, None),
        description="synchronous, all objects correct",
    ),
)
register_scenario(
    "crash",
    lambda t: Scenario(
        name="crash",
        fault_plan=FaultPlan("crash", t, lambda: CrashAt(survive_messages=3)),
        description=f"{t} objects crash after a few messages",
    ),
)
register_scenario(
    "silent",
    lambda t: Scenario(
        name="silent",
        fault_plan=FaultPlan("silent", t, lambda: SilentBehavior()),
        description=f"{t} objects silent from the start",
    ),
)
register_scenario(
    "replay",
    lambda t: Scenario(
        name="replay",
        fault_plan=FaultPlan("replay", t, lambda: StaleEchoBehavior(frozen_state={})),
        description=f"{t} objects echo stale genuine states (the proofs' adversary)",
    ),
)
register_scenario(
    "fabricate",
    lambda t: Scenario(
        name="fabricate",
        fault_plan=FaultPlan("fabricate", t, lambda: FabricatingBehavior()),
        description=f"{t} objects fabricate inflated timestamps",
    ),
)
register_scenario(
    "rolling-restart",
    lambda t: Scenario(
        name="rolling-restart",
        # Every object of the default 2t+1 crash-family layout restarts
        # once, in index order: s_i crashes after its (3 + (i-1)·6)-th
        # delivery and rejoins from its journal two deliveries later.  The
        # stagger keeps at most t machines down at once, so the plan is
        # legal despite touching more than t objects over the run.
        fault_plan=FaultPlan(
            "rolling-restart",
            2 * t + 1,
            lambda: RollingRestart(base=3, stagger=6, rejoin_after=2),
            overfault=True,
        ),
        description="crash-recover every object in sequence (staggered restarts)",
        requires_durability=True,
    ),
)
register_scenario(
    "crash-storm",
    lambda t: Scenario(
        name="crash-storm",
        # One machine stuck in a crash-recover loop: three crashes, each
        # after two honest deliveries, each dark for one delivery.
        fault_plan=FaultPlan(
            "crash-storm",
            1,
            lambda: Flap(survive_messages=2, rejoin_after=1, cycles=3),
        ),
        description="repeated crash-recover cycles on one object",
        requires_durability=True,
    ),
)


def standard_scenarios(t: int) -> list[Scenario]:
    """The scenario sweep used by tests and the latency benchmarks.

    Four adversary regimes beyond fault-free: crash, silent, replay
    (stale-echo — the adversary class of the paper's proofs), and
    fabrication (the unauthenticated worst case).
    """
    return [get_scenario(name, t) for name in _STANDARD_ORDER]
