"""Figure 7 resource-sharing microbenchmark (section 6.4).

200 synthetic tasks, each consuming a finite number of data items and
"computing a simple addition for each input byte": 100 **light** tasks
over 1 KB items and 100 **heavy** tasks over 16 KB items.  The paper
runs them under its three scheduling policies (cooperative /
non-cooperative / round-robin) and reports the completion time of each
class; here ``policy`` accepts *any* registered policy name — or a
:class:`~repro.runtime.policy.SchedulingPolicy` instance — so the same
workload sweeps scheduling scenarios the paper could not test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.runtime.qos import check_class_map
from repro.runtime.scheduler import Scheduler, TaskBase
from repro.sim.engine import Engine

#: The workload's two endpoints, as its service-class specs name them:
#: every light task belongs to endpoint "light", every heavy task to "heavy".
ENDPOINTS = ("light", "heavy")

#: Cost of the per-byte addition loop (µs/byte of item data).
PER_BYTE_US = 0.004

LIGHT_ITEM_BYTES = 1 * 1024
HEAVY_ITEM_BYTES = 16 * 1024

#: SLO slack granted per µs of a task's total work: a task's deadline
#: budget is twice its ideal (uncontended) runtime, mirroring SLOs that
#: scale with request size.  The 'deadline' policy consumes this; every
#: other policy ignores the attribute.
SLO_SLACK_FACTOR = 2.0


class SyntheticTask(TaskBase):
    """Consumes ``n_items`` of ``item_bytes`` each; records finish time."""

    def __init__(self, name: str, n_items: int, item_bytes: int, engine: Engine):
        super().__init__(name, next(engine.task_ids))
        self._engine = engine
        self._remaining = n_items
        self._item_cost = item_bytes * PER_BYTE_US
        self.slo_us = n_items * self._item_cost * SLO_SLACK_FACTOR
        self.finished_at: Optional[float] = None

    def has_work(self) -> bool:
        return self._remaining > 0

    def step(self, budget_us: Optional[float]):
        elapsed = 0.0
        while self._remaining > 0:
            self._remaining -= 1
            elapsed += self._item_cost
            if budget_us is not None and elapsed >= budget_us:
                break
        emissions = []
        if self._remaining == 0 and self.finished_at is None:
            def mark() -> None:
                self.finished_at = self._engine.now

            emissions.append(mark)
        self.busy_us += elapsed
        return elapsed, emissions


@dataclass
class SchedulingResult:
    """Completion times (ms, virtual) for the two task classes.

    ``class_stats`` is the scheduler scoreboard's per-service-class
    summary (completions, SLO misses, latency) — keyed by class name
    when the run carried a service-class map, by "default" otherwise.
    """

    policy: str
    light_mean_ms: float
    heavy_mean_ms: float
    light_max_ms: float
    heavy_max_ms: float
    makespan_ms: float
    class_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)


def run_scheduling_experiment(
    policy,
    n_tasks: int = 200,
    items_per_task: int = 200,
    cores: int = 16,
    topology=None,
    service_classes=None,
) -> SchedulingResult:
    """Run the Figure 7 workload under ``policy`` (name or instance).

    Tasks are admitted interleaved (light, heavy, light, ...) so that
    under the non-cooperative policy completion is determined purely by
    scheduling order, as the paper describes.  ``topology`` (a
    :class:`~repro.net.stackprofiles.CoreTopology` or a registered name)
    labels the cores with sockets and prices cross-socket steals.

    ``service_classes`` (a :class:`~repro.runtime.qos.ServiceClassMap`,
    parsed from specs by :func:`~repro.runtime.qos.parse_slo_class_specs`)
    maps the workload's endpoints — ``"light"`` and
    ``"heavy"`` — to QoS tiers: a classified task carries its class's
    SLO and weight instead of the default size-proportional SLO, and
    the result's ``class_stats`` breaks completions, latency and SLO
    misses down per class.
    """
    check_class_map(service_classes)
    engine = Engine()
    scheduler = Scheduler(engine, cores, policy=policy, topology=topology)
    tasks: List[SyntheticTask] = []
    for index in range(n_tasks):
        is_light = index % 2 == 0
        size = LIGHT_ITEM_BYTES if is_light else HEAVY_ITEM_BYTES
        endpoint = "light" if is_light else "heavy"
        task = SyntheticTask(
            f"{endpoint}{index}",
            items_per_task,
            size,
            engine,
        )
        if service_classes is not None:
            service_class = service_classes.class_for(endpoint)
            if service_class is not None:
                task.service_class = service_class
                task.slo_us = service_class.slo_us
        # Balanced placement: consecutive (light, heavy) pairs share a
        # worker, so every queue has the same class mix.  Hash placement
        # (the platform default) makes each queue's composition a
        # lottery, which swamps the policy effect this experiment
        # isolates.
        task.home_hint = (index // 2) % cores
        tasks.append(task)
    scheduler.start()
    for task in tasks:
        scheduler.notify_runnable(task)
    engine.run()

    def _collect(tasks: List[SyntheticTask]) -> List[float]:
        times = []
        for task in tasks:
            if task.finished_at is None:
                raise RuntimeError(f"task {task.name} never finished")
            times.append(task.finished_at)
        return times

    light_times = _collect(tasks[0::2])
    heavy_times = _collect(tasks[1::2])
    return SchedulingResult(
        policy=scheduler.policy_name,
        light_mean_ms=sum(light_times) / len(light_times) / 1000.0,
        heavy_mean_ms=sum(heavy_times) / len(heavy_times) / 1000.0,
        light_max_ms=max(light_times) / 1000.0,
        heavy_max_ms=max(heavy_times) / 1000.0,
        makespan_ms=max(max(light_times), max(heavy_times)) / 1000.0,
        class_stats=scheduler.scoreboard.summary(),
    )


def run_policy_sweep(policies: Sequence, **kwargs) -> Dict[str, SchedulingResult]:
    """Run the Figure 7 workload once per policy (names or instances).

    Keys are policy names; two entries with the same name (e.g. two
    ``BatchPolicy`` instances with different ``k``) are disambiguated
    with ``#2``, ``#3``, ... so no sweep result is silently dropped.
    """
    results: Dict[str, SchedulingResult] = {}
    for policy in policies:
        result = run_scheduling_experiment(policy, **kwargs)
        key = result.policy
        serial = 2
        while key in results:
            key = f"{result.policy}#{serial}"
            serial += 1
        results[key] = result
    return results
