"""Workload ``adaptive-control``: ``CAPSysController.run_adaptive`` end to end.

One round runs the six query presets for 600 simulated seconds each
on 8 m5d.2xlarge workers with 8 slots, under a square-wave load that
alternates between a high rate and half of it every 200 s. Each preset
runs twice: once clean, with its high rate a seeded draw around the
preset's target rate, and once under a fixed ``ChaosSchedule`` (disk
straggler, worker crash, recovery) at the target rate, with checkpoints
and diagnosis on. The chaos runs do not depend on the seed, so whether
one of them fails does not either. The default ``SimulationConfig`` is
used, so fast-forward is off, as users get it.

Each run is one operation. A run fails when one of its placements
failed (see :class:`probes.RoundCounts`) or when it deployed a plan,
decided while the crashed worker was down, that places tasks on that
worker: the controller applies a chaos event only after the DS2
decision of the control round that stops at it (a FOUND line in
CHANGES.md).

Here the simulator, controller, DS2, diagnosis and fault handling do
nearly all the work; the placement searches are small.
"""

from __future__ import annotations

import random
import sys
from collections import defaultdict
from typing import Dict, List

from repro.controller.capsys import CAPSysController, ControllerConfig
from repro.dataflow.cluster import Cluster, M5D_2XLARGE
from repro.faults import ChaosSchedule, CheckpointConfig
from repro.observability import MetricRegistry
from repro.placement.caps import CapsStrategy
from repro.workloads import ALL_QUERIES
from repro.workloads.rates import SquareWaveRate

from tracing import NO_DEADLINE_S, timed_in_thread


DURATION_S = 600.0
PERIOD_S = 200.0
LOW_SHARE = 0.5
#: Seeded jitter of the clean runs' high rate, as a share of the rate.
RATE_JITTER = 0.05
WORKERS, SLOTS = 8, 8
#: The chaos schedule: worker 3 keeps 30% of its disk bandwidth from
#: 100 s; worker 4 crashes at the first load step and recovers at the
#: second.
STRAGGLER, VICTIM = 3, 4
STRAGGLE_AT_S, STRAGGLE_LEFT = 100.0, 0.3
CRASH_AT_S, RECOVER_AT_S = 200.0, 400.0
CHECKPOINT_INTERVAL_S = 60.0


class RecordingController(CAPSysController):
    """Keeps every deployment so placements can be checked afterwards."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.deployments = []

    def deploy(self, *args, **kwargs):
        deployment = super().deploy(*args, **kwargs)
        self.deployments.append(deployment)
        return deployment


class Inputs:
    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.cluster = Cluster.homogeneous(M5D_2XLARGE.with_slots(SLOTS), count=WORKERS)
        self.chaos = ChaosSchedule.parse(
            f"disk:w{STRAGGLER}@{STRAGGLE_AT_S:g}x{STRAGGLE_LEFT:g},"
            f"crash:w{VICTIM}@{CRASH_AT_S:g},recover:w{VICTIM}@{RECOVER_AT_S:g}"
        )
        self.runs = []
        for preset in ALL_QUERIES:
            graph = preset.build()
            jitter = 1 + RATE_JITTER * (2 * rng.random() - 1)
            for chaotic in (False, True):
                high = preset.target_rate * (1.0 if chaotic else jitter)
                patterns = {
                    op: SquareWaveRate(high=high, low=LOW_SHARE * high, period_s=PERIOD_S)
                    for op in graph.sources()
                }
                self.runs.append((preset.name, graph, patterns, chaotic))

    def config(self, chaotic: bool) -> ControllerConfig:
        return ControllerConfig(
            autotune_timeout_s=NO_DEADLINE_S,
            search_timeout_s=NO_DEADLINE_S,
            checkpoint=CheckpointConfig(
                enabled=chaotic, interval_s=CHECKPOINT_INTERVAL_S
            ),
            diagnose=chaotic,
            seed=0 if chaotic else self.seed,
        )


def operations_per_round(inputs: Inputs) -> int:
    return len(inputs.runs)


def _one_run(inputs: Inputs, graph, patterns, chaotic: bool):
    strategy = CapsStrategy(
        {},
        autotune_timeout_s=NO_DEADLINE_S,
        autotune_probe_timeout_s=NO_DEADLINE_S,
        search_timeout_s=NO_DEADLINE_S,
    )
    registry = MetricRegistry()
    controller = RecordingController(
        graph, inputs.cluster, strategy=strategy,
        config=inputs.config(chaotic), registry=registry,
    )
    strategy.unit_costs_provider = lambda _physical: controller.profile()
    result = controller.run_adaptive(
        patterns, DURATION_S, chaos=inputs.chaos if chaotic else None
    )
    return result, controller, registry


def run_round(inputs: Inputs, rc, meter) -> Dict[str, object]:
    times: Dict[str, float] = {}
    runs = []
    for name, graph, patterns, chaotic in inputs.runs:
        label = f"{name}{'+chaos' if chaotic else ''}"
        failed_before = rc.failed_placements
        seconds, (result, controller, registry) = timed_in_thread(
            meter, lambda: _one_run(inputs, graph, patterns, chaotic)
        )
        times[label] = seconds
        _count(rc, result, registry)
        on_crashed = _plans_on_crashed_worker(result, controller.deployments) if chaotic else []
        failed = rc.failed_placements > failed_before or bool(on_crashed)
        rc.failed += failed
        runs.append((label, failed, result, controller.deployments, on_crashed))
    return {"times": times, "runs": runs}


def _plans_on_crashed_worker(result, deployments) -> List[float]:
    """Times of rescales, decided while the victim was down, that use it.

    ``deployments[0]`` is the initial deployment; each later one belongs
    to the rescale event decided at ``event.time_s``.
    """
    return [
        event.time_s
        for event, deployment in zip(result.events, deployments[1:])
        if CRASH_AT_S <= event.time_s < RECOVER_AT_S and deployment.plan.tasks_on(VICTIM)
    ]


def _count(rc, result, registry: MetricRegistry) -> None:
    counters: Dict[str, float] = defaultdict(float)
    for series in registry.snapshot()["metrics"]:
        if series["kind"] == "counter":
            counters[series["name"]] += series["value"]
    ticks = int(counters["sim_job_ticks_total"])
    skipped = int(counters["engine_ticks_skipped_total"])
    rc.add("simulator.ticks_stepped", ticks - skipped)
    rc.add("simulator.ticks_skipped", skipped)
    rc.add("simulator.leaps", int(counters["engine_leaps_total"]))
    rc.add("controller.samples_drained", len(result.samples))
    rc.add("controller.rescales", result.rescale_count())
    rc.add("scaling.ds2_decisions", int(counters["controller_ds2_decisions_total"]))
    rc.add("faults.injected", int(counters["faults_injected_total"]))
    rc.add(
        "faults.rescales",
        sum(1 for event in result.events if event.reason.startswith("fault:")),
    )


def parts(inputs: Inputs, out: Dict[str, object]) -> Dict[str, float]:
    """Simulated seconds per reference second over the round's runs."""
    return {"part.sim_s_per_s": DURATION_S * len(inputs.runs) / sum(out["times"].values())}


def check(inputs: Inputs, first: Dict[str, object]) -> List[str]:
    """Properties every adaptive run that did not fail must have."""
    problems: List[str] = []
    all_slots = WORKERS * SLOTS
    for label, failed, result, deployments, on_crashed in first["runs"]:
        if on_crashed:
            print(
                f"FAILED: {label}: plans decided at t={on_crashed} place tasks "
                f"on crashed worker {VICTIM}",
                file=sys.stderr,
            )
        if failed:
            continue
        samples = result.samples
        if len(samples) != int(DURATION_S):
            problems.append(f"{label}: {len(samples)} samples for {DURATION_S:g} s")
        for before, after in zip(samples, samples[1:]):
            if abs(after.time_s - before.time_s - 1.0) > 1e-6:
                problems.append(f"{label}: sample gap at t={before.time_s}")
                break
        crashed = label.endswith("+chaos")
        for sample in samples:
            if sample.throughput > sample.target_rate * (1 + 1e-9) + 1e-9:
                problems.append(f"{label}: throughput above target at t={sample.time_s}")
                break
            if not 0.0 <= sample.backpressure <= 1.0:
                problems.append(f"{label}: backpressure {sample.backpressure} at t={sample.time_s}")
                break
            down = crashed and CRASH_AT_S <= sample.time_s < RECOVER_AT_S
            live = all_slots - SLOTS if down else all_slots
            if sample.total_tasks > live:
                problems.append(
                    f"{label}: {sample.total_tasks} tasks on {live} live slots at t={sample.time_s}"
                )
                break
        if len(deployments) != len(result.events) + 1:
            problems.append(f"{label}: {len(deployments)} deployments for {len(result.events)} rescales")
    return problems
