"""Work counts and layer spans, taken at the program's public methods.

:func:`install_probes` puts count-only wrappers on coarse calls (one per
search, placement, control round or series rebuild). Every count comes
from a public result object the call returns or leaves behind:
:class:`SearchStats`, :class:`AutoTuneResult`, ``CapsStrategy.last_*``
and the ``TickSample`` list of ``MetricsCollector.job_series``.

:data:`SPAN_TARGETS` lists the calls a traced round wraps in spans, each
with the per-layer self-time metric it is charged to.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.controller.capsys import CAPSysController
from repro.core.autotune import ThresholdAutoTuner
from repro.core.search import CapsSearch
from repro.diagnosis.collector import DiagnosisCollector
from repro.placement.caps import CapsStrategy
from repro.runtime.channels import BoundedChannel
from repro.runtime.operators import (
    SessionWindowOperator,
    WindowAggregateOperator,
    WindowJoinOperator,
)
from repro.runtime.parallel import ShardedExecutor
from repro.runtime.state import KeyedState
from repro.scaling.ds2 import DS2Controller
from repro.simulator.engine import FluidSimulation
from repro.simulator.metrics import MetricsCollector

from tracing import Patcher

#: Self time of the benchmark's own code between wrapped calls.
ROOT_LAYER = "bench.self_s"

SPAN_TARGETS = [
    (CapsStrategy, "place", "placement.place_s"),
    (ThresholdAutoTuner, "tune", "core.autotune_s"),
    (CapsSearch, "run", "core.search_s"),
    (CAPSysController, "run_adaptive", "controller.self_s"),
    (CAPSysController, "profile", "controller.profile_s"),
    (DS2Controller, "decide", "scaling.ds2_s"),
    (FluidSimulation, "run_until", "simulator.step_s"),
    (MetricsCollector, "job_series", "simulator.series_s"),
    (DiagnosisCollector, "observe_tick", "diagnosis_s"),
    (DiagnosisCollector, "extend", "diagnosis_s"),
    (DiagnosisCollector, "flush", "diagnosis_s"),
    (ShardedExecutor, "run", "runtime.scheduler_s"),
    (WindowAggregateOperator, "on_watermark", "runtime.window.fire_s"),
    (SessionWindowOperator, "on_watermark", "runtime.window.fire_s"),
    (WindowJoinOperator, "on_watermark", "runtime.window.fire_s"),
    (KeyedState, "get", "runtime.state_s"),
    (KeyedState, "put", "runtime.state_s"),
    (KeyedState, "delete", "runtime.state_s"),
    (BoundedChannel, "try_put", "runtime.channel_s"),
    (BoundedChannel, "force_put", "runtime.channel_s"),
    (BoundedChannel, "put_watermark", "runtime.channel_s"),
    (BoundedChannel, "get", "runtime.channel_s"),
]

SELF_TIME_LAYERS = sorted({layer for _c, _m, layer in SPAN_TARGETS} | {ROOT_LAYER})


class RoundCounts:
    """Work counts of one round, plus its failed placements and operations.

    A placement fails when its auto-tune stopped on the wall-clock
    deadline or its final search did not exhaust: either way the plan
    depends on machine speed. Each workload turns failed placements into
    failed operations (:attr:`failed`) of its own.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = defaultdict(int)
        self.failed = 0
        self.failed_placements = 0
        #: Set while ``ThresholdAutoTuner.tune`` runs, so its searches
        #: count as probes.
        self.in_tune = False
        #: Whether an auto-tune timed out since the last placement began.
        self.tune_timed_out = False

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount


def install_probes(patcher: Patcher, rc: RoundCounts) -> None:
    def search_run(fn):
        def wrapped(self, limits=None):
            result = fn(self, limits)
            stats = result.stats
            rc.add("core.search.runs")
            rc.add("core.search.nodes", stats.nodes)
            rc.add("core.search.plans", stats.plans_found)
            for dim in ("slots", "cpu", "io", "net"):
                rc.add(f"core.search.pruned_{dim}", getattr(stats, f"pruned_{dim}"))
            if rc.in_tune:
                rc.add("core.autotune.probes")
                if not stats.exhausted:
                    rc.add("core.autotune.probes_budget_ended")
            return result

        return wrapped

    def tune(fn):
        def wrapped(self):
            rc.in_tune = True
            try:
                result = fn(self)
            finally:
                rc.in_tune = False
            if result.timed_out:
                rc.tune_timed_out = True
            return result

        return wrapped

    def place(fn):
        def wrapped(self, physical, cluster):
            rc.tune_timed_out = False
            plan = fn(self, physical, cluster)
            rc.add("placement.decisions")
            if self.last_fallback is not None:
                rc.add("placement.fallbacks")
            if rc.tune_timed_out or not self.last_search_stats.exhausted:
                rc.failed_placements += 1
            return plan

        return wrapped

    def job_series(fn):
        def wrapped(self, job_id):
            series = fn(self, job_id)
            rc.add("simulator.series_rows_built", len(series))
            return series

        return wrapped

    def run_until(fn):
        def wrapped(self, time_s):
            rc.add("controller.rounds")
            return fn(self, time_s)

        return wrapped

    patcher.replace(CapsSearch, "run", search_run)
    patcher.replace(ThresholdAutoTuner, "tune", tune)
    patcher.replace(CapsStrategy, "place", place)
    patcher.replace(MetricsCollector, "job_series", job_series)
    patcher.replace(FluidSimulation, "run_until", run_until)
