"""Workload ``placement-search``: the CAPS decision path at the paper's scale.

One round runs, each operation in a fresh thread:

- the decision deck: ``CapsStrategy.place`` on the six query presets,
  sized by DS2 at four seeded rates around 4x their target rate on
  8 m5d.2xlarge x 8 slots and around 2x on 8 r5d.xlarge x 4 slots, plus
  the Fig. 10a Q2-join instances of 32, 48 and 64 tasks;
- the enumeration: an exhaustive alpha = inf DFS without pareto
  collection on the Table 2 job (Q3-inf, 24 tasks) over 7 r5d.xlarge x
  4 slots, one worker fewer than Table 2, so that it takes a share of
  the round comparable to the other operations;
- the Table 2 pareto search: the full pareto front of Q3-inf over
  8 r5d.xlarge x 4 slots at alpha_cpu = 0.5;
- the Fig. 10b auto-tune: ``ThresholdAutoTuner.tune`` on Q2-join with
  128 tasks over 16 r5d.xlarge x 8 slots, each probe bounded by
  ``AUTOTUNE_PROBE_NODES`` DFS nodes.

Every wall-clock budget is set far above the measured time, so only node
budgets bound the work and no result depends on machine speed. The
simulator and the record runtime do no work here.
"""

from __future__ import annotations

import random
import statistics
from typing import Dict, List

from repro.controller.capsys import CAPSysController
from repro.core.autotune import ThresholdAutoTuner
from repro.core.cost_model import CostModel, TaskCosts
from repro.core.greedy import greedy_balanced_plan
from repro.core.search import CapsSearch, SearchLimits
from repro.dataflow.cluster import Cluster, M5D_2XLARGE, R5D_XLARGE
from repro.dataflow.physical import PhysicalGraph
from repro.placement.caps import CapsStrategy
from repro.workloads import ALL_QUERIES, q1_sliding, q2_join, q3_inf

from reference import count_distinct_placements, plan_violations
from tracing import NO_DEADLINE_S, timed_in_thread

#: Deck clusters for DS2 sizing: (label, worker spec, workers, multiple
#: of the preset's target rate).
DECK_CLUSTERS = (
    ("m5d-8x8", M5D_2XLARGE.with_slots(8), 8, 4.0),
    ("r5d-8x4", R5D_XLARGE.with_slots(4), 8, 2.0),
)
#: Rates drawn per preset and cluster, each with a seeded jitter given
#: as a share of the rate.
DECK_DRAWS = 4
RATE_JITTER = 0.05
FIG10A_TASKS = (32, 48, 64)
FIG10A_SLOTS = 16
FIG10_RATE_PER_TASK = 2600.0
#: Q3-inf parallelism: source, decode, inference, sink.
TABLE2_SHAPE = (2, 5, 12, 5)
TABLE2_WORKERS, TABLE2_SLOTS = 8, 4
TABLE2_SOURCE_RATE = 3000.0
#: The enumeration's cluster: 129,514 distinct plans (905,925 on the
#: 8 workers of Table 2).
ENUMERATE_WORKERS = 7
PARETO_ALPHA_CPU = 0.5
FIG10B_WORKERS, FIG10B_SLOTS = 16, 8
AUTOTUNE_PROBE_NODES = 5_000
#: Fig. 2: Q1-sliding (15 tasks) on 4 r5d.xlarge x 4 slots has 80 plans.
FIG2_WORKERS, FIG2_SLOTS = 4, 4


def scaled_q2(total_tasks: int):
    """Q2-join with ``total_tasks`` tasks: half join, the rest maps + 2 sources."""
    join_p = max(1, total_tasks // 2)
    map_p = max(1, (total_tasks - join_p - 2) // 2)
    join_p += total_tasks - join_p - 2 * map_p - 2
    return q2_join(source_parallelism=1, map_parallelism=map_p, join_parallelism=join_p)


def q2_model(total_tasks: int, workers: int, slots: int) -> CostModel:
    graph = scaled_q2(total_tasks)
    physical = PhysicalGraph.expand(graph)
    cluster = Cluster.homogeneous(R5D_XLARGE.with_slots(slots), count=workers)
    rate = FIG10_RATE_PER_TASK * total_tasks
    costs = TaskCosts.from_specs(physical, {("Q2-join", op): rate for op in graph.sources()})
    return CostModel(physical, cluster, costs)


def table2_model(workers: int = TABLE2_WORKERS) -> CostModel:
    physical = PhysicalGraph.expand(q3_inf(*TABLE2_SHAPE))
    cluster = Cluster.homogeneous(R5D_XLARGE.with_slots(TABLE2_SLOTS), count=workers)
    costs = TaskCosts.from_specs(physical, {("Q3-inf", "source"): TABLE2_SOURCE_RATE})
    return CostModel(physical, cluster, costs)


def caps_strategy(source_rates, unit_costs=None) -> CapsStrategy:
    return CapsStrategy(
        source_rates,
        unit_costs_provider=(lambda _p: unit_costs) if unit_costs is not None else None,
        autotune_timeout_s=NO_DEADLINE_S,
        autotune_probe_timeout_s=NO_DEADLINE_S,
        search_timeout_s=NO_DEADLINE_S,
    )


class Inputs:
    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.deck = []
        for cluster_name, spec, workers, multiple in DECK_CLUSTERS:
            cluster = Cluster.homogeneous(spec, count=workers)
            for preset in ALL_QUERIES:
                graph = preset.build()
                sizing = CAPSysController(graph, cluster)
                for draw in range(DECK_DRAWS):
                    jitter = 1 + RATE_JITTER * (2 * rng.random() - 1)
                    rate = preset.target_rate * multiple * jitter
                    rates = {op: rate for op in graph.sources()}
                    parallelism = sizing.initial_parallelism(rates)
                    physical = PhysicalGraph.expand(graph.with_parallelism(parallelism))
                    source_rates = {(graph.job_id, op): r for op, r in rates.items()}
                    self.deck.append(
                        (f"{preset.name}@{cluster_name}#{draw}", physical, cluster,
                         source_rates, sizing.profile())
                    )
        for total in FIG10A_TASKS:
            model = q2_model(total, max(2, -(-total // FIG10A_SLOTS)), FIG10A_SLOTS)
            graph = model.physical.logical_graphs[0]
            rate = FIG10_RATE_PER_TASK * total
            source_rates = {("Q2-join", op): rate for op in graph.sources()}
            self.deck.append(
                (f"fig10a-{total}", model.physical, model.cluster, source_rates, None)
            )
        self.enumerate = table2_model(ENUMERATE_WORKERS)
        self.table2 = table2_model()
        self.fig10b = q2_model(FIG10B_WORKERS * FIG10B_SLOTS, FIG10B_WORKERS, FIG10B_SLOTS)


def operations_per_round(inputs: Inputs) -> int:
    """The deck's decisions, the enumeration, pareto search and auto-tune."""
    return len(inputs.deck) + 3


def run_round(inputs: Inputs, rc, meter) -> Dict[str, object]:
    times: Dict[str, float] = {}
    decisions = []
    for label, physical, cluster, source_rates, unit_costs in inputs.deck:
        strategy = caps_strategy(source_rates, unit_costs)
        seconds, plan = timed_in_thread(meter, lambda: strategy.place(physical, cluster))
        times[f"decision:{label}"] = seconds
        decisions.append((label, plan, strategy.last_cost_model))

    enumerate_search = CapsSearch(inputs.enumerate, thresholds=None, collect_pareto=False)
    seconds, enumerated = timed_in_thread(
        meter, lambda: enumerate_search.run(SearchLimits(timeout_s=NO_DEADLINE_S))
    )
    times["enumerate"] = seconds

    pareto_search = CapsSearch(inputs.table2, thresholds={"cpu": PARETO_ALPHA_CPU})
    seconds, pareto = timed_in_thread(
        meter, lambda: pareto_search.run(SearchLimits(timeout_s=NO_DEADLINE_S))
    )
    times["pareto"] = seconds

    tuner = ThresholdAutoTuner(
        inputs.fig10b,
        timeout_s=NO_DEADLINE_S,
        search_timeout_s=None,
        probe_max_nodes=AUTOTUNE_PROBE_NODES,
    )
    seconds, tuned = timed_in_thread(meter, tuner.tune)
    times["autotune"] = seconds

    # Decisions and searches that stop early give machine-speed-dependent
    # answers.
    rc.failed += rc.failed_placements
    for result in (enumerated, pareto):
        if not result.stats.exhausted:
            rc.failed += 1
    if tuned.timed_out:
        rc.failed += 1
    return {
        "times": times,
        "decisions": decisions,
        "enumerated": enumerated,
        "pareto": pareto,
        "tuned": tuned,
    }


def parts(_inputs: Inputs, out: Dict[str, object]) -> Dict[str, float]:
    """Median decision time over the deck, and each search's time."""
    times = out["times"]
    decisions = [s for name, s in times.items() if name.startswith("decision:")]
    return {
        "part.decision_s": statistics.median(decisions),
        "part.enumerate_s": times["enumerate"],
        "part.pareto_s": times["pareto"],
        "part.autotune_s": times["autotune"],
    }


def check(inputs: Inputs, first: Dict[str, object]) -> List[str]:
    """Plan counts, pareto entries, tuned thresholds and deck plans."""
    problems: List[str] = []
    model = inputs.enumerate
    parallelism = [
        len(model.physical.operator_tasks(*key)) for key in model.physical.operator_keys()
    ]
    expected = count_distinct_placements(parallelism, ENUMERATE_WORKERS, TABLE2_SLOTS)
    found = first["enumerated"].stats.plans_found
    if found != expected:
        problems.append(f"enumerate: search found {found} plans, enumerator counts {expected}")

    fig2_physical = PhysicalGraph.expand(q1_sliding())
    fig2_cluster = Cluster.homogeneous(R5D_XLARGE.with_slots(FIG2_SLOTS), count=FIG2_WORKERS)
    fig2_model = CostModel(
        fig2_physical, fig2_cluster,
        TaskCosts.from_specs(fig2_physical, {("Q1-sliding", "source"): 1000.0}),
    )
    fig2_found = CapsSearch(fig2_model, collect_pareto=False).run().stats.plans_found
    fig2_parallelism = [
        len(fig2_physical.operator_tasks(*key)) for key in fig2_physical.operator_keys()
    ]
    fig2_expected = count_distinct_placements(fig2_parallelism, FIG2_WORKERS, FIG2_SLOTS)
    if fig2_found != fig2_expected:
        problems.append(f"fig2: search found {fig2_found} plans, enumerator counts {fig2_expected}")

    model = inputs.table2
    entries = first["pareto"].pareto.entries()
    if not entries:
        problems.append("table2 pareto: empty front")
    for _cost, plan in entries:
        for issue in plan_violations(
            plan, model.physical, model.costs, model.cluster, {"cpu": PARETO_ALPHA_CPU}
        ):
            problems.append(f"table2 pareto: {issue}")

    tuned = first["tuned"].thresholds
    tuned_vector = {d: tuned[d] for d in ("cpu", "io", "net")}
    admitted = CapsSearch(inputs.fig10b, thresholds=tuned_vector).run(
        SearchLimits(first_satisfying=True)
    )
    if admitted.best_plan is None:
        problems.append("autotune: tuned thresholds admit no plan")
    else:
        for issue in plan_violations(
            admitted.best_plan, inputs.fig10b.physical, inputs.fig10b.costs,
            inputs.fig10b.cluster, tuned_vector,
        ):
            problems.append(f"autotune plan: {issue}")

    for label, plan, cost_model in first["decisions"]:
        insensitive = set(cost_model.insensitive_dimensions())
        weights = {d: (0.01 if d in insensitive else 1.0) for d in ("cpu", "io", "net")}
        try:
            greedy = greedy_balanced_plan(cost_model, weights)
        except RuntimeError:
            continue
        chosen = cost_model.cost(plan).weighted_total(weights)
        warm = cost_model.cost(greedy).weighted_total(weights)
        if chosen > warm + 1e-12:
            problems.append(f"{label}: CAPS plan costs {chosen:.6g} > greedy {warm:.6g}")
        for issue in plan_violations(
            plan, cost_model.physical, cost_model.costs, cost_model.cluster, {}
        ):
            problems.append(f"{label}: {issue}")
    return problems

