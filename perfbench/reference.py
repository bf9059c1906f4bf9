"""Computations made apart from the program, for the correctness checks."""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Dict, Mapping, Sequence, Tuple


def count_distinct_placements(parallelism: Sequence[int], workers: int, slots: int) -> int:
    """Placements of identical tasks on identical workers, up to symmetry.

    Tasks of one operator are interchangeable, and so are workers of one
    spec; a placement is then a multiset of ``workers`` per-worker count
    vectors (one count per operator, at most ``slots`` tasks in all)
    that sum to ``parallelism``. Counted by choosing the multiplicity of
    each possible count vector in turn.
    """
    target = tuple(parallelism)
    vectors = [
        v
        for v in itertools.product(*(range(min(p, slots) + 1) for p in target))
        if sum(v) <= slots
    ]
    states: Dict[Tuple[Tuple[int, ...], int], int] = {(target, workers): 1}
    for vector in vectors:
        grown: Dict[Tuple[Tuple[int, ...], int], int] = defaultdict(int)
        for (remaining, free), ways in states.items():
            left = remaining
            for used in range(free + 1):
                grown[(left, free - used)] += ways
                left = tuple(r - c for r, c in zip(left, vector))
                if min(left) < 0:
                    break
        states = grown
    return states.get((tuple(0 for _ in target), 0), 0)


def worker_loads(plan, physical, costs, worker_ids) -> Dict[str, Dict[int, float]]:
    """Per-worker cpu, io and net loads of a plan from ``TaskCosts``.

    cpu and io add up the utilisations of the tasks on a worker; net adds
    each task's output rate scaled by the share of its downstream links
    that leave the worker (sink tasks send nothing).
    """
    loads = {dim: {w: 0.0 for w in worker_ids} for dim in ("cpu", "io", "net")}
    assignment = plan.assignment
    for task in physical.tasks:
        worker = assignment[task.uid]
        loads["cpu"][worker] += costs.u_cpu[task.uid]
        loads["io"][worker] += costs.u_io[task.uid]
        links = physical.out_channels(task)
        if links:
            remote = sum(1 for link in links if assignment[link.dst.uid] != worker)
            loads["net"][worker] += costs.u_net[task.uid] * remote / len(links)
    return loads


def load_bounds(costs, workers: int, slots: int, thresholds: Mapping[str, float]):
    """Eq. 10 bound per dimension: ``L_min + alpha (L_max - L_min)``."""
    bounds: Dict[str, float] = {}
    for dim, table in (("cpu", costs.u_cpu), ("io", costs.u_io), ("net", costs.u_net)):
        alpha = thresholds.get(dim, float("inf"))
        if alpha == float("inf"):
            bounds[dim] = float("inf")
            continue
        values = sorted(table.values(), reverse=True)
        l_min = 0.0 if dim == "net" else sum(values) / workers
        l_max = sum(values[:slots])
        bounds[dim] = l_min + alpha * (l_max - l_min)
    return bounds


def plan_violations(plan, physical, costs, cluster, thresholds) -> list:
    """Slot and threshold violations of one plan, recomputed from scratch."""
    problems = []
    worker_ids = [w.worker_id for w in cluster.workers]
    slots = {w.worker_id: w.slots for w in cluster.workers}
    assignment = plan.assignment
    if set(assignment) != {t.uid for t in physical.tasks}:
        problems.append("plan does not assign every task exactly once")
        return problems
    per_worker = defaultdict(int)
    for worker in assignment.values():
        per_worker[worker] += 1
    for worker, count in per_worker.items():
        if worker not in slots or count > slots[worker]:
            problems.append(f"worker {worker} holds {count} tasks")
    loads = worker_loads(plan, physical, costs, worker_ids)
    bounds = load_bounds(costs, len(worker_ids), max(slots.values()), thresholds)
    for dim, bound in bounds.items():
        worst = max(loads[dim].values())
        if worst > bound * (1 + 1e-9) + 1e-9:
            problems.append(f"{dim} load {worst:.6g} above bound {bound:.6g}")
    return problems
