"""Benchmark entry point: one workload per process.

Usage (from the repository root):

    python3 perfbench/run.py --workload record-runtime --seed 1 --seconds 30 --trace 0

The workload builds its inputs from ``--seed``, then repeats one fixed
round of operations until the rounds' wall times add up to
``--seconds``, and checks the first round's outputs against references
computed apart from the program. Each workload module provides
``Inputs(seed)``, ``run_round(inputs, counts, meter)``,
``operations_per_round(inputs)``, ``parts(inputs, out)`` and
``check(inputs, out)``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Times are in reference seconds (see ``hostspeed``): the process is
pinned to one CPU, and while an operation runs the main thread samples
that CPU's speed, so that a run does not read slower because the shared
host happened to be in its slower speed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics: work
counts, self time per layer from the traced rounds (wall time, the
speed samples' loops included), and the tracing overhead against the
untraced rounds in reference seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

# At most two threads: the main thread and the one running the current
# operation. Native thread pools are pinned before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

import hostspeed  # noqa: E402  (after the path set-up above)
from tracing import timed_in_thread  # noqa: E402

WORKLOADS = {
    "record-runtime": "record_runtime",
    "adaptive-control": "adaptive_control",
    "placement-search": "placement_search",
}

#: Input builds per run; set-up time reports the median.
SETUP_REPEATS = 3


def count_metrics(operators):
    """Work counts printed with ``--trace 1``, with their units.

    ``operators`` is ``record_runtime.OPERATORS``. A workload that does
    not touch a layer reports 0 for it.
    """
    return (
        [
            (f"runtime.records_{way}.{query}.{op}", "count")
            for query, ops in operators.items()
            for op in ops
            for way in ("in", "out")
        ]
        + [
            ("runtime.records_ingested", "count"),
            ("runtime.state.reads", "count"),
            ("runtime.state.writes", "count"),
            ("runtime.state.bytes_read", "B"),
            ("runtime.state.bytes_written", "B"),
            ("runtime.channel.puts", "count"),
            ("runtime.channel.blocked_puts", "count"),
            ("runtime.channel.overflow_puts", "count"),
            ("simulator.ticks_stepped", "count"),
            ("simulator.ticks_skipped", "count"),
            ("simulator.leaps", "count"),
            ("simulator.series_rows_built", "count"),
            ("controller.samples_drained", "count"),
            ("controller.rounds", "count"),
            ("controller.rescales", "count"),
            ("scaling.ds2_decisions", "count"),
            ("faults.injected", "count"),
            ("faults.rescales", "count"),
            ("placement.decisions", "count"),
            ("placement.fallbacks", "count"),
            ("core.search.runs", "count"),
            ("core.search.nodes", "count"),
            ("core.search.plans", "count"),
            ("core.search.pruned_slots", "count"),
            ("core.search.pruned_cpu", "count"),
            ("core.search.pruned_io", "count"),
            ("core.search.pruned_net", "count"),
            ("core.autotune.probes", "count"),
            ("core.autotune.probes_budget_ended", "count"),
        ]
    )


#: Each workload's own operations, from the untraced rounds of a traced
#: run: the end-to-end figures behind ``round_s``, one workload each.
PART_METRICS = [
    ("part.q1_records_per_s", "records/s"),
    ("part.q6_records_per_s", "records/s"),
    ("part.q2_records_per_s", "records/s"),
    ("part.sim_s_per_s", "sim-s/s"),
    ("part.decision_s", "s"),
    ("part.enumerate_s", "s"),
    ("part.pareto_s", "s"),
    ("part.autotune_s", "s"),
]


def _import_modules(module: str):
    """Import the benchmark's modules, and through them the program."""
    import importlib

    import probes
    import record_runtime
    import tracing

    return importlib.import_module(module), record_runtime, probes, tracing


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before any thread starts, so that every thread of the process runs
    # on the CPU whose speed the meter samples.
    hostspeed.pin_to_one_cpu()
    meter = hostspeed.SpeedMeter()

    # Set-up: the imports (once: a module loads once per process) and
    # the median of SETUP_REPEATS input builds, each timed like an
    # operation of a round.
    import_s, modules = timed_in_thread(
        meter, lambda: _import_modules(WORKLOADS[args.workload])
    )
    workload, record_runtime, probes, tracing = modules
    inputs_times = []
    for _ in range(SETUP_REPEATS):
        seconds, inputs = timed_in_thread(meter, lambda: workload.Inputs(args.seed))
        inputs_times.append(seconds)
    inputs_s = statistics.median(inputs_times)
    count_names = count_metrics(record_runtime.OPERATORS)

    def one_round(traced: bool):
        rc = probes.RoundCounts()
        patcher = tracing.Patcher()
        recorder = tracing.SpanRecorder() if traced else None
        probes.install_probes(patcher, rc)
        if traced:
            tracing.install_spans(patcher, recorder, probes.SPAN_TARGETS)
        started = time.perf_counter()
        try:
            if traced:
                root = recorder.open(probes.ROOT_LAYER)
            out = workload.run_round(inputs, rc, meter)
            if traced:
                recorder.close(root)
        finally:
            ended = time.perf_counter()
            patcher.restore()
        return {
            "wall": ended - started,
            "seconds": meter.reference_seconds(started, ended),
            "out": out, "rc": rc, "recorder": recorder,
        }

    # The run measures the rounds alone: set-up and the checks of the
    # first round's outputs do not count towards --seconds. Outputs are
    # dropped once checked, so peak memory does not grow with the number
    # of rounds.
    rounds = []
    problems = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(one_round(traced))
        if len(rounds) == 1:
            problems = workload.check(inputs, rounds[0]["out"])
        rounds[-1]["out"] = {"times": rounds[-1]["out"]["times"]}
        gc.collect()
        done = sum(r["wall"] for r in rounds) >= args.seconds
        if done and (not args.trace or len(rounds) >= 2):
            break

    reference_counts = dict(rounds[0]["rc"].counts)
    for index, r in enumerate(rounds[1:], start=1):
        if dict(r["rc"].counts) != reference_counts:
            problems.append(f"round {index}: work counts differ from round 0")
    unknown = set(reference_counts) - {name for name, _u in count_names}
    if unknown:
        problems.append(f"unlisted counts: {sorted(unknown)}")

    # Every round attempts the same operations, so the share of failed
    # ones does not depend on the number of rounds.
    attempted = workload.operations_per_round(inputs) * len(rounds)
    failed = sum(r["rc"].failed for r in rounds)

    metrics = {}
    if args.trace:
        untraced = [r["seconds"] for r in rounds if r["recorder"] is None]
        traced_rounds = [r for r in rounds if r["recorder"] is not None]
        selfs = [r["recorder"].self_times() for r in traced_rounds]
        for r, self_times in zip(traced_rounds, selfs):
            total = sum(self_times.values())
            span_wall = r["recorder"].root_duration()
            if abs(total - span_wall) > 1e-6 * span_wall:
                problems.append(f"self times sum to {total} s, traced wall {span_wall} s")
        metrics["setup.import_s"] = _metric(import_s, "s")
        metrics["setup.inputs_s"] = _metric(inputs_s, "s")
        for name, unit in count_names:
            metrics[name] = _metric(reference_counts.get(name, 0), unit)
        untraced_parts = [workload.parts(inputs, r["out"]) for r in rounds if r["recorder"] is None]
        for name, unit in PART_METRICS:
            metrics[name] = _metric(
                statistics.median(p.get(name, 0.0) for p in untraced_parts), unit
            )
        # Self times come from one traced round, the one of median wall
        # time, so that they sum to the reported traced wall time.
        ordered = sorted(zip(traced_rounds, selfs), key=lambda pair: pair[0]["wall"])
        middle, middle_selfs = ordered[(len(ordered) - 1) // 2]
        for layer in probes.SELF_TIME_LAYERS:
            metrics[layer] = _metric(middle_selfs.get(layer, 0.0), "s")
        metrics["trace.wall_s"] = _metric(middle["recorder"].root_duration(), "s")
        # Overhead in reference seconds, so the host's speed in each
        # round does not count.
        metrics["trace.overhead_pct"] = _metric(
            100.0 * (middle["seconds"] / statistics.median(untraced) - 1.0), "%"
        )
    else:
        metrics["setup_s"] = _metric(import_s + inputs_s, "s")
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        )
        metrics["round_s"] = _metric(statistics.median(r["seconds"] for r in rounds), "s")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    times = rounds[0]["out"]["times"]
    print(
        f"{args.workload} seed={args.seed}: rounds (wall/reference s) "
        + " ".join(
            f"{r['wall']:.3f}/{r['seconds']:.3f}{'T' if r['recorder'] else ''}" for r in rounds
        )
        + f"; setup {import_s:.3f}+{inputs_s:.3f}s"
        + "; first round "
        + ", ".join(f"{k}={v:.3f}s" for k, v in times.items()),
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
