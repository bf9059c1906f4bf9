"""Workload ``record-runtime``: Q1, Q6 and Q2 as sharded record pipelines.

One round runs the three queries once each with ``ShardedExecutor`` at
parallelism > 1 (semantic mode: no cluster, so no pacing) over seeded
Nexmark streams. Each stream spans several window lengths, so records/s
reflects steady window state rather than stream length, and each is
sized so that the three queries take comparable shares of the round.
Each query stresses a different part of the runtime:

- Q1 (hot items, Nexmark Q5): one global key, so the window
  accumulator holds every auction bid on in the window and the state
  sizer re-walks it on every access.
- Q6 (bid sessions, Nexmark Q11): many keys with small state; every
  watermark rescans the open sessions.
- Q2 (new-user auctions, Nexmark Q8): a two-input tumbling join with
  small state, so channels and the scheduler dominate.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from repro.dataflow.physical import PhysicalGraph
from repro.runtime.parallel import ShardedExecutor
from repro.runtime.queries import (
    bid_sessions_template,
    hot_items_template,
    new_user_auctions_template,
)
from repro.workloads.nexmark import (
    NexmarkGenerator,
    session_windows,
    sliding_window_hot_items,
    tumbling_window_join,
)
from repro.workloads.queries import q1_sliding, q2_join, q6_session

from tracing import timed_in_thread

#: Bid stream for Q6: 10,000 events at 100 events/s span 100 s, twenty
#: 5 s session gaps. Q1 reads the bids of its first ``Q1_SPAN_MS``
#: (four 10 s windows, sliding every 2 s): Q1 costs the most per record.
BID_EVENTS = 10_000
BID_EVENTS_PER_S = 100.0
Q1_SPAN_MS = 40_000
#: Person/auction stream for Q2: proportions 1:3:1 make persons and
#: auctions 80% of the events; 24,000 events at 200 events/s span 120 s,
#: twelve 10 s tumbling windows.
JOIN_EVENTS = 24_000
JOIN_EVENTS_PER_S = 200.0
Q1_WINDOW_MS, Q1_SLIDE_MS = 10_000, 2_000
Q6_GAP_MS = 5_000
Q2_WINDOW_MS = 10_000

#: Operators whose record counts are reported, per query.
OPERATORS = {
    "q1": ("map", "sliding_window"),
    "q6": ("map", "session_window"),
    "q2": ("map_persons", "map_auctions", "tumbling_join"),
}


class Inputs:
    def __init__(self, seed: int) -> None:
        bid_stream = NexmarkGenerator(
            seed=seed, events_per_second=BID_EVENTS_PER_S
        ).take(BID_EVENTS)
        self.bids = [event for kind, event in bid_stream if kind == "bid"]
        first_ms = self.bids[0].timestamp_ms
        self.q1_bids = [b for b in self.bids if b.timestamp_ms - first_ms < Q1_SPAN_MS]
        join_stream = NexmarkGenerator(
            seed=seed + 1_000_003,
            events_per_second=JOIN_EVENTS_PER_S,
            person_proportion=1,
            auction_proportion=3,
            bid_proportion=1,
        ).take(JOIN_EVENTS)
        self.persons = [e for kind, e in join_stream if kind == "person"]
        self.auctions = [e for kind, e in join_stream if kind == "auction"]
        self.physical = {
            "q1": PhysicalGraph.expand(q1_sliding(1, 2, 2)),
            "q6": PhysicalGraph.expand(q6_session(1, 2, 4)),
            "q2": PhysicalGraph.expand(q2_join(1, 2, 4)),
        }

    def template(self, query: str):
        if query == "q1":
            return hot_items_template(self.q1_bids, Q1_WINDOW_MS, Q1_SLIDE_MS)
        if query == "q6":
            return bid_sessions_template(self.bids, Q6_GAP_MS)
        return new_user_auctions_template(self.persons, self.auctions, Q2_WINDOW_MS)


def operations_per_round(_inputs: Inputs) -> int:
    return len(OPERATORS)


def run_round(inputs: Inputs, rc, meter) -> Dict[str, object]:
    """Run Q1, Q6 and Q2 once; return their times and outputs."""
    times: Dict[str, float] = {}
    outputs: Dict[str, List] = {}
    for query in OPERATORS:
        executor = ShardedExecutor(
            inputs.template(query), physical=inputs.physical[query]
        )
        seconds, result = timed_in_thread(meter, executor.run)
        times[query] = seconds
        outputs[query] = result.output_values()
        _count(rc, query, result)
    return {"times": times, "outputs": outputs}


def _count(rc, query: str, result) -> None:
    expected = set(OPERATORS[query])
    if set(result.operator_stats) != expected:
        raise RuntimeError(
            f"{query}: operators {sorted(result.operator_stats)} != {sorted(expected)}"
        )
    for name, stats in result.operator_stats.items():
        rc.add(f"runtime.records_in.{query}.{name}", stats.records_in)
        rc.add(f"runtime.records_out.{query}.{name}", stats.records_out)
    for stats in result.state_stats.values():
        rc.add("runtime.state.reads", stats.reads)
        rc.add("runtime.state.writes", stats.writes)
        rc.add("runtime.state.bytes_read", stats.bytes_read)
        rc.add("runtime.state.bytes_written", stats.bytes_written)
    for stats in result.channel_stats.values():
        rc.add("runtime.channel.puts", stats.enqueued)
        rc.add("runtime.channel.blocked_puts", stats.blocked_puts)
        rc.add("runtime.channel.overflow_puts", stats.overflow_puts)
    rc.add("runtime.records_ingested", result.records_ingested)


def parts(inputs: Inputs, out: Dict[str, object]) -> Dict[str, float]:
    """Records/s of each query in one round (records in / reference seconds)."""
    records = {
        "q1": len(inputs.q1_bids),
        "q6": len(inputs.bids),
        "q2": len(inputs.persons) + len(inputs.auctions),
    }
    return {
        f"part.{query}_records_per_s": records[query] / out["times"][query]
        for query in OPERATORS
    }


def check(inputs: Inputs, first: Dict[str, object]) -> List[str]:
    """Compare one round's outputs with the batch reference semantics."""
    problems: List[str] = []
    outputs = first["outputs"]

    q2_ref = tumbling_window_join(inputs.persons, inputs.auctions, Q2_WINDOW_MS)
    if Counter(outputs["q2"]) != Counter(q2_ref):
        problems.append("q2: join output differs from tumbling_window_join")

    q6_ref = session_windows(inputs.bids, Q6_GAP_MS)
    if Counter(outputs["q6"]) != Counter(q6_ref):
        problems.append("q6: sessions differ from session_windows")

    # A window is complete when the stream covers it from start to end:
    # it starts at or after the first bid's time and ends by the last.
    last_ts = max(bid.timestamp_ms for bid in inputs.q1_bids)
    first_ts = min(bid.timestamp_ms for bid in inputs.q1_bids)

    def complete(row) -> bool:
        end = row[0]
        return end - Q1_WINDOW_MS >= first_ts and end <= last_ts

    q1_ref = sorted(
        row
        for row in sliding_window_hot_items(inputs.q1_bids, Q1_WINDOW_MS, Q1_SLIDE_MS)
        if complete(row)
    )
    q1_out = sorted(row for row in outputs["q1"] if complete(row))
    if not q1_ref:
        problems.append("q1: stream holds no complete window")
    elif q1_out != q1_ref:
        problems.append("q1: hot items differ from sliding_window_hot_items")
    return problems
