"""Layer spans and method wrapping for the benchmark's traced rounds.

A span records ``(layer, start, end, parent)`` around one call of a
public method. Spans are kept in memory and reduced to per-layer self
time when the round ends. Only one thread runs benchmark work at a time
(the main thread waits on each operation's thread), so one span stack
serves every thread.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from hostspeed import SAMPLE_PERIOD_S, SpeedMeter

_perf = time.perf_counter

#: Every wall-clock budget of the program (``timeout_s``,
#: ``search_timeout_s``, ``autotune_*_timeout_s``) is set to this, far
#: above any measured time, so no budget decides a result.
NO_DEADLINE_S = 1e6


class SpanRecorder:
    """In-memory span list with a parent stack.

    A span is the tuple ``(layer, start, end, parent_index)``; the index
    of a span is its position in :attr:`spans`, and the root span has
    parent ``-1``.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, _perf(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _perf()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span stack out of order")

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (layer, start, end, _parent) in enumerate(self.spans):
            totals[layer] += (end - start) - child[index]
        return dict(totals)

    def root_duration(self) -> float:
        return sum(end - start for _l, start, end, parent in self.spans if parent < 0)


class Patcher:
    """Replaces class attributes and restores them on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, object]] = []

    def replace(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, functools.wraps(original)(make(original)))

    def restore(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)


def span_wrapper(recorder: SpanRecorder, layer: str) -> Callable[[Callable], Callable]:
    def make(fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            index = recorder.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)

        return wrapped

    return make


def install_spans(patcher: Patcher, recorder: SpanRecorder, targets) -> None:
    """Wrap each ``(class, method, layer)`` target in a span.

    Install spans *after* probes, so the span is the outer wrapper and
    the probe's own bookkeeping is charged to the layer it observes.
    """
    for cls, name, layer in targets:
        patcher.replace(cls, name, span_wrapper(recorder, layer))


#: Local-variable slots of :func:`_run_on_large_chunk`'s frame (8 bytes
#: each): just over 256 KiB, so the frame opens a 512 KiB frame-stack
#: chunk with about 250 KiB left for the operation's own frames.
_LARGE_FRAME_SLOTS = 33_000


def _build_large_chunk_runner() -> Callable[[Callable[[], object]], object]:
    # The assignment after ``return`` never runs; it only declares the
    # locals that size the frame.
    names = " = ".join(f"v{i}" for i in range(_LARGE_FRAME_SLOTS))
    source = f"def run(fn):\n    return fn()\n    {names} = None\n"
    namespace: Dict[str, object] = {}
    exec(compile(source, "<large-frame>", "exec"), namespace)
    return namespace["run"]  # type: ignore[return-value]


_run_on_large_chunk = _build_large_chunk_runner()


def timed_in_thread(meter: SpeedMeter, fn: Callable[[], object]) -> Tuple[float, object]:
    """Run ``fn`` in a fresh thread and return ``(reference seconds, value)``.

    ``meter`` samples the host's speed while ``fn`` runs and converts its
    wall time to reference seconds (see :mod:`hostspeed`).

    CPython 3.11 keeps frames on a per-thread stack of chunks and frees a
    chunk as soon as its first frame returns. A deep recursion (the CAPS
    DFS) that oscillates across a chunk boundary therefore maps and
    unmaps memory on every crossing: on the Table 2 enumeration this
    took the same search from 8.6 s to 10.1, 19.6 and 27.8 s as one,
    two and three wrapper frames were added above it. A fresh thread
    starts every operation at the same depth, and calling it from a
    frame that fills most of a new 512 KiB chunk keeps the whole
    operation inside that one chunk, so timings do not depend on how
    many wrappers (probes, spans) sit above the call.
    """
    import threading

    out: Dict[str, object] = {}

    def work() -> None:
        try:
            out["value"] = _run_on_large_chunk(fn)
        except BaseException as exc:  # re-raised in the caller's thread
            out["error"] = exc

    worker = threading.Thread(target=work)
    meter.sample()
    start = _perf()
    worker.start()
    # The main thread samples the host's speed while the operation runs
    # (see hostspeed), and once more after it ends, however short it was.
    while True:
        worker.join(SAMPLE_PERIOD_S)
        meter.sample()
        if not worker.is_alive():
            break
    end = _perf()
    if "error" in out:
        raise out["error"]  # type: ignore[misc]
    return meter.reference_seconds(start, end), out["value"]  # type: ignore[return-value]

