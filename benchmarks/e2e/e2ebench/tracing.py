"""In-memory span recorder and the per-layer CPU ledger built from it.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``.  The recorder
also keeps *exclusive* time per span name while it records: at every span
boundary the time since the previous boundary is charged to the innermost
open span.  The event loop is single-threaded and every span brackets
synchronous code only (:func:`spanned_steps` closes the span of a coroutine
whenever it suspends), so spans nest strictly, exclusive wall time inside
spans is CPU time, and

    sum(self time per name) + unattributed == time.process_time()

is the ledger: the parts visibly sum to the whole.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict
from typing import Any, Coroutine, Dict, Generator, List, Optional


class Tracer:
    """Records spans while ``recording`` is true; a no-op otherwise."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._last_ns = 0

    def enter(self, name: str, op: Optional[str] = None) -> int:
        """Open a span; returns its index (``-1`` when not recording)."""
        if not self.recording:
            return -1
        now = time.perf_counter_ns()
        self._charge(now)
        index = len(self.spans)
        self.spans.append([name, now, now, self._stack[-1] if self._stack else -1, op])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        """Close the span *index* (a value :meth:`enter` returned)."""
        if index < 0:
            return
        now = time.perf_counter_ns()
        self._charge(now)
        self.spans[index][2] = now
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def _charge(self, now: int) -> None:
        if self._stack:
            self.self_ns[self.spans[self._stack[-1]][0]] += now - self._last_ns
        self._last_ns = now

    # ------------------------------------------------------------- summaries
    def durations_us(self, name: str) -> List[float]:
        """Durations (children included) of every closed span called *name*."""
        return [(s[2] - s[1]) / 1000.0 for s in self.spans if s[0] == name]

    def dump(self, path: str) -> None:
        """Write the spans as JSON (columnar, so the file stays small)."""
        names = sorted({s[0] for s in self.spans})
        code = {name: i for i, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["name", "start_ns", "end_ns", "parent", "op"],
                    "names": names,
                    "name": [code[s[0]] for s in self.spans],
                    "start_ns": [s[1] for s in self.spans],
                    "end_ns": [s[2] for s in self.spans],
                    "parent": [s[3] for s in self.spans],
                    "op": [s[4] for s in self.spans],
                },
                fh,
            )


@types.coroutine
def spanned_steps(
    tracer: Tracer, name: str, coroutine: Coroutine[Any, Any, Any]
) -> Generator[Any, Any, Any]:
    """Await *coroutine* with a span *name* open while it runs and closed
    while it is suspended.

    A span held across a real suspension would stay on top of the stack, and
    the event loop and whatever ran meanwhile would be charged to it.  So the
    coroutine is driven step by step: each stretch between two suspensions is
    a span of its own, and what it yields (the future it waits for) is handed
    up to the task unchanged.
    """
    resume, value = coroutine.send, None
    while True:
        span = tracer.enter(name)
        try:
            waits_for = resume(value)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer.exit(span)
        try:
            resume, value = coroutine.send, (yield waits_for)
        except BaseException as thrown:  # cancellation goes to the inner coroutine
            resume, value = coroutine.throw, thrown


def ledger(tracer: Tracer, process_cpu_s: float) -> Dict[str, float]:
    """Share of *process_cpu_s* spent in each span name's own code.

    The last row, ``ledger.unattributed``, is whatever no span covers (event
    loop, node plumbing, streams, the load generator), so the rows sum to 1.
    """
    if process_cpu_s <= 0:
        return {"ledger.unattributed": 1.0}
    rows = {
        name: ns / 1e9 / process_cpu_s for name, ns in sorted(tracer.self_ns.items())
    }
    rows["ledger.unattributed"] = 1.0 - sum(rows.values())
    return rows
