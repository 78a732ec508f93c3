"""Representative frames and the timing loop for codec measurements.

The frames worth timing in isolation — no simulator, no event loop: a minimal
``Read``, a fully populated ``PreWrite`` (nested pairs and freeze directives),
a ``ReadAck`` (three pairs and a frozen entry: the costliest message of a
lucky operation), an 8-ack batch, and the frame of a saturated server in
``benchmarks/e2e`` (11 messages, ``ReadAck`` and ``PreWriteAck`` mixed).
``lucky-storage hotpath`` times them as its ``codec_encode`` / ``codec_decode``
components; the end-to-end ledger prices the codec in situ as
``wire.encode_us_per_frame`` / ``wire.decode_us_per_frame``.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from ..core.messages import Batch, Message, PreWrite, PreWriteAck, Read, ReadAck, WriteAck
from ..core.types import FreezeDirective, FrozenEntry, TimestampValue


def representative_payloads() -> List[Tuple[str, str, str, Message]]:
    """``(label, source, destination, message)`` frames worth measuring."""
    pw = TimestampValue(41, "value-41", "w")
    w = TimestampValue(40, "value-40", "w")
    prewrite = PreWrite(
        sender="w",
        register_id="k1",
        ts=41,
        pw=pw,
        w=w,
        frozen=(FreezeDirective("r1", w, 12), FreezeDirective("r2", pw, 13)),
    )
    batch = Batch(
        sender="s1",
        messages=tuple(
            WriteAck(sender="s1", register_id=f"k{i}", round=1, ts=41)
            for i in range(1, 9)
        ),
    )
    readack = ReadAck(
        sender="s1", register_id="k1", read_ts=7, pw=pw, w=w, vw=w, frozen=FrozenEntry(w, 7)
    )
    mixed = Batch(
        sender="s1",
        messages=tuple(
            ReadAck(sender="s1", register_id=f"k{i:05d}", read_ts=7, pw=pw, w=w, vw=w)
            if i % 2 == 0
            else PreWriteAck(sender="s1", register_id=f"k{i:05d}", ts=41)
            for i in range(11)
        ),
    )
    return [
        ("read", "r1", "s1", Read(sender="r1", read_ts=7)),
        ("prewrite", "w", "s1", prewrite),
        ("readack", "s1", "r1", readack),
        ("batch-8", "s1", "w", batch),
        ("batch-11-mixed", "s1", "r1", mixed),
    ]


def ops_per_second(fn: Callable[[], object], min_seconds: float = 0.05) -> float:
    """Single-thread throughput of *fn*, timed over at least *min_seconds*."""
    # Warm up (first-call caches, lazy imports), then scale the repetition
    # count until the timed window is long enough to trust.
    fn()
    repetitions = 4
    while True:
        started = time.perf_counter()
        for _ in range(repetitions):
            fn()
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds:
            return repetitions / elapsed
        repetitions *= 4
