"""Metric definitions and the arithmetic that turns raw stamps into numbers.

``END_TO_END`` and ``PER_LAYER`` are the source of the two metric lists in
``BENCHMARK.json`` (the smoke test holds them equal).  ``PER_LAYER`` also
records what the JSON contract has no field for: the layer a metric belongs
to, how it is measured, and the end-to-end metric and workload it should move.

Machine speed.  This sandbox runs the same code a quarter or more slower for
tens of seconds at a time, and every workload but one keeps its core busy, so
ten raw runs of one commit spread by up to 0.28 (README, *Noise and bounds*),
more than any bound the benchmark may set.  Every run therefore times a fixed reference
kernel while it measures (``workloads.reference_kernel``), and the four timed
end-to-end metrics are stated at the speed at which that kernel takes
``KERNEL_NOMINAL_S``; ``machine_scale`` is the whole rule.  The raw values are
reported beside them (``e2e.raw_*``, ``harness.machine_factor``); counts,
``fast_rate``, ``peak_rss_mb``, ``setup_s`` and every per-layer time are as
measured.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

from .workloads import RawRun

#: Reference-kernel time that reads as machine factor 1.0: about what the
#: kernel takes on this sandbox when it is quiet.  It only fixes the unit:
#: two commits are compared at the same nominal speed whatever it is.
KERNEL_NOMINAL_S = 70e-6
SLICES = 3

#: name, unit, better, bound (share of the parent's median it may worsen by).
#: Derived from five sets of ten runs per workload (README, *Noise and bounds*).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("fast_rate", "share", "higher", 0.02),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
]

ASYNCIO = ("tcp_lucky_c2", "tcp_lucky_c8", "tcp_saturate_c64", "mem_durable_w_c64", "mem_leased_c8")
EVERY = (*ASYNCIO, "sim_faulty_zipf")
#: "moves" of a metric that is a check or a diagnostic and should move no timed metric.
NONE = "none"

# name | unit | better | layer | how it is measured | end-to-end metric it
# should move | workloads it should move it on ("asyncio", "all" or names).
# The ``e2e.*`` rows are end-to-end quantities that are reported, not gated:
# too unsteady here for a bound of at most 0.25, always zero, or the raw value
# of a gated metric.
_PER_LAYER_TABLE = """
e2e.write_p99_ms              | ms    | lower  | end to end        | stamps             | write_p50_ms  | asyncio
e2e.read_p99_ms               | ms    | lower  | end to end        | stamps             | read_p50_ms   | asyncio
e2e.op_fail_rate              | share | lower  | end to end        | stamps + checker   | none          | all
e2e.latency_samples           | count | higher | end to end        | stamps             | none          | all
e2e.raw_ops_per_s             | ops/s | higher | end to end        | stamps             | ops_per_s     | all
e2e.raw_cpu_ms_per_op         | ms    | lower  | end to end        | stamps             | cpu_ms_per_op | all
e2e.raw_write_p50_ms          | ms    | lower  | end to end        | stamps             | write_p50_ms  | all
e2e.raw_read_p50_ms           | ms    | lower  | end to end        | stamps             | read_p50_ms   | all
wire.encode_us_per_frame      | us    | lower  | wire              | in situ            | cpu_ms_per_op | tcp_saturate_c64
wire.decode_us_per_frame      | us    | lower  | wire              | in situ            | cpu_ms_per_op | tcp_saturate_c64
wire.bytes_per_op             | B     | lower  | wire              | transport counters | ops_per_s     | tcp_saturate_c64
wire.cpu_share                | share | lower  | wire              | in situ            | cpu_ms_per_op | tcp_saturate_c64
transport.frames_per_op       | count | lower  | runtime.transport | transport counters | ops_per_s     | tcp_saturate_c64
transport.msgs_per_frame      | count | higher | runtime.transport | in situ            | ops_per_s     | tcp_saturate_c64
transport.send_us_per_frame   | us    | lower  | runtime.transport | in situ            | cpu_ms_per_op | tcp_saturate_c64
transport.flight_us_per_frame | us    | lower  | runtime.transport | in situ            | write_p50_ms  | tcp_saturate_c64
node.mailbox_wait_us          | us    | lower  | runtime.node      | in situ            | write_p50_ms  | tcp_saturate_c64
node.timers_armed_per_op      | count | lower  | runtime.node      | in situ            | cpu_ms_per_op | mem_durable_w_c64
ledger.unattributed_cpu_share | share | lower  | runtime.node      | in situ            | cpu_ms_per_op | tcp_saturate_c64
store.client_invoke_us_per_op | us    | lower  | store             | in situ            | cpu_ms_per_op | asyncio
store.client_step_us_per_msg  | us    | lower  | store             | in situ            | cpu_ms_per_op | asyncio
store.server_step_us_per_msg  | us    | lower  | store             | in situ            | cpu_ms_per_op | asyncio
store.route_us_per_msg        | us    | lower  | store             | replay             | cpu_ms_per_op | asyncio
core.rounds_per_op            | count | lower  | core              | completions        | write_p50_ms  | sim_faulty_zipf
core.msgs_per_op              | count | lower  | core              | in situ            | cpu_ms_per_op | tcp_lucky_c8
core.quorum_wait_ms           | ms    | lower  | core              | in situ            | write_p50_ms  | tcp_lucky_c8
core.timer_wait_ms            | ms    | lower  | core              | in situ            | write_p50_ms  | tcp_lucky_c8
core.server_step_us_per_msg   | us    | lower  | core              | replay             | cpu_ms_per_op | asyncio
lease.hit_rate                | share | higher | lease             | completions        | read_p50_ms   | mem_leased_c8
lease.acquire_ms              | ms    | lower  | lease             | stamps             | read_p50_ms   | mem_leased_c8
lease.revoking_write_ms       | ms    | lower  | lease             | stamps             | write_p50_ms  | mem_leased_c8
lease.server_step_us_per_msg  | us    | lower  | lease             | replay             | cpu_ms_per_op | mem_leased_c8
persist.appends_per_op        | count | lower  | persist           | replay             | write_p50_ms  | mem_durable_w_c64
persist.records_per_append    | count | higher | persist           | replay             | ops_per_s     | mem_durable_w_c64
persist.wal_bytes_per_op      | B     | lower  | persist           | replay             | ops_per_s     | mem_durable_w_c64
persist.append_ms_fsync_on    | ms    | lower  | persist           | replay             | write_p50_ms  | mem_durable_w_c64
persist.append_ms_fsync_off   | ms    | lower  | persist           | replay             | write_p50_ms  | mem_durable_w_c64
persist.step_us_per_msg       | us    | lower  | persist           | replay             | cpu_ms_per_op | mem_durable_w_c64
persist.recover_ms            | ms    | lower  | persist           | epilogue           | setup_s       | mem_durable_w_c64
persist.lost_acked_writes     | count | lower  | persist           | epilogue           | none          | mem_durable_w_c64
verify.check_ms_per_kop       | ms    | lower  | verify            | direct call        | none          | all
sim.events_per_s              | 1/s   | higher | sim               | store counters     | ops_per_s     | sim_faulty_zipf
sim.events_per_op             | count | lower  | sim               | store counters     | cpu_ms_per_op | sim_faulty_zipf
sim.msgs_per_op               | count | lower  | sim               | store counters     | cpu_ms_per_op | sim_faulty_zipf
sim.bytes_per_op              | B     | lower  | sim               | store counters     | cpu_ms_per_op | sim_faulty_zipf
harness.machine_factor        | ratio | lower  | harness           | reference kernel   | none          | all
trace.overhead_share          | share | lower  | harness           | both runs          | none          | asyncio
"""


def _parse(table: str) -> List[Tuple[str, str, str, str, str, str, Tuple[str, ...]]]:
    groups = {"asyncio": ASYNCIO, "all": EVERY}
    rows = []
    for line in table.strip().splitlines():
        *fields, on = (cell.strip() for cell in line.split("|"))
        rows.append((*fields, groups.get(on) or tuple(on.split())))
    return rows


PER_LAYER = _parse(_PER_LAYER_TABLE)


def percentile(sorted_values: Sequence[float], share: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(len(sorted_values) * share))]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def machine_scale(factor: float, busy: float) -> Tuple[float, float]:
    """What a slice's CPU time and its wall times are multiplied by.

    *factor* is the slice's mean kernel time over the nominal one, *busy* its
    CPU time over its wall time.  CPU time follows machine speed outright.  A
    wall time (a latency, the time per operation) follows it only through
    queueing for the core, which sets in near saturation, so the correction is
    weighted by the busy share cubed: 0.06 of it at 40 % busy, where a timer
    and not the core sets the pace, 0.97 at 99 %.
    """
    weight = busy**3
    return 1.0 / factor, weight / factor + (1.0 - weight)


def slice_metrics(raw: RawRun) -> List[Dict[str, float]]:
    """The timed metrics of each of the run's ``SLICES`` consecutive slices.

    The slices share their boundaries, which are sampler ticks: a slice's wall
    time and CPU time are read at the same two instants, its kernel samples
    are the ticks in between, and it owns the operations stamped complete
    after its first tick and up to its last.  (A simulated operation is
    stamped with the tick that followed its segment, so it lands in the slice
    that spent the time on it.)  Latencies are those of the operations that
    completed in the slice.
    """
    samples = raw.samples
    ops = sorted(raw.ops, key=lambda op: op[4])
    cuts = [round(index * (len(samples) - 1) / SLICES) for index in range(SLICES + 1)]
    out = []
    position = 0
    while position < len(ops) and ops[position][4] <= samples[0][0]:
        position += 1
    for first, last in zip(cuts, cuts[1:]):
        (started, cpu_started, _), (finished, cpu_finished, _) = samples[first], samples[last]
        begin = position
        while position < len(ops) and ops[position][4] <= finished:
            position += 1
        done = ops[begin:position]
        if not done or finished <= started:
            continue
        latencies: Dict[str, List[float]] = {"write": [], "read": []}
        for op in done:
            latencies[op[5].kind].append((op[4] - op[3]) * 1000.0)
        wall, cpu = finished - started, cpu_finished - cpu_started
        factor = mean([sample[2] for sample in samples[first : last + 1]]) / KERNEL_NOMINAL_S
        cpu_scale, wall_scale = machine_scale(factor, min(1.0, cpu / wall))
        row = {
            "factor": factor,
            "raw.ops_per_s": len(done) / wall,
            "raw.cpu_ms_per_op": cpu * 1000.0 / len(done),
        }
        row["ops_per_s"] = row["raw.ops_per_s"] / wall_scale
        row["cpu_ms_per_op"] = row["raw.cpu_ms_per_op"] * cpu_scale
        for kind, values in latencies.items():
            values.sort()
            row[f"{kind}_samples"] = float(len(values))
            row[f"raw.{kind}_p50_ms"] = percentile(values, 0.50)
            row[f"raw.{kind}_p99_ms"] = percentile(values, 0.99)
            row[f"{kind}_p50_ms"] = row[f"raw.{kind}_p50_ms"] * wall_scale
        out.append(row)
    return out


def window_ops(raw: RawRun) -> List[tuple]:
    """The operations that completed inside the measured window."""
    begin, end = raw.window
    return [op for op in raw.ops if begin < op[4] <= end]


def fast_rate(raw: RawRun) -> float:
    """Share of the window's operations that took at most one round.  A ratio
    of counts over the whole window, so on the simulator it repeats exactly."""
    ops = window_ops(raw)
    return sum(1 for op in ops if op[5].fast) / len(ops) if ops else 0.0


def median_of(rows: List[Dict[str, float]], name: str) -> float:
    values = [row[name] for row in rows if name in row]
    return statistics.median(values) if values else 0.0


def spread_of(rows: List[Dict[str, float]], name: str) -> Tuple[float, float]:
    values = [row[name] for row in rows if name in row]
    return (min(values), max(values)) if values else (0.0, 0.0)


def lease_metrics(raw: RawRun) -> Dict[str, float]:
    """Hit rate, and the latency of the two operations a lease makes slow."""
    begin, end = raw.window
    by_key: Dict[Any, list] = {}
    for op in sorted(raw.ops, key=lambda op: op[3]):
        by_key.setdefault(op[0], []).append(op)
    reads = hits = 0
    acquire: List[float] = []
    revoking: List[float] = []
    for ops in by_key.values():
        previous_hit = False
        for op in ops:
            completion = op[5]
            hit = completion.kind == "read" and completion.rounds == 0
            if begin <= op[4] <= end:
                latency_ms = (op[4] - op[3]) * 1000.0
                if completion.kind == "read":
                    reads += 1
                    hits += hit
                    if not hit:
                        acquire.append(latency_ms)
                elif previous_hit:
                    revoking.append(latency_ms)
            previous_hit = hit
    return {
        "lease.hit_rate": hits / reads if reads else 0.0,
        "lease.acquire_ms": statistics.median(acquire) if acquire else 0.0,
        "lease.revoking_write_ms": statistics.median(revoking) if revoking else 0.0,
    }
