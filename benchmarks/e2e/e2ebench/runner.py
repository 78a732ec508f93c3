"""One run of one workload: measure, check, work the metrics out, print them."""

from __future__ import annotations

import asyncio
import os
import statistics
from typing import Any, Dict, List, Tuple

from . import adapter, metrics, tracing, workloads


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run *name* once; returns ``{correct, attempted, failed, metrics}``."""
    workload = workloads.WORKLOADS[name]
    if workload.simulated:
        return _run_simulated(workload, seed, seconds, trace)
    return asyncio.run(_run_asyncio(workload, seed, seconds, trace))


def _verify(raw: Any, records: Dict[str, list], mwmr: bool) -> Tuple[int, float]:
    """Check every key; returns (failed operations, checker seconds)."""
    violations, check_s = adapter.check_histories(records, mwmr)
    for key, violation in violations.items():
        print(f"ATOMICITY VIOLATION on {key}: {violation}")
    for failure in raw.failures:
        print(f"FAILED: {failure}")
    failed = len(raw.failures) + sum(len(records[key]) for key in violations)
    return failed, check_s


async def _run_asyncio(workload: Any, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    if not trace:
        setup_s = statistics.median(await workloads.measure_setup(workload))
        raw = await workloads.run_async(workload, seed, seconds)
        failed, _ = _verify(raw, workloads.records_by_key(raw), workload.leased)
        rows = metrics.slice_metrics(raw)
        values = _end_to_end(rows, raw, setup_s)
        _print_end_to_end(workload.name, rows, values)
        return _result(raw.attempted, failed, values, metrics.END_TO_END)

    plain = await workloads.run_async(workload, seed, seconds / 2)
    traced = await workloads.run_async(workload, seed, seconds / 2, traced=True)
    failed = attempted = 0
    check_s = checked = 0.0
    for raw in (plain, traced):
        records = workloads.records_by_key(raw)
        bad, seconds_checking = _verify(raw, records, workload.leased)
        failed += bad
        attempted += raw.attempted
        check_s += seconds_checking
        checked += len(raw.ops)
    values = _per_layer_asyncio(workload, plain, traced)
    values["e2e.op_fail_rate"] = failed / attempted
    values["verify.check_ms_per_kop"] = check_s * 1000.0 / (checked / 1000.0)
    _print_per_layer(workload.name, values)
    return _result(attempted, failed, values, metrics.PER_LAYER)


def _run_simulated(workload: Any, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    setup_s = statistics.median(workloads.measure_sim_setup())
    simulated, blocking, handles = workloads.run_sim(workload, seed, seconds)
    attempted = simulated.attempted + blocking.attempted
    failed, check_s = _verify(simulated, adapter.sim_records(handles), False)
    # Throughput, CPU and fast_rate from the simulated workload (its slices
    # are 8 segments each); the two latencies from the blocking calls after it.
    rows = metrics.slice_metrics(simulated)
    for row, calls in zip(rows, metrics.slice_metrics(blocking)):
        row.update(
            {name: value for name, value in calls.items() if "_p50_" in name or "_p99_" in name}
        )
        row.update(write_samples=calls["write_samples"], read_samples=calls["read_samples"])
    if not trace:
        values = _end_to_end(rows, simulated, setup_s)
        _print_end_to_end(workload.name, rows, values)
        return _result(attempted, failed, values, metrics.END_TO_END)
    counters = simulated.counters
    operations = float(simulated.attempted)
    wall = simulated.window[1] - simulated.window[0]
    values = _reported_end_to_end(rows)
    values.update(
        {
            "e2e.op_fail_rate": failed / attempted,
            "core.rounds_per_op": metrics.mean([op[5].rounds for op in simulated.ops]),
            "verify.check_ms_per_kop": check_s * 1000.0 / (len(handles) / 1000.0),
            "sim.events_per_s": counters["events"] / wall,
            "sim.events_per_op": counters["events"] / operations,
            "sim.msgs_per_op": counters["messages"] / operations,
            "sim.bytes_per_op": counters["bytes"] / operations,
        }
    )
    _print_per_layer(workload.name, values)
    return _result(attempted, failed, values, metrics.PER_LAYER)


def _end_to_end(rows: List[Dict[str, float]], raw: Any, setup_s: float) -> Dict[str, float]:
    values = {
        name: metrics.median_of(rows, name)
        for name in ("ops_per_s", "write_p50_ms", "read_p50_ms", "cpu_ms_per_op")
    }
    values["fast_rate"] = metrics.fast_rate(raw)
    values["peak_rss_mb"] = raw.peak_rss_mb
    values["setup_s"] = setup_s
    return values


def _reported_end_to_end(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """The end-to-end quantities that are reported with the per-layer metrics."""
    return {
        "e2e.write_p99_ms": metrics.median_of(rows, "raw.write_p99_ms"),
        "e2e.read_p99_ms": metrics.median_of(rows, "raw.read_p99_ms"),
        "e2e.latency_samples": min(
            metrics.median_of(rows, "write_samples"), metrics.median_of(rows, "read_samples")
        ),
        "e2e.raw_ops_per_s": metrics.median_of(rows, "raw.ops_per_s"),
        "e2e.raw_cpu_ms_per_op": metrics.median_of(rows, "raw.cpu_ms_per_op"),
        "e2e.raw_write_p50_ms": metrics.median_of(rows, "raw.write_p50_ms"),
        "e2e.raw_read_p50_ms": metrics.median_of(rows, "raw.read_p50_ms"),
        "harness.machine_factor": metrics.median_of(rows, "factor"),
    }


def _per_layer_asyncio(workload: Any, plain: Any, traced: Any) -> Dict[str, float]:
    plain_rows = metrics.slice_metrics(plain)
    traced_rows = metrics.slice_metrics(traced)
    values = _reported_end_to_end(plain_rows)
    trace = traced.trace
    tracer = trace.tracer
    ops = metrics.window_ops(traced)
    count = float(len(ops))
    us = metrics.mean

    shares = tracing.ledger(tracer, traced.process_cpu_s)
    _print_ledger(workload.name, shares, traced.process_cpu_s)
    encode = tracer.durations_us("wire.encode")
    values.update(
        {
            "wire.encode_us_per_frame": us(encode),
            "wire.decode_us_per_frame": us(tracer.durations_us("wire.decode")),
            "wire.bytes_per_op": traced.wire_bytes / count,
            "wire.cpu_share": sum(v for k, v in shares.items() if k.startswith("wire.")),
            "transport.frames_per_op": traced.frames / count,
            "transport.msgs_per_frame": trace.messages / max(1, trace.frames),
            "transport.send_us_per_frame": tracer.self_ns["transport.send"]
            / 1000.0
            / max(1, trace.frames),
            "transport.flight_us_per_frame": us(trace.flight_ns) / 1000.0,
            "node.mailbox_wait_us": us(trace.mailbox_wait_ns) / 1000.0,
            "node.timers_armed_per_op": trace.timers_armed / count,
            "ledger.unattributed_cpu_share": shares["ledger.unattributed"],
            "store.client_invoke_us_per_op": us(tracer.durations_us("store.client_invoke")),
            "store.client_step_us_per_msg": us(tracer.durations_us("store.client_step")),
            "store.server_step_us_per_msg": us(tracer.durations_us("store.server_step")),
            "core.rounds_per_op": us([op[5].rounds for op in ops]),
            "core.msgs_per_op": trace.messages / count,
            "core.quorum_wait_ms": us(trace.quorum_wait_ns) / 1e6,
            "core.timer_wait_ms": us(trace.timer_wait_ns) / 1e6,
            "trace.overhead_share": 1.0
            - metrics.median_of(traced_rows, "ops_per_s")
            / metrics.median_of(plain_rows, "ops_per_s"),
        }
    )
    if workload.leased:
        values.update(metrics.lease_metrics(plain))

    with workloads.wal_directory("replay", workload.durable) as wal_dir:
        replay = adapter.replay_layers(
            workloads.async_config(workload),
            workloads.keys_of(workloads.NUM_KEYS),
            trace.server_inputs,
            workload.leased,
            wal_dir,
        )
    messages = max(1.0, replay["messages"])
    values["core.server_step_us_per_msg"] = replay["core_s"] * 1e6 / messages
    values["store.route_us_per_msg"] = (replay["store_s"] - replay["core_s"]) * 1e6 / messages
    if workload.leased:
        values["lease.server_step_us_per_msg"] = (
            (replay["lease_s"] - replay["store_s"]) * 1e6 / messages
        )
    if workload.durable:
        appends = max(1.0, replay["appends"])
        values.update(
            {
                "persist.appends_per_op": replay["appends"] / count,
                "persist.records_per_append": replay["records"] / appends,
                "persist.wal_bytes_per_op": replay["wal_bytes"] / count,
                "persist.append_ms_fsync_on": replay["append_on_s"] * 1000.0 / appends,
                "persist.append_ms_fsync_off": replay["append_off_s"] * 1000.0 / appends,
                "persist.step_us_per_msg": (replay["durable_mem_s"] - replay["lease_s"])
                * 1e6
                / messages,
                "persist.recover_ms": plain.counters["recover_ms"],
                "persist.lost_acked_writes": plain.counters["lost_acked_writes"]
                + traced.counters["lost_acked_writes"],
            }
        )
    spans_path = os.path.join(workloads.RUN_DIR, f"spans-{workload.name}.json")
    os.makedirs(workloads.RUN_DIR, exist_ok=True)
    tracer.dump(spans_path)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path)}")
    return values


def _result(
    attempted: int, failed: int, values: Dict[str, float], table: List[tuple]
) -> Dict[str, Any]:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            row[0]: {"value": float(values.get(row[0], 0.0)), "unit": row[1]} for row in table
        },
    }


# --------------------------------------------------------------------------- #
# printing
# --------------------------------------------------------------------------- #


def _print_end_to_end(
    name: str, rows: List[Dict[str, float]], values: Dict[str, float]
) -> None:
    factor = metrics.median_of(rows, "factor")
    samples = min(metrics.median_of(rows, "write_samples"), metrics.median_of(rows, "read_samples"))
    print(
        f"{name}: median of {len(rows)} slices, stated at machine factor 1 (measured "
        f"{factor:.3f}, raw beside), >= {samples:.0f} latency samples per kind and slice"
    )
    for metric, unit, _better, _bound in metrics.END_TO_END:
        line = f"  {metric:<16} {values[metric]:>12.4f} {unit:<6}"
        if any(metric in row for row in rows):
            low, high = metrics.spread_of(rows, metric)
            line += f" slices {low:.4f} .. {high:.4f}"
        if any(f"raw.{metric}" in row for row in rows):
            line += f"   raw {metrics.median_of(rows, 'raw.' + metric):.4f}"
        print(line)


def _print_per_layer(name: str, values: Dict[str, float]) -> None:
    print(f"{name}: per-layer metrics (0 where a layer is not on this workload's path)")
    for metric, unit, _better, layer, how, _moves, _on in metrics.PER_LAYER:
        print(f"  {metric:<32} {values.get(metric, 0.0):>14.4f} {unit:<6} {layer}, {how}")


def _print_ledger(name: str, shares: Dict[str, float], cpu_s: float) -> None:
    print(f"{name}: CPU ledger of the traced slice ({cpu_s:.3f} s of process CPU)")
    for row, share in shares.items():
        print(f"  {row:<28} {share * 100.0:>6.1f} %")
    print(f"  {'total':<28} {sum(shares.values()) * 100.0:>6.1f} %")
