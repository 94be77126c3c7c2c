"""Per-layer metrics of one traced batch.

Counts come from the program's public state after the batch (links,
edge and fabric devices, results, the store); times come from the
tracer's spans; ``*.self_share`` comes from the stack sampler that ran
inside ``FabricNetwork.run``.  A layer that does not run on a workload
reports 0 for each of its metrics.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict

from layers import OTHER, REPORTED_LAYERS, Tracer
from workloads import SPECS, Batch, net_counts

from repro.experiments import runner


def sweep_counts(batch: Batch, networks) -> Dict[str, int]:
    """Network counters of an in-process sweep, summed over its cells."""
    specs = SPECS["sweep_store"](batch.extra["seed"])
    if len(networks) != len(specs):
        raise RuntimeError(
            f"traced sweep built {len(networks)} networks for "
            f"{len(specs)} cells"
        )
    totals: Dict[str, int] = {}
    for net, spec in zip(networks, specs):
        for key, value in net_counts(net, spec).items():
            if key != "sim.events":
                totals[key] = totals.get(key, 0) + value
    return totals


def _workload_start_s(tracer: Tracer) -> float:
    """Build end to first ``FabricNetwork.run``, summed over cells."""
    spans = sorted(tracer.spans, key=lambda s: s.start)
    total = 0.0
    for i, span in enumerate(spans):
        if span.name != "build_network":
            continue
        for later in spans[i + 1:]:
            if later.name == "FabricNetwork.run":
                total += later.start - span.end
                break
    return total


def _per_call_ms(tracer: Tracer, name: str) -> float:
    calls = tracer.count(name)
    return tracer.total(name) / calls * 1e3 if calls else 0.0


def layer_metrics(
    batch: Batch, tracer: Tracer, overhead_ratio: float
) -> Dict[str, float]:
    """Every per-layer metric of one traced batch."""
    counts = batch.counts
    shares = tracer.sampler.shares()
    run_s = tracer.total("FabricNetwork.run")
    events = counts["sim.events"]
    cells_sent = counts.get("core.cells_sent", 0)
    received = counts.get("core.cells_received", 0)
    offered = counts["transport.flows_offered"]
    hits, misses = batch.extra["cache_hits"], batch.extra["cache_misses"]
    metrics: Dict[str, float] = {
        "sim.events": events,
        "sim.link_tx_frames": counts.get("sim.link_tx_frames", 0),
        "sim.ns_per_event": run_s * shares["sim"] / events * 1e9,
        "core.cells_sent": cells_sent,
        "core.cells_forwarded": counts.get("core.cells_forwarded", 0),
        "core.credits_granted": counts.get("core.credits_granted", 0),
        "core.cells_out_of_order": counts.get("core.cells_out_of_order", 0),
        "core.in_order_ratio": (
            1 - counts["core.cells_out_of_order"] / received
            if received else 0.0
        ),
        "core.ns_per_cell": (
            run_s * shares["core"] / cells_sent * 1e9 if cells_sent else 0.0
        ),
        "baselines.drops": counts.get("baselines.drops", 0),
        "transport.flows_completed": counts["transport.flows_completed"],
        "transport.completion_ratio": (
            counts["transport.flows_completed"] / offered if offered else 0.0
        ),
        "workloads.start_s": _workload_start_s(tracer),
        "fabrics.build_s": tracer.total("build_network"),
        "fabrics.collect_s": tracer.total("collect_metrics"),
        "experiments.dispatch_s": tracer.total("run_matrix", self_time=True),
        "experiments.cache_hit_ratio": hits / max(1, hits + misses),
        "store.put_ms_per_cell": _per_call_ms(tracer, "RecordStore.put"),
        "store.flush_s": tracer.total("RecordStore.flush"),
        "store.get_ms_per_cell": _per_call_ms(tracer, "RecordStore.get"),
        "store.scan_s": tracer.total("scan_store"),
        "store.bytes_written": batch.extra["store_bytes"],
        "store.blocks": counts["store.blocks"],
        "telemetry.finalize_s": tracer.total("TelemetryCollector.finalize"),
        "runtime.gc_collections": tracer.gc_collections,
        "runtime.gc_pause_s": tracer.gc_pause_s,
        "runtime.other_share": shares[OTHER],
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in REPORTED_LAYERS:
        metrics[f"{layer}.self_share"] = shares[layer]
    return metrics


def telemetry_overhead(seed: int, repeats: int = 3) -> float:
    """Wall of one sweep cell with telemetry over the same cell without.

    The cell is the first telemetry-on cell of the sweep; the two
    variants alternate and each side reports its median.
    """
    spec = next(s for s in SPECS["sweep_store"](seed) if s.telemetry)
    plain = spec.with_updates(telemetry=None)
    on, off = [], []
    for _ in range(repeats):
        for variant, times in ((spec, on), (plain, off)):
            started = time.perf_counter()
            runner.run_spec(variant)
            times.append(time.perf_counter() - started)
    return statistics.median(on) / statistics.median(off)
