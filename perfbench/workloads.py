"""The benchmark workloads: specs from a seed, one batch each.

Every workload is a fixed batch run by one client in a closed loop,
through the same four phases a user's sweep goes through:

* **simulate** -- the batch's real cells (``run_spec_with_network`` for
  ``perm_stardust``, ``run_matrix`` on shards for the sweep);
* **ingest** -- cells ``put`` + ``flush`` into a fresh ``RecordStore``;
* **reread** -- ``run_matrix`` over every stored spec, all from cache;
* **query** -- a selector query plus ``aggregate``, then a CRC-verified
  ``scan_store``.

``perm_stardust`` stores only its own cell, so its store phases are
small; ``sweep_store`` adds a synthetic history of N cells.
A store phase shorter than ``MIN_PHASE_S`` (or a tenth of the batch's
phases before it) is repeated, on fresh stores for ingest, until the
repetitions add up to it; its per-cell figure is the fastest
repetition, and ``wall_s`` counts only the first pass.

Specs depend on the seed alone.  The program sees only the specs.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments import runner
from repro.experiments.registry import build_scenario
from repro.experiments.spec import ScenarioSpec, TopologySpec
from repro.experiments.summarize import aggregate
from repro.perf.digest import run_digest, values_hash
from repro.sim.stats import percentile
from repro.sim.units import MICROSECOND
from repro.store import query
from repro.store.cells import RecordStore
from repro.store.synth import synthetic_cells

#: The seed whose digests and counts are pinned in ``pins.json``.
DEFAULT_SEED = 1
#: Store phases shorter than this, or than ``REPEAT_SHARE`` of the
#: batch's phases before them, are repeated until they add up to it.
MIN_PHASE_S = 0.5
REPEAT_SHARE = 0.1
#: Synthetic history cells in ``sweep_store``: about 160 records in
#: each of the 8 default shards (at least 128 on the seeds tried), so
#: every shard holds a full default block of 128 records that each
#: cache hit in it decompresses and decodes whole, as on a real store.
SWEEP_HISTORY_CELLS = 1280
#: Worker processes of the ``sweep_store`` sweep phase.
SWEEP_SHARDS = 2

WORKLOADS = ("perm_stardust", "sweep_store")


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------


def perm_specs(seed: int) -> List[ScenarioSpec]:
    """Fig 10(a): permutation on Stardust, default 32-host two-tier."""
    return [
        build_scenario(
            "permutation", kind="stardust", seed=seed,
            warmup_ns=250 * MICROSECOND, measure_ns=750 * MICROSECOND,
        )
    ]


def sweep_specs(seed: int) -> List[ScenarioSpec]:
    """Small real cells on one-tier fabrics, both fabrics, 3 sub-seeds.

    Mixes incast, many_to_many, uniform_random and the faulted
    ``incast_element_failure``; the incast cells run with telemetry on.
    The 16-host many_to_many cells give the pooled p99 FCT about 1200
    samples: with 8 hosts it rested on about 400 and spread 28% across
    seeds.
    """
    small = TopologySpec(
        "one_tier", dict(num_fas=4, uplinks_per_fa=2, hosts_per_fa=2)
    )
    timeout = 20_000 * MICROSECOND
    telemetry = {"sample_interval_ns": 20_000}
    specs = []
    for k in range(3):
        cell_seed = 3 * seed + k
        for kind, m2m_kind in (("stardust", "stardust"), ("dctcp", "tcp")):
            specs.append(
                build_scenario(
                    "incast", kind=kind, seed=cell_seed, n_backends=8,
                    response_bytes=100_000, timeout_ns=timeout,
                ).with_updates(telemetry=telemetry)
            )
            specs.append(
                build_scenario(
                    "many_to_many", kind=m2m_kind, seed=cell_seed,
                    num_fas=4, hosts_per_fa=4, flow_bytes=64_000,
                    timeout_ns=timeout,
                )
            )
            specs.append(
                build_scenario(
                    "uniform_random", kind=kind, seed=cell_seed,
                    topology=small, warmup_ns=100 * MICROSECOND,
                    measure_ns=300 * MICROSECOND,
                )
            )
            specs.append(
                build_scenario(
                    "incast_element_failure", kind=kind, seed=cell_seed,
                    n_backends=8, response_bytes=100_000,
                    timeout_ns=timeout,
                )
            )
    return specs


def history_cells(seed: int):
    """The synthetic history ``sweep_store`` ingests first."""
    return list(synthetic_cells(SWEEP_HISTORY_CELLS, seed=100 * seed))


SPECS: Dict[str, Callable[[int], List[ScenarioSpec]]] = {
    "perm_stardust": perm_specs,
    "sweep_store": sweep_specs,
}

#: The selector of each workload's query phase.
SELECTORS = {
    "perm_stardust": "scenario=permutation",
    "sweep_store": "scenario=incast",
}


# ----------------------------------------------------------------------
# Reading the program's public state
# ----------------------------------------------------------------------


def all_links(net, spec: ScenarioSpec) -> List[Any]:
    """Every simplex link of ``net``: fabric, edge->host and host->edge."""
    links = {id(link): link for link in net.fabric_links()}
    for device in net.edge_devices():
        for port in getattr(device, "egress_ports", ()):
            links[id(port.link)] = port.link
        for port in getattr(device, "eth_ports", ()):
            links[id(port.out)] = port.out
    for address in spec.topology.addresses():
        try:
            host = net.host_at(address)
        except KeyError:
            continue
        for link in host.ports:
            links[id(link)] = link
    return list(links.values())


def net_counts(net, spec: ScenarioSpec) -> Dict[str, int]:
    """Deterministic work counters of one finished network."""
    counts = {
        "sim.events": net.sim.events_fired,
        "sim.link_tx_frames": sum(
            link.tx_frames for link in all_links(net, spec)
        ),
        "core.cells_sent": 0,
        "core.cells_forwarded": 0,
        "core.credits_granted": 0,
        "core.cells_received": 0,
        "core.cells_out_of_order": 0,
        "baselines.drops": 0,
    }
    if net.fabric_name == "stardust":
        fas = net.edge_devices()
        counts["core.cells_sent"] = sum(fa.cells_sent for fa in fas)
        counts["core.cells_forwarded"] = sum(
            fe.cells_forwarded for fe in net.fabric_devices()
        )
        counts["core.credits_granted"] = sum(
            port.scheduler.credits_granted
            for fa in fas for port in fa.egress_ports
        )
        counts["core.cells_received"] = sum(
            fa.reassembly.cells_received for fa in fas
        )
        counts["core.cells_out_of_order"] = sum(
            fa.reassembly.cells_out_of_order for fa in fas
        )
    else:
        counts["baselines.drops"] = net.collect_metrics().total_drops
    return counts


def offered_flows(spec: ScenarioSpec, result) -> int:
    """Finite flows a cell offered (0 for long-lived permutation flows)."""
    if "offered_flows" in result.metrics:
        return int(result.metrics["offered_flows"])
    if spec.workload["kind"] == "incast":
        return int(spec.workload["n_backends"])
    return 0


def result_dict(result) -> Dict[str, Any]:
    """A result's stored form minus wall-clock telemetry metadata."""
    data = result.to_dict()
    if "telemetry" in data:
        data["telemetry"] = {
            k: v for k, v in data["telemetry"].items() if k != "meta"
        }
    return data


# ----------------------------------------------------------------------
# One batch
# ----------------------------------------------------------------------


@dataclass
class Checks:
    """Correctness checks: each attempt is counted, each failure named."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Batch:
    """Everything one pass of a workload's batch produced."""

    workload: str
    metrics: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    digest: Any = None
    checks: Checks = field(default_factory=Checks)
    cells: int = 0
    #: Per-phase wall of the first pass, seconds.
    phases: Dict[str, float] = field(default_factory=dict)
    #: Raw extras the traced run turns into per-layer metrics.
    extra: Dict[str, Any] = field(default_factory=dict)


def _with_repeats(
    first: Callable[[], Tuple[float, Any]], again: Callable[[], float],
    min_s: float,
) -> Tuple[float, float, Any]:
    """``(first_s, best_s, value)``: ``first()``, then ``again()`` until
    the repetitions add up to ``min_s``."""
    first_s, value = first()
    times = [first_s]
    while sum(times) < min_s:
        times.append(again())
    return first_s, min(times), value


def _ingest(root: Path, cells) -> Tuple[float, None]:
    store = RecordStore(root)
    started = time.perf_counter()
    for spec, result in cells:
        store.put(spec, result)
    store.flush()
    return time.perf_counter() - started, None


def _reread(root: Path, specs) -> Tuple[float, Tuple[Any, RecordStore]]:
    store = RecordStore(root)
    started = time.perf_counter()
    results = runner.run_matrix(specs, store=store)
    return time.perf_counter() - started, (results, store)


def _query(root: Path, selector: str) -> Tuple[float, Tuple[Any, ...]]:
    started = time.perf_counter()
    matched = query.store_results(root, selector)
    rows = aggregate(matched)
    report = query.scan_store(root)
    return time.perf_counter() - started, (matched, rows, report)


def run_batch(
    workload: str, seed: int, work: Path, in_process: bool = False
) -> Batch:
    """Run one pass of ``workload``'s batch in ``work`` (emptied first).

    ``in_process`` runs the sweep phase on one shard in this process,
    so the traced run's spans and sampler see its cells.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    batch = Batch(workload)
    batch.extra.update(seed=seed, cache_hits=0, cache_misses=0)
    checks = batch.checks
    specs = SPECS[workload](seed)
    root = work / "store"
    scratch = work / "again"

    def phase(name: str, first, again) -> Tuple[float, Any]:
        """Time a phase and its repetitions: (best_s, value).

        The longer the batch, the longer its store phases repeat, so a
        one-batch run still times them over a stretch of host noise.
        """
        min_s = max(MIN_PHASE_S, REPEAT_SHARE * sum(batch.phases.values()))
        first_s, best_s, value = _with_repeats(first, again, min_s)
        batch.phases[name] = first_s
        return best_s, value

    def ingest_again(cells) -> float:
        shutil.rmtree(scratch, ignore_errors=True)
        return _ingest(scratch, cells)[0]

    history: List[Tuple[ScenarioSpec, Any]] = []
    nets: List[Any] = []
    if workload == "sweep_store":
        history = history_cells(seed)
        best_s, _ = phase(
            "ingest", lambda: _ingest(root, history),
            lambda: ingest_again(history),
        )
        batch.metrics["ingest_cells_per_s"] = len(history) / best_s
        store = RecordStore(root)
        shards = 1 if in_process else SWEEP_SHARDS
        started = time.perf_counter()
        results = runner.run_matrix(specs, shards=shards, store=store)
        sim_s = time.perf_counter() - started
        batch.phases["simulate"] = sim_s
        batch.extra["cache_hits"] = store.hits
        batch.extra["cache_misses"] = store.misses
    else:
        results = []
        started = time.perf_counter()
        for spec in specs:
            result, net = runner.run_spec_with_network(spec)
            results.append(result)
            nets.append(net)
        sim_s = time.perf_counter() - started
        batch.phases["simulate"] = sim_s
        cells = list(zip(specs, results))
        best_s, _ = phase(
            "ingest", lambda: _ingest(root, cells),
            lambda: ingest_again(cells),
        )
        batch.metrics["ingest_cells_per_s"] = len(cells) / best_s
    shutil.rmtree(scratch, ignore_errors=True)
    batch.cells = len(specs) + len(history)

    # -- simulate: throughput, simulated outcomes, invariants -----------
    events = sum(r.events_fired for r in results)
    batch.metrics["events_per_s"] = events / sim_s
    batch.metrics["cells_per_s"] = len(specs) / sim_s
    for spec, result in zip(specs, results):
        label = f"{spec.scenario}/{spec.fabric}/seed={spec.seed}"
        if spec.workload["kind"] in ("incast", "many_to_many"):
            offered = offered_flows(spec, result)
            checks.check(
                len(result.fcts_ns) == offered and offered > 0,
                f"{label}: {len(result.fcts_ns)}/{offered} flows completed",
            )
        if spec.fabric != "stardust":
            continue
        if nets:
            net = nets[specs.index(spec)]
            drops = net.collect_metrics().fabric_drops
        else:
            # Shard workers return totals only: fabric + ingress drops.
            drops = result.drops
        checks.check(drops == 0, f"{label}: Stardust fabric dropped {drops}")
    fcts = [f for r in results for f in r.fcts_ns]
    if workload == "perm_stardust":
        batch.metrics["goodput_gbps"] = statistics.fmean(
            r.mean_rate_gbps for r in results
        )
        batch.metrics["fct_p99_us"] = statistics.fmean(
            net.collect_metrics().packet_latency_ns.pct(99) / 1e3
            for net in nets
        )
    else:
        batch.metrics["goodput_gbps"] = statistics.fmean(
            r.delivered_bytes * 8 / r.sim_time_ns
            / len(s.topology.addresses())
            for s, r in zip(specs, results)
        )
        batch.metrics["fct_p99_us"] = percentile(fcts, 99) / 1e3

    # -- reread: every spec from cache, equal to the first pass ---------
    every_spec = [s for s, _ in history] + specs
    first_pass = [r for _, r in history] + results
    best_s, (reread, store) = phase(
        "reread", lambda: _reread(root, every_spec),
        lambda: _reread(root, every_spec)[0],
    )
    batch.metrics["reread_cells_per_s"] = len(every_spec) / best_s
    hit_ratio = store.hits / max(1, store.hits + store.misses)
    checks.check(hit_ratio == 1.0, f"reread hit ratio {hit_ratio:.3f}")
    checks.check(
        [result_dict(r) for r in reread]
        == [result_dict(r) for r in first_pass],
        "reread results differ from the first pass",
    )
    batch.extra["cache_hits"] += store.hits
    batch.extra["cache_misses"] += store.misses

    # -- query: selector + aggregate, then a CRC-verified scan ----------
    selector = SELECTORS[workload]
    batch.metrics["query_s"], (matched, rows, report) = phase(
        "query", lambda: _query(root, selector),
        lambda: _query(root, selector)[0],
    )
    expected = sum(
        1 for s in every_spec
        if s.scenario == selector.split("=", 1)[1]
    )
    checks.check(
        len(matched) == expected and len(rows) > 0,
        f"query {selector!r} matched {len(matched)}, expected {expected}",
    )
    checks.check(
        report.corrupt_blocks == 0,
        f"scan found {report.corrupt_blocks} corrupt blocks",
    )
    checks.check(
        len(report.records) == len(every_spec)
        and report.total_records == len(every_spec),
        f"scan found {report.total_records} records "
        f"({len(report.records)} keys), expected {len(every_spec)}",
    )
    batch.metrics["store_bytes_per_cell"] = (
        report.shard_bytes / max(1, report.total_records)
    )
    batch.metrics["wall_s"] = sum(batch.phases.values())

    # -- digests and counts ---------------------------------------------
    batch.counts = {
        "sim.events": events,
        "store.blocks": report.blocks,
        "transport.flows_completed": len(fcts),
        "transport.flows_offered": sum(
            offered_flows(s, r) for s, r in zip(specs, results)
        ),
    }
    if nets:
        batch.digest = [run_digest(r, n) for r, n in zip(results, nets)]
        per_net = [net_counts(n, s) for n, s in zip(nets, specs)]
        for key in per_net[0]:
            batch.counts[key] = sum(c[key] for c in per_net)
    else:
        batch.digest = values_hash([result_dict(r) for r in results])
    batch.extra["store_bytes"] = report.shard_bytes
    return batch
