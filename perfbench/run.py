"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload perm_stardust --seed 1 \\
        --seconds 50 --trace 0

Run from the repository root.  ``--trace 0`` repeats the workload's
batch for ``--seconds`` and reports the end-to-end metrics named in
``BENCHMARK.json``, each the best batch's; ``--trace 1`` alternates an
untraced and a traced batch and reports the per-layer metrics.  The
first line of standard output records the host and the last is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--self-check`` tests the benchmark's own code instead
and ``--write-pins`` re-pins the default seed.  Scratch files go to
``.perfbench-work/`` and are removed at exit; the traced run leaves
its spans in ``.perfbench-trace-<workload>.json``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
BENCHMARK = ROOT / "BENCHMARK.json"
PINS = HERE / "pins.json"

#: Fresh-process set-ups per run, spread over it; ``setup_s`` is their
#: median.
SETUP_PROBES = 9
#: A run stops starting batches past this, whatever ``--seconds`` says.
HARD_LIMIT_S = 120.0


def host_info() -> Dict[str, Any]:
    """What the numbers were measured on."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model,
    }


def peak_rss_mb() -> float:
    """High-water RSS of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# Set-up time, measured in fresh processes
# ----------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Imports, spec build, fabric build and host/flow attach.

    The sweep's set-up is its spec build (history included) and the
    store open.  Timed from the top of this file.
    """
    import random

    from workloads import SPECS, history_cells

    from repro.experiments.builders import build_network
    from repro.store.cells import RecordStore
    from repro.transport.host import make_hosts
    from repro.workloads.permutation import (
        host_permutation,
        start_permutation_flows,
    )

    specs = SPECS[workload](seed)
    if workload == "sweep_store":
        history_cells(seed)
        RecordStore(WORK / f"probe-{os.getpid()}")
    else:
        for spec in specs:
            net = build_network(spec)
            addrs = spec.topology.addresses()
            hosts, _ = make_hosts(net, addrs)
            if spec.workload["kind"] == "permutation":
                start_permutation_flows(
                    hosts, host_permutation(addrs, random.Random(spec.seed))
                )
    return time.perf_counter() - _T0


def measure_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


# ----------------------------------------------------------------------
# Correctness across batches
# ----------------------------------------------------------------------

#: The counts pinned for the default seed (the rest vary with timing
#: or are derived).
PINNED_COUNTS = (
    "sim.events", "sim.link_tx_frames", "core.cells_sent",
    "core.cells_forwarded", "core.credits_granted",
    "core.cells_out_of_order", "store.blocks",
)


def pinned_view(batch) -> Dict[str, Any]:
    """The part of a batch pinned in ``pins.json``."""
    return {
        "digest": batch.digest,
        "counts": {
            k: batch.counts[k] for k in PINNED_COUNTS if k in batch.counts
        },
    }


def check_pins(
    view: Dict[str, Any], pinned: Dict[str, Any], traced: bool, checks
) -> None:
    """Compare a default-seed batch with its pins, key by key.

    ``counts`` are pinned in both kinds of run and ``traced_counts``
    only in the traced one, the only run that counts them on
    ``sweep_store`` (its untraced sweep runs in shard workers).  A
    pinned count missing from the batch fails like a wrong one.
    """
    checks.check(view["digest"] == pinned.get("digest"),
                 "run digest differs from pins.json")
    expected = dict(pinned.get("counts", {}))
    if traced:
        expected.update(pinned.get("traced_counts", {}))
    for key, value in expected.items():
        got = view["counts"].get(key)
        checks.check(got == value, f"{key} = {got}, pinned {value}")


def check_batches(
    batches, workload: str, seed: int, pins, traced: bool, checks
) -> None:
    """Every batch of a run computed the same thing; pins on seed 1."""
    from workloads import DEFAULT_SEED

    first = pinned_view(batches[0])
    for batch in batches[1:]:
        checks.check(pinned_view(batch) == first,
                     "batches of one run disagree (nondeterminism)")
    if seed == DEFAULT_SEED and pins is not None:
        check_pins(first, pins[workload], traced, checks)


def load_pins() -> Optional[Dict[str, Any]]:
    try:
        with open(PINS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------


def _loop(seconds: float, one: Any) -> List[Any]:
    """Call ``one()`` until the next call would overrun ``seconds``."""
    out: List[Any] = []
    started = time.perf_counter()
    while True:
        lap = time.perf_counter()
        out.append(one())
        now = time.perf_counter()
        elapsed, last = now - started, now - lap
        if elapsed + last > min(seconds, HARD_LIMIT_S):
            return out


def untraced(workload: str, seed: int, seconds: float, listed, pins):
    """End-to-end metrics: each the best over the run's batches.

    Best, not median, as ``timeit`` advises: on a shared host the
    slower repeats time other processes, not the program.  The
    simulated metrics are equal in every batch.
    """
    from workloads import Checks, run_batch

    setups: List[float] = []
    started = time.perf_counter()

    def one():
        # The set-up probes are spread over the run, so that their
        # median covers the run's stretch of host noise, not a moment.
        due = SETUP_PROBES * (time.perf_counter() - started) / seconds
        while len(setups) < min(SETUP_PROBES, due + 1):
            setups.append(measure_setup(workload, seed))
        return run_batch(workload, seed, WORK / "batch")

    batches = _loop(seconds, one)
    while len(setups) < SETUP_PROBES:
        setups.append(measure_setup(workload, seed))
    setup_s = statistics.median(setups)
    checks = Checks()
    check_batches(batches, workload, seed, pins, False, checks)

    metrics = {
        m["name"]: (min if m["better"] == "lower" else max)(
            b.metrics[m["name"]] for b in batches
        )
        for m in listed if m["name"] in batches[0].metrics
    }
    metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
    print(json.dumps({"batches": len(batches)}))
    return batches, checks, metrics


def traced(workload: str, seed: int, seconds: float, listed, pins):
    """Per-layer metrics: medians over (untraced, traced) batch pairs.

    Both batches of a pair run the sweep in-process, so that the
    untraced one is the traced one's overhead reference; the pairs
    alternate which side runs first, since the first batch of a
    process also pays for lazy imports.  On ``sweep_store`` the
    telemetry overhead cells run first, before any pair.
    """
    from layers import LayerResolver, Tracer, check_layer_map
    from per_layer import layer_metrics, sweep_counts, telemetry_overhead
    from workloads import Checks, run_batch

    check_layer_map(SRC / "repro")
    resolver = LayerResolver(SRC / "repro")
    tracer = Tracer(resolver)
    tracer.install()
    batches: List[Any] = []
    rows: List[Dict[str, float]] = []

    def plain() -> float:
        started = time.perf_counter()
        run_batch(workload, seed, WORK / "ref", in_process=True)
        return time.perf_counter() - started

    def pair() -> None:
        plain_s = plain() if len(rows) % 2 == 0 else 0.0
        tracer.reset()
        tracer.active = True
        started = time.perf_counter()
        try:
            batch = run_batch(workload, seed, WORK / "traced",
                              in_process=True)
        finally:
            tracer.active = False
        traced_s = time.perf_counter() - started
        plain_s = plain_s or plain()
        if workload == "sweep_store":
            batch.counts.update(sweep_counts(batch, tracer.networks))
        batches.append(batch)
        rows.append(layer_metrics(batch, tracer, traced_s / plain_s))

    try:
        overhead = (
            telemetry_overhead(seed)
            if workload == "sweep_store" else 0.0
        )
        _loop(seconds, pair)
    finally:
        tracer.uninstall()
    checks = Checks()
    check_batches(batches, workload, seed, pins, True, checks)
    metrics = {
        m["name"]: statistics.median(row[m["name"]] for row in rows)
        for m in listed if m["name"] in rows[0]
    }
    metrics["telemetry.overhead_ratio"] = overhead
    with open(ROOT / f".perfbench-trace-{workload}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"host": host_info(), "spans": tracer.to_json(),
                   "samples": dict(tracer.sampler.counts)}, fh)
    return batches, checks, metrics


def run(args) -> Dict[str, Any]:
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    pins = load_pins()
    kind = traced if args.trace else untraced
    attempted = failed = 0
    failures: List[str] = []
    metrics: Dict[str, float] = {}
    try:
        batches, checks, metrics = kind(
            args.workload, args.seed, args.seconds, spec[section], pins
        )
        attempted = sum(b.cells + b.checks.attempted for b in batches)
        attempted += checks.attempted
        failures = [f for b in batches for f in b.checks.failures]
        failures += checks.failures
        failed = len(failures)
    except Exception:  # the program failed: report it, count it
        traceback.print_exc()
        failures = ["workload raised"]
        attempted, failed = max(attempted, 1), max(failed, 1)
    missing = [
        name for name in units
        if name not in metrics and name != "passed_share"
    ]
    if missing and not failed:
        failures.append(f"metrics not produced: {', '.join(missing)}")
        attempted, failed = attempted + 1, failed + 1
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if not args.trace:
        metrics["passed_share"] = 1.0 - failed / attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true",
                        help="test the benchmark's own code and exit")
    parser.add_argument("--write-pins", action="store_true",
                        help="re-pin the default seed (only when the "
                             "simulated work changes on purpose)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources at {SRC}; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.setup_probe:
        # A child of a run: leaves the run's scratch directory alone.
        print(setup_probe(args.workload, args.seed))
        return 0
    try:
        if args.self_check:
            from selfcheck import self_check

            return self_check()
        if args.write_pins:
            return write_pins()
        if args.workload not in WORKLOADS:
            parser.error(
                f"--workload must be one of {', '.join(WORKLOADS)}"
            )
        print(json.dumps({"host": host_info(), "workload": args.workload,
                          "seed": args.seed, "trace": args.trace}))
        result = run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


def write_pins() -> int:
    """Pin every workload's default-seed digest and counts.

    Runs each batch untraced, as ``--trace 0`` does, and traced; the
    counts only the traced batch has become ``traced_counts``.
    """
    from layers import LayerResolver, Tracer
    from per_layer import sweep_counts
    from workloads import DEFAULT_SEED, WORKLOADS, run_batch

    pins = {}
    tracer = Tracer(LayerResolver(SRC / "repro"))
    for workload in WORKLOADS:
        plain = pinned_view(run_batch(workload, DEFAULT_SEED, WORK / "pins"))
        tracer.install()
        tracer.reset()
        tracer.active = True
        try:
            batch = run_batch(workload, DEFAULT_SEED, WORK / "pins",
                              in_process=True)
        finally:
            tracer.active = False
            tracer.uninstall()
        if workload == "sweep_store":
            batch.counts.update(sweep_counts(batch, tracer.networks))
        view = pinned_view(batch)
        if view["digest"] != plain["digest"] or any(
            view["counts"].get(k) != v for k, v in plain["counts"].items()
        ):
            raise RuntimeError(f"{workload}: traced and untraced batches "
                               "disagree; nothing pinned")
        pins[workload] = {
            "digest": plain["digest"],
            "counts": plain["counts"],
            "traced_counts": {
                k: v for k, v in view["counts"].items()
                if k not in plain["counts"]
            },
        }
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
