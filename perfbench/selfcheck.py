"""Self-checks of the benchmark's own code (``run.py --self-check``).

Runs in a few seconds and simulates nothing:

* ``BENCHMARK.json`` and ``metrics.json`` agree, and every metric name
  and unit is well formed;
* the layer map covers every ``src/repro`` package and rejects an
  unknown one;
* a busy loop compiled as a ``src/repro/<pkg>`` module is sampled into
  that package's layer;
* a flipped pinned digest or count, or a pinned count the batch did
  not produce, turns into a failed check;
* the per-layer metrics a traced batch emits are exactly the ones
  ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
from pathlib import Path
from typing import Callable, List

from layers import (
    LayerResolver,
    Tracer,
    UnknownPackageError,
    attributed_layer,
    check_layer_map,
)
from per_layer import layer_metrics
from workloads import WORKLOADS, Batch, Checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPRO = ROOT / "src" / "repro"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CHECKS: List[Callable[[], None]] = []


def expect(ok: bool, detail: object = "") -> None:
    """Fail the current self-check (unlike ``assert``, kept under -O)."""
    if not ok:
        raise AssertionError(detail)


def selfcheck(fn: Callable[[], None]) -> Callable[[], None]:
    CHECKS.append(fn)
    return fn


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@selfcheck
def names_and_units() -> None:
    bench = _load(ROOT / "BENCHMARK.json")
    docs = _load(HERE / "metrics.json")
    expect(set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }, sorted(bench))
    names = [w["name"] for w in bench["workloads"]]
    expect(names == list(WORKLOADS) == list(docs["workloads"]), names)
    seen = set()
    for section in ("end_to_end", "per_layer"):
        for metric in bench[section]:
            name, unit = metric["name"], metric["unit"]
            expect(NAME.fullmatch(name), f"bad metric name {name!r}")
            expect(UNIT.fullmatch(unit), f"{name}: bad unit {unit!r}")
            expect(metric["better"] in ("lower", "higher"), name)
            expect(name not in seen, f"{name} listed twice")
            seen.add(name)
        documented = set(docs[section])
        listed = {m["name"] for m in bench[section]}
        expect(documented == listed, documented ^ listed)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()), bounds)
    expect(bounds["setup_s"] == max(bounds.values()), bounds)


@selfcheck
def layer_map_fails_closed() -> None:
    check_layer_map(REPRO)
    fake = ROOT / ".perfbench-work" / "selfcheck" / "repro"
    shutil.rmtree(fake.parent, ignore_errors=True)
    (fake / "sim").mkdir(parents=True)
    (fake / "sim" / "__init__.py").write_text("")
    (fake / "newpkg").mkdir()
    (fake / "newpkg" / "__init__.py").write_text("")
    try:
        check_layer_map(fake)
    except UnknownPackageError:
        pass
    else:
        raise AssertionError("an unmapped package passed check_layer_map")
    finally:
        shutil.rmtree(fake.parent, ignore_errors=True)
    try:
        LayerResolver(REPRO).layer(str(REPRO / "newpkg" / "mod.py"))
    except UnknownPackageError:
        pass
    else:
        raise AssertionError("the sampler mapped an unknown package")


def _busy_in(package: str) -> Callable[[], int]:
    source = (
        "def busy():\n"
        "    total = 0\n"
        "    for i in range(20000):\n"
        "        total += i * i\n"
        "    return total\n"
    )
    namespace: dict = {}
    filename = str(REPRO.resolve() / package / "_selfcheck_busy.py")
    exec(compile(source, filename, "exec"), namespace)
    return namespace["busy"]


@selfcheck
def busy_loop_attribution() -> None:
    resolver = LayerResolver(REPRO)
    for package, layer in (("core", "core"), ("sim", "sim"),
                           ("perf", "tooling")):
        shares = attributed_layer(resolver, _busy_in(package), 0.3)
        expect(shares[layer] > 0.9, (package, shares))


@selfcheck
def flipped_pin_fails() -> None:
    from run import check_pins, load_pins

    pins = load_pins()
    expect(pins is not None, "perfbench/pins.json is missing")
    for workload in WORKLOADS:
        pinned = pins[workload]
        view = {
            "digest": copy.deepcopy(pinned["digest"]),
            "counts": {**pinned["counts"], **pinned["traced_counts"]},
        }
        for traced in (False, True):
            clean = Checks()
            check_pins(view, pinned, traced, clean)
            expect(not clean.failures, clean.failures)
        flipped = copy.deepcopy(pinned)
        if isinstance(flipped["digest"], list):
            flipped["digest"][0]["events_fired"] += 1
        else:
            flipped["digest"] = flipped["digest"][::-1]
        flipped["counts"]["sim.events"] += 1
        dirty = Checks()
        check_pins(view, flipped, False, dirty)
        failed_share = len(dirty.failures) / dirty.attempted
        expect(failed_share > 0, (workload, dirty))
        # A pinned count the batch did not produce fails too.
        for key in (*pinned["counts"], *pinned["traced_counts"]):
            short = copy.deepcopy(view)
            del short["counts"][key]
            missing = Checks()
            check_pins(short, pinned, True, missing)
            expect(len(missing.failures) == 1, (workload, key, missing))


@selfcheck
def per_layer_names_match() -> None:
    bench = _load(ROOT / "BENCHMARK.json")
    batch = Batch("selfcheck")
    batch.counts = {
        "sim.events": 1, "store.blocks": 0,
        "transport.flows_completed": 0, "transport.flows_offered": 0,
    }
    batch.extra.update(cache_hits=0, cache_misses=0, store_bytes=0)
    emitted = set(layer_metrics(batch, Tracer(LayerResolver(REPRO)), 1.0))
    emitted.add("telemetry.overhead_ratio")  # added by the traced run
    listed = {m["name"] for m in bench["per_layer"]}
    expect(emitted == listed, emitted ^ listed)


def self_check() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    print(f"{len(CHECKS) - failed}/{len(CHECKS)} self-checks passed")
    return 1 if failed else 0
