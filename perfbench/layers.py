"""Layer map, span recorder and stack sampler for the traced run.

Nothing here edits the program.  The traced run wraps a fixed list of
public entry points (``build_network``, ``FabricNetwork.run``,
``RecordStore.put`` ...) from outside, records one span per call, and
runs a ``signal.setitimer(ITIMER_PROF)`` stack sampler while
``FabricNetwork.run`` executes.  Spans stay in memory until the run
ends; a layer's self time is its spans' time minus their child spans.

The module -> layer map fails closed, like ``repro.lint``'s zones:
every package under ``src/repro`` must map to a named layer or to the
explicit ``tooling`` bucket, and an unknown package is an error.
"""

from __future__ import annotations

import gc
import signal
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Package under ``src/repro`` -> layer.  Analysis-only and tooling
#: packages share the ``tooling`` bucket: nothing in a simulation or a
#: sweep calls them.  Files directly under ``src/repro`` map to
#: ``tooling`` too (the package ``__init__``).
LAYER_OF_PACKAGE: Dict[str, str] = {
    "sim": "sim",
    "core": "core",
    "baselines": "baselines",
    "transport": "transport",
    "net": "net",
    "workloads": "workloads",
    "fabrics": "fabrics",
    "faults": "faults",
    "telemetry": "telemetry",
    "experiments": "experiments",
    "store": "store",
    "analysis": "tooling",
    "pipeline": "tooling",
    "topology": "tooling",
    "perf": "tooling",
    "lint": "tooling",
}

#: This directory: calls from here are the benchmark's, not the program's.
HERE = str(Path(__file__).resolve().parent) + "/"

#: Every layer a sample can land in, plus ``runtime.other`` for samples
#: with no ``src/repro`` frame on the stack.
LAYERS: Tuple[str, ...] = tuple(sorted(set(LAYER_OF_PACKAGE.values())))
OTHER = "runtime.other"
#: Layers whose ``*.self_share`` is reported.  The runner, the store and
#: tooling run outside ``FabricNetwork.run``, where the sampler runs, so
#: their shares would be 0 by construction; their samples, if any, stay
#: in the trace file and show as a ``*.self_share`` sum below 1.
REPORTED_LAYERS: Tuple[str, ...] = tuple(
    layer for layer in LAYERS
    if layer not in ("experiments", "store", "tooling")
)

#: Sampling period of the profiling timer (CPU time, seconds); the
#: kernel rounds it up to its scheduler tick (4 ms at HZ=250).
SAMPLE_PERIOD_S = 0.001


class UnknownPackageError(RuntimeError):
    """A ``src/repro`` package the layer map does not name."""


def check_layer_map(repro_root: Path) -> None:
    """Fail unless every package under ``repro_root`` is mapped."""
    packages = sorted(
        p.name for p in repro_root.iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    )
    unknown = [p for p in packages if p not in LAYER_OF_PACKAGE]
    if unknown:
        raise UnknownPackageError(
            f"packages with no layer: {', '.join(unknown)}; add each to "
            "LAYER_OF_PACKAGE as a layer or as 'tooling'"
        )


class LayerResolver:
    """Map a code object's file name to its layer (cached)."""

    def __init__(self, repro_root: Path) -> None:
        self.prefix = str(repro_root.resolve()) + "/"
        self._cache: Dict[str, Optional[str]] = {}

    def layer(self, filename: str) -> Optional[str]:
        """The layer of ``filename``; None outside ``src/repro``."""
        try:
            return self._cache[filename]
        except KeyError:
            pass
        layer: Optional[str] = None
        if filename.startswith(self.prefix):
            parts = filename[len(self.prefix):].split("/")
            if len(parts) == 1:
                layer = "tooling"
            else:
                try:
                    layer = LAYER_OF_PACKAGE[parts[0]]
                except KeyError:
                    raise UnknownPackageError(
                        f"{filename}: package {parts[0]!r} has no layer"
                    ) from None
        self._cache[filename] = layer
        return layer


class StackSampler:
    """``ITIMER_PROF`` sampler: counts samples per innermost layer."""

    def __init__(self, resolver: LayerResolver) -> None:
        self.resolver = resolver
        self.counts: Counter = Counter()
        self._previous: Any = None

    def _on_signal(self, signum: int, frame: Any) -> None:
        layer_of = self.resolver.layer
        while frame is not None:
            layer = layer_of(frame.f_code.co_filename)
            if layer is not None:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts[OTHER] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def shares(self) -> Dict[str, float]:
        """Share of samples per layer (and ``runtime.other``); sums to 1."""
        total = sum(self.counts.values())
        names = (*LAYERS, OTHER)
        if total == 0:
            return {name: 0.0 for name in names}
        return {name: self.counts[name] / total for name in names}


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("name", "layer", "parent", "start", "end", "child_s")

    def __init__(self, name: str, layer: str, parent: Optional["Span"]):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Wraps public entry points with spans; samples inside the run.

    ``install()`` replaces each target attribute with a wrapper and
    ``uninstall()`` puts the originals back.  Spans are recorded only
    while ``active`` is true, so the benchmark's own reads of the
    program state (digests, counters) after a batch are not counted.
    """

    def __init__(self, resolver: LayerResolver) -> None:
        self.sampler = StackSampler(resolver)
        self.spans: List[Span] = []
        self.active = False
        self.networks: List[Any] = []
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._stack: List[Span] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._gc_start = 0.0

    def reset(self) -> None:
        """Forget every span, sample, network and GC count so far."""
        self.spans.clear()
        self.sampler.counts.clear()
        self.networks.clear()
        self.gc_collections = 0
        self.gc_pause_s = 0.0

    # -- spans -----------------------------------------------------------
    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, layer, parent)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += record.duration
            self.spans.append(record)

    def wrap(
        self, owner: Any, attr: str, name: str, layer: str,
        sample: bool = False, keep_result: bool = False,
        program_callers_only: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``program_callers_only`` skips calls made from this directory:
        the benchmark's own reads of program state, not program work.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active or (
                program_callers_only
                and sys._getframe(1).f_code.co_filename.startswith(HERE)
            ):
                return original(*args, **kwargs)
            with tracer.span(name, layer):
                if sample:
                    tracer.sampler.start()
                try:
                    result = original(*args, **kwargs)
                finally:
                    if sample:
                        tracer.sampler.stop()
            if keep_result:
                tracer.networks.append(result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap every layer-boundary entry point."""
        from repro.experiments import runner
        from repro.fabrics.base import FabricNetwork
        from repro.store import query
        from repro.store.cells import RecordStore
        from repro.telemetry.collector import TelemetryCollector

        self.wrap(runner, "build_network", "build_network", "fabrics",
                  keep_result=True)
        self.wrap(FabricNetwork, "run", "FabricNetwork.run", "sim",
                  sample=True)
        self.wrap(FabricNetwork, "collect_metrics", "collect_metrics",
                  "fabrics", program_callers_only=True)
        self.wrap(runner, "run_matrix", "run_matrix", "experiments")
        self.wrap(runner, "run_spec", "run_spec", "experiments")
        self.wrap(RecordStore, "put", "RecordStore.put", "store")
        self.wrap(RecordStore, "flush", "RecordStore.flush", "store")
        self.wrap(RecordStore, "get", "RecordStore.get", "store")
        self.wrap(query, "scan_store", "scan_store", "store")
        self.wrap(query, "store_results", "store_results", "store")
        self.wrap(TelemetryCollector, "finalize",
                  "TelemetryCollector.finalize", "telemetry")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_start

    # -- summaries -------------------------------------------------------
    def total(self, name: str, self_time: bool = False) -> float:
        """Summed duration (or self time) of every span called ``name``."""
        return sum(
            s.self_s if self_time else s.duration
            for s in self.spans if s.name == name
        )

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def to_json(self) -> List[Dict[str, Any]]:
        """Spans in end order, with parent indices, for the trace file."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "name": s.name,
                "layer": s.layer,
                "parent": index.get(id(s.parent)) if s.parent else None,
                "start": s.start,
                "end": s.end,
                "self_s": s.self_s,
            }
            for s in self.spans
        ]


def attributed_layer(
    resolver: LayerResolver, busy: Callable[[], Any], seconds: float
) -> Dict[str, float]:
    """Sample ``busy`` (called repeatedly for ``seconds`` of CPU time)."""
    sampler = StackSampler(resolver)
    sampler.start()
    try:
        started = time.process_time()
        while time.process_time() - started < seconds:
            busy()
    finally:
        sampler.stop()
    return sampler.shares()
