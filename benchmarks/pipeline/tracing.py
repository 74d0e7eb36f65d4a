"""Per-layer tracing for the pipeline benchmark.

A traced unit installs timing wrappers, defined here and never in the
program, at the lookup sites in :data:`SITES`, runs the workload, and
restores every original object on the way out.  Each wrapper records
one span ``[layer, start, end, parent]`` in memory; the benchmark adds
spans of its own around its direct calls (:meth:`Recorder.span`) and
around the generator's chunk iterator (:meth:`Recorder.tee`), which
separates generator time from the store time of the ingest consuming
it.  A layer's self time is its spans' durations minus the parts their
child spans cover.

Spans are recorded in the process that runs the workload only: shard
workers forked by ``run_campaign`` inherit the wrappers but their spans
never reach the parent, so per-layer numbers of sharded runs are
parent-side.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


def _bank_width(args, kwargs) -> int:
    """Sessions in one ``run_session_bank(model, capacity_mbps, ...)``."""
    return len(kwargs["capacity_mbps"] if "capacity_mbps" in kwargs
               else args[1])


#: (module, attribute, layer, per-call counter) for every site a traced
#: unit wraps.  A function imported with ``from x import f`` is a
#: separate binding in each importing module, so each binding the
#: program calls through is listed.
SITES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.harness.runtime", "row_environment",
     "harness.collection.row_environment", None),
    ("repro.core.sessionbank", "run_session_bank", "core.sessionbank",
     _bank_width),
    ("repro.harness.runtime", "measure_row",
     "harness.runtime.measure_row", None),
    ("repro.harness.parallel", "measure_row",
     "harness.runtime.measure_row", None),
    ("repro.harness.runtime", "build_report",
     "harness.runtime.build_report", None),
    ("repro.harness.parallel", "build_report",
     "harness.runtime.build_report", None),
    ("repro.harness.runtime", "ingest_report",
     "harness.runtime.ingest_report", None),
    ("repro.harness.parallel", "ingest_report",
     "harness.runtime.ingest_report", None),
    ("repro.baselines.btsapp", "BtsApp.run", "baselines.btsapp.run", None),
    ("repro.netsim.network", "Network.allocate",
     "netsim.network.allocate", None),
    ("repro.store.catalog", "RunStore.ingest_chunks",
     "store.catalog.ingest", None),
    ("repro.store.catalog", "RunStore.ingest_run",
     "store.catalog.ingest", None),
    ("repro.store.catalog", "RunStore.load_dataset",
     "store.catalog.load", None),
)

#: (span layer, busy-seconds metric) in pipeline order.  The generator,
#: compare, hourly, bootstrap and report spans and
#: ``harness.parallel.fanout`` (``run_campaign`` minus its parent-side
#: children) are the benchmark's own; the rest come from :data:`SITES`.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("dataset.generator", "dataset.generator.busy_s"),
    ("store.catalog.ingest", "store.catalog.ingest_busy_s"),
    ("store.catalog.load", "store.catalog.load_busy_s"),
    ("store.longitudinal.compare", "store.longitudinal.compare_busy_s"),
    ("analysis.diurnal.hourly", "analysis.diurnal.hourly_busy_s"),
    ("analysis.streams.bootstrap", "analysis.streams.bootstrap_busy_s"),
    ("harness.collection.row_environment",
     "harness.collection.row_environment_busy_s"),
    ("core.sessionbank", "core.sessionbank.busy_s"),
    ("harness.runtime.measure_row", "harness.runtime.measure_row_busy_s"),
    ("baselines.btsapp.run", "baselines.btsapp.run_busy_s"),
    ("netsim.network.allocate", "netsim.network.allocate_busy_s"),
    ("harness.runtime.build_report", "harness.runtime.build_report_busy_s"),
    ("analysis.report.report", "analysis.report.report_busy_s"),
    ("harness.runtime.ingest_report",
     "harness.runtime.ingest_report_busy_s"),
    ("harness.parallel.fanout", "harness.parallel.fanout_s"),
)

#: Name of the span covering one whole traced unit.
UNIT = "unit"


class NullRecorder:
    """What an untraced unit records into: nothing, at no cost."""

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        yield

    def tee(self, chunks: Iterable, layer: str) -> Iterable:
        return chunks

    def count(self, name: str, n: int) -> None:
        pass


class Recorder(NullRecorder):
    """Spans of one traced unit, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    def open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        index = self.open(layer)
        try:
            yield
        finally:
            self.close(index)

    def tee(self, chunks: Iterable, layer: str) -> Iterator:
        """Yield ``chunks`` unchanged, timing each step of the producer
        as a ``layer`` span and counting its rows."""
        source = iter(chunks)
        while True:
            index = self.open(layer)
            try:
                chunk = next(source)
            except StopIteration:
                return
            finally:
                self.close(index)
            self.count(layer + ".rows", len(chunk["test_id"]))
            yield chunk


def _wrap(original: Callable, layer: str, recorder: Recorder,
          counter: Optional[Callable]) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if counter is not None:
            recorder.count(layer + ".units", counter(args, kwargs))
        index = recorder.open(layer)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def _lookup(module: str, attribute: str):
    """``(owner, name, original)`` of one site; raises ``LookupError``
    (or ``ImportError``) when the site no longer exists."""
    owner = importlib.import_module(module)
    *outer, name = attribute.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # A method is read from the class's own namespace: patching and
    # restoring an inherited one would leave a copy on the subclass.
    space = vars(owner)
    if name not in space:
        raise LookupError(f"{module}.{attribute}")
    return owner, name, space[name]


@contextmanager
def installed(recorder: Recorder, sites=SITES) -> Iterator[List[str]]:
    """Wrap every site that exists, yield the names of those that do
    not, and restore the originals on exit.

    A missing site degrades the per-layer table (its layer reads 0 and
    ``trace.missing_sites`` counts it); it never fails the run.
    """
    patched, missing = [], []
    try:
        for module, attribute, layer, counter in sites:
            try:
                owner, name, original = _lookup(module, attribute)
            except (ImportError, AttributeError, LookupError):
                missing.append(f"{module}.{attribute}")
                continue
            setattr(owner, name, _wrap(original, layer, recorder, counter))
            patched.append((owner, name, original))
        yield missing
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


def self_times(spans: List[list]) -> Dict[str, float]:
    """Self time per layer: span durations minus their children's."""
    children = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    busy: Dict[str, float] = {}
    for index, (layer, start, end, _) in enumerate(spans):
        busy[layer] = busy.get(layer, 0.0) + (end - start) - children[index]
    return busy


def unit_layers(recorder: Recorder) -> Dict[str, float]:
    """Per-layer metrics of one traced unit (wrapped in a ``unit``
    span): busy seconds and share of the unit wall for every layer in
    :data:`LAYERS`, plus call and work counts."""
    spans = recorder.spans
    wall = sum(end - start for layer, start, end, _ in spans if layer == UNIT)
    busy = self_times(spans)
    calls: Dict[str, int] = {}
    top_ingests = 0
    for layer, _, _, parent in spans:
        calls[layer] = calls.get(layer, 0) + 1
        if layer == "store.catalog.ingest" and (
            parent < 0 or spans[parent][0] != layer
        ):
            top_ingests += 1
    out: Dict[str, float] = {}
    for layer, metric in LAYERS:
        out[metric] = busy.get(layer, 0.0)
        out[layer + "_share"] = busy.get(layer, 0.0) / wall if wall else 0.0
    out["dataset.generator.rows"] = recorder.counts.get(
        "dataset.generator.rows", 0
    )
    out["store.catalog.commits"] = top_ingests
    for layer in ("harness.collection.row_environment",
                  "harness.runtime.measure_row", "netsim.network.allocate"):
        out[layer + "_calls"] = calls.get(layer, 0)
    out["core.sessionbank.banks"] = calls.get("core.sessionbank", 0)
    out["core.sessionbank.sessions"] = recorder.counts.get(
        "core.sessionbank.units", 0
    )
    return out
