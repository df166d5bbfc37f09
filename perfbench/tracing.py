"""The traced run: spans around each layer's public functions, per-layer metrics.

Spans are recorded from outside ``src/``: :func:`install` wraps the public
functions of each layer (module names are the layer names) with
:meth:`Tracer.span`.  A span is ``(id, parent, name, trial, start, end)``;
all of them stay in memory as compact columns and :meth:`Tracer.write`
saves them when the run ends.  A span's self time is its duration minus the
time its directly nested wrapped spans cover.  A call made directly inside a
span of the same name (an override delegating to ``super()``) is not a span
of its own, so ``.calls`` counts the calls made into the layer.

``.calls`` counts are deterministic (they repeat exactly on any host for the
same code and seed); ``.self_s`` values are host measurements.
"""

from __future__ import annotations

import array
import functools
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from patching import Patches

from repro.baselines.base_peer import IpSwarmPeer
from repro.core.bitmap import Bitmap
from repro.core.rpf import FetchStrategy
from repro.crypto import signing
from repro.experiments import runner, sweep
from repro.experiments.store import ResultStore
from repro.ip.netstack import IpNode
from repro.manet.routing_base import RoutingProtocol
from repro.mobility.base import MobilityModel
from repro.ndn.forwarder import Forwarder
from repro.simulation import Simulator
from repro.wireless.medium import WirelessMedium
from repro.wireless.spatial import NeighborIndex

#: Every per-layer metric the traced run reports: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("simulation.events", "count", "lower"),
    ("simulation.run.calls", "count", "lower"),
    ("simulation.run.self_s", "s", "lower"),
    ("mobility.positions.calls", "count", "lower"),
    ("mobility.positions.self_s", "s", "lower"),
    ("wireless.transmit.calls", "count", "lower"),
    ("wireless.transmit.self_s", "s", "lower"),
    ("wireless.neighbors.calls", "count", "lower"),
    ("wireless.neighbors.self_s", "s", "lower"),
    ("wireless.neighbors.mean_returned", "nodes", "lower"),
    ("wireless.frames", "count", "lower"),
    ("wireless.deliveries", "count", "lower"),
    ("wireless.collisions", "count", "lower"),
    ("wireless.arq_retries", "count", "lower"),
    ("wireless.csma_deferrals", "count", "lower"),
    ("wireless.deliveries_per_frame", "ratio", "lower"),
    ("ndn.process_interest.calls", "count", "lower"),
    ("ndn.process_interest.self_s", "s", "lower"),
    ("ndn.process_data.calls", "count", "lower"),
    ("ndn.process_data.self_s", "s", "lower"),
    ("ndn.cs_hit_frac", "ratio", "higher"),
    ("ndn.forwarded_frac", "ratio", "lower"),
    ("core.select.calls", "count", "lower"),
    ("core.select.self_s", "s", "lower"),
    ("core.select.picks", "count", "lower"),
    ("core.bitmap_missing.calls", "count", "lower"),
    ("core.bitmap_missing.self_s", "s", "lower"),
    ("core.presence_counts.calls", "count", "lower"),
    ("core.presence_counts.self_s", "s", "lower"),
    ("core.observe_bitmap.calls", "count", "lower"),
    ("core.observe_bitmap.self_s", "s", "lower"),
    ("core.known_bitmaps_mean", "bitmaps", "lower"),
    ("core.retx_frac", "ratio", "lower"),
    ("crypto.sign.calls", "count", "lower"),
    ("crypto.sign.self_s", "s", "lower"),
    ("crypto.verify.calls", "count", "lower"),
    ("crypto.verify.self_s", "s", "lower"),
    ("ip.send.calls", "count", "lower"),
    ("ip.send.self_s", "s", "lower"),
    ("ip.send_fail_frac", "ratio", "lower"),
    ("manet.next_hop.calls", "count", "lower"),
    ("manet.next_hop.self_s", "s", "lower"),
    ("baselines.rarest_missing.calls", "count", "lower"),
    ("baselines.rarest_missing.self_s", "s", "lower"),
    ("experiments.sweep.self_s", "s", "lower"),
    ("experiments.store_save.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

Observer = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Records spans and per-name call counts and self times."""

    COLUMNS = (("id", "I"), ("parent", "i"), ("name", "B"), ("trial", "I"),
               ("start", "d"), ("end", "d"))

    def __init__(self) -> None:
        self.names: List[str] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.columns = {column: array.array(code) for column, code in self.COLUMNS}
        self.counters: Dict[str, float] = {}
        self.trial = 0
        self._index: Dict[str, int] = {}
        self._stack: List[list] = []
        self._next_id = 0

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._index[name]

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name: str, observe: Optional[Observer] = None) -> Callable[[Callable], Callable]:
        """A decorator recording one span per call of the wrapped function."""
        index = self._name_index(name)
        tracer = self
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        columns = self.columns
        ids, parents, names, trials = (columns[c].append for c in ("id", "parent", "name", "trial"))
        starts, ends = columns["start"].append, columns["end"].append
        clock = time.perf_counter

        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if stack and stack[-1][2] == index:
                    # An override delegating to ``super()`` (or a wrapped
                    # function calling itself): the outer span covers it.
                    return fn(*args, **kwargs)
                span_id = tracer._next_id
                tracer._next_id = span_id + 1
                parent = stack[-1][0] if stack else -1
                frame = [span_id, 0.0, index]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    elapsed = end - start
                    if stack:
                        stack[-1][1] += elapsed
                    calls[index] += 1
                    self_s[index] += elapsed - frame[1]
                    ids(span_id)
                    parents(parent)
                    names(index)
                    trials(tracer.trial)
                    starts(start)
                    ends(end)
                if observe is not None:
                    observe(tracer, args, result)
                return result

            return traced

        return wrap

    def total(self, name: str) -> Tuple[int, float]:
        """``(calls, self seconds)`` of the spans named ``name``."""
        if name not in self._index:
            return 0, 0.0
        index = self._index[name]
        return self.calls[index], self.self_s[index]

    def write(self, path: Path) -> None:
        """Save the spans: ``path`` holds the columns back to back, ``path.json`` the layout."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            for column, _ in self.COLUMNS:
                self.columns[column].tofile(handle)
        layout = {
            "spans": len(self.columns["id"]),
            "columns": [[column, code] for column, code in self.COLUMNS],
            "names": self.names,
            "clock": "time.perf_counter seconds",
        }
        Path(f"{path}.json").write_text(json.dumps(layout, indent=1) + "\n", encoding="utf-8")


def _count_neighbors(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("wireless.neighbors.returned", len(result))


def _count_picks(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("core.select.picks", len(result))
    tracer.count("core.select.known_bitmaps", len(args[0].known_bitmaps()))


def _count_send_failures(tracer: Tracer, args: tuple, result) -> None:
    if result is False:
        tracer.count("ip.send.failures", 1)


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer's public functions; call before any scenario is built."""
    span = tracer.span
    patches.method(Simulator, "run", span("simulation.run"))
    patches.methods(MobilityModel, ("position_xy", "positions_at", "positions_array"),
                    span("mobility.positions"))
    patches.methods(WirelessMedium, ("transmit",), span("wireless.transmit"))
    patches.methods(NeighborIndex, ("neighbors",), span("wireless.neighbors", _count_neighbors))
    patches.methods(Forwarder, ("process_interest",), span("ndn.process_interest"))
    patches.methods(Forwarder, ("process_data",), span("ndn.process_data"))
    patches.methods(FetchStrategy, ("select",), span("core.select", _count_picks))
    patches.method(Bitmap, "missing", span("core.bitmap_missing"))
    patches.method(Bitmap, "presence_counts", span("core.presence_counts"))
    patches.methods(FetchStrategy, ("observe_bitmap",), span("core.observe_bitmap"))
    patches.function(signing, "sign", span("crypto.sign"))
    patches.function(signing, "verify", span("crypto.verify"))
    patches.methods(IpNode, ("send",), span("ip.send", _count_send_failures))
    patches.methods(RoutingProtocol, ("next_hop",), span("manet.next_hop"))
    patches.methods(IpSwarmPeer, ("rarest_missing",), span("baselines.rarest_missing"))
    patches.function(sweep, "run_experiment", span("experiments.sweep"))
    patches.method(ResultStore, "save", span("experiments.store_save"))

    trial_span = span("experiments.trial")

    def new_trial(run_trial: Callable) -> Callable:
        traced = trial_span(run_trial)

        @functools.wraps(run_trial)
        def run(*args, **kwargs):
            tracer.trial += 1
            return traced(*args, **kwargs)

        return run

    patches.function(runner, "run_protocol_trial", new_trial)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, counters: Dict[str, float], events: int,
                  overhead: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric, from the spans and the simulator's own counters.

    ``counters`` are the per-trial counters summed over the traced round
    (see ``workloads.layer_counters``).
    """
    metrics: Dict[str, float] = {"simulation.events": events}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            metrics[name] = tracer.total(span)[field == "self_s"]
    extra = tracer.counters
    metrics["wireless.neighbors.mean_returned"] = _ratio(
        extra.get("wireless.neighbors.returned", 0), metrics["wireless.neighbors.calls"])
    for name in ("frames", "deliveries", "collisions", "arq_retries", "csma_deferrals"):
        metrics[f"wireless.{name}"] = counters.get(f"wireless.{name}", 0)
    metrics["wireless.deliveries_per_frame"] = _ratio(
        metrics["wireless.deliveries"], metrics["wireless.frames"])
    received = counters.get("ndn.interests_received", 0) + counters.get("ndn.data_received", 0)
    forwarded = counters.get("ndn.interests_forwarded", 0) + counters.get("ndn.data_forwarded", 0)
    metrics["ndn.cs_hit_frac"] = _ratio(counters.get("ndn.cs_hits_served", 0),
                                        counters.get("ndn.interests_received", 0))
    metrics["ndn.forwarded_frac"] = _ratio(forwarded, received)
    metrics["core.select.picks"] = extra.get("core.select.picks", 0)
    metrics["core.known_bitmaps_mean"] = _ratio(
        extra.get("core.select.known_bitmaps", 0), metrics["core.select.calls"])
    metrics["core.retx_frac"] = _ratio(counters.get("core.retransmissions", 0),
                                       counters.get("core.packets_downloaded", 0))
    metrics["ip.send_fail_frac"] = _ratio(extra.get("ip.send.failures", 0),
                                          metrics["ip.send.calls"])
    metrics["trace.overhead"] = overhead
    return {name: metrics[name] for name, _, _ in PER_LAYER}


def call_counts(metrics: Dict[str, float]) -> Dict[str, float]:
    """The deterministic part of the per-layer metrics (everything but host times)."""
    return {name: value for name, value in metrics.items()
            if not name.endswith(".self_s") and name != "trace.overhead"}
