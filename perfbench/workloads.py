"""The benchmark's workloads: inputs from a seed, timed rounds, output digests.

A *round* is one workload's fixed set of trials, run serially in this
process through the public experiment API (``run_protocol_trial`` for the
two DAPES workloads, ``run_experiment`` for the Fig. 10 artefact).  While a
round runs, :class:`Measurement` wraps three functions from outside
``src/``:

* ``Simulator.run`` steps through simulated time in 100 ms slices and times
  each slice of a DAPES trial (the ``slice_ms_*`` metrics).  Slice-stepped
  runs compute exactly what one ``run(until=horizon)`` computes; the
  benchmark's tests assert it by digest.
* every scenario builder's ``build`` is timed, so ``wall_s`` excludes
  scenario construction, and keeps the scenario for the output check.
* ``run_protocol_trial`` records each trial's outcome: a digest of its
  simulated outputs (the full ``RunResult`` plus per-node progress), packets
  acquired, frames, and the layers' own counters.

Host times are CPU seconds of the process (:data:`HOST_CLOCK`).

Why these three workloads, and which layer each one exercises, is in
``perfbench/README.md``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set

from patching import Patches

from repro.experiments import (
    ExperimentConfig,
    ResultStore,
    get_experiment,
    runner,
    sweep,
)
from repro.experiments.scenario import ScenarioBuilder, get_builder
from repro.simulation import Simulator

#: Simulated seconds per timed slice (the ``slice_ms_*`` sample unit).
SLICES_PER_SECOND = 10

#: The clock of every host-time metric: CPU seconds of this process.  The
#: workloads are single-threaded, so this is the time the simulator computed;
#: unlike a wall clock it leaves out time the host gave to other processes or
#: other virtual machines (steal time), which varies from minute to minute.
HOST_CLOCK = time.process_time


@dataclass(frozen=True)
class Workload:
    """One workload: a base config per scale and the trials of one round."""

    name: str
    configs: Dict[str, Callable[[], ExperimentConfig]]
    #: Trials per round.  For a sweep, trials per sweep point.
    trials: Dict[str, int]
    #: A registered experiment to run through ``run_experiment``; ``None``
    #: runs ``trials`` DAPES trials through ``run_protocol_trial``.
    experiment: Optional[str] = None
    axes: Dict[str, Dict[str, Sequence[object]]] = field(default_factory=dict)

    def config(self, scale: str, seed: int) -> ExperimentConfig:
        return self.configs[scale]().with_overrides(
            base_seed=seed, trials=self.trials[scale], workers=1)


def _paper_collection() -> ExperimentConfig:
    # The paper's population and collection (44 nodes, 10 files, 9,770
    # packets, 60 m range) in a 150 m square instead of 300 m: at 300 m the
    # first seconds are an encounter transient whose cost varies 4x between
    # seeds; at 150 m peers meet at once and RPF piece selection runs over
    # the full collection with several known bitmaps from the start.
    return ExperimentConfig.paper().with_overrides(area_size=150.0, max_duration=3.0)


def _dense_swarm() -> ExperimentConfig:
    # 8x the small preset's mobile, forwarder and intermediate population
    # (98 nodes) sharing the small 40-packet collection.
    return ExperimentConfig.small().with_overrides(
        mobile_downloaders=48, pure_forwarders=24, intermediate_nodes=24, max_duration=2.0)


def _fig10_sweep() -> ExperimentConfig:
    # The small preset's 14 nodes in a 100 m square with a 1,000-packet
    # collection and a 5 s horizon: no download completes, so every trial
    # measures the same simulated span.  With the 40-packet collection, a
    # trial's length is set by its slowest downloader and varied up to 4x
    # between seeds.
    return ExperimentConfig.small().with_overrides(
        area_size=100.0, num_files=2, file_size=512_000, max_duration=5.0)


def _tiny_dense() -> ExperimentConfig:
    return ExperimentConfig.tiny().with_overrides(
        mobile_downloaders=6, pure_forwarders=2, intermediate_nodes=2, max_duration=3.0)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-collection",
            configs={"bench": _paper_collection,
                     "tiny": lambda: ExperimentConfig.tiny().with_overrides(max_duration=5.0)},
            trials={"bench": 6, "tiny": 1},
        ),
        Workload(
            name="dense-swarm",
            configs={"bench": _dense_swarm, "tiny": _tiny_dense},
            trials={"bench": 3, "tiny": 1},
        ),
        Workload(
            name="fig10-artefact",
            configs={"bench": _fig10_sweep, "tiny": ExperimentConfig.tiny},
            trials={"bench": 3, "tiny": 1},
            experiment="fig10",
            axes={"bench": {"wifi_range": (80.0, 100.0)},
                  "tiny": {"wifi_range": (60.0, 100.0)}},
        ),
    )
}


def digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ================================================================ outcomes
@dataclass
class TrialOutcome:
    """What the benchmark keeps from one finished trial."""

    key: str
    protocol: str
    wifi_range: float
    digest: str
    events: int
    frames: int
    sim_seconds: float
    acquired: int
    downloaders: int
    total_packets: int
    counters: Dict[str, float]

    def problems(self) -> List[str]:
        """Output checks that hold for any correct trial."""
        found = []
        if self.events <= 0 or self.frames <= 0:
            found.append("no events or no frames")
        if not 0 <= self.acquired <= self.downloaders * self.total_packets:
            found.append(f"{self.acquired} packets acquired is out of range")
        if self.sim_seconds <= 0:
            found.append("no simulated time elapsed")
        return found


def layer_counters(scenario) -> Dict[str, float]:
    """The simulator's own per-layer counters for one finished scenario."""
    medium = scenario.medium
    stats = medium.stats
    counters: Dict[str, float] = {
        "wireless.frames": stats.frames_transmitted,
        "wireless.deliveries": stats.deliveries,
        "wireless.collisions": stats.collisions,
        "wireless.arq_retries": medium.arq_retries,
        "wireless.csma_deferrals": medium.csma_deferrals,
    }
    nodes = getattr(scenario, "nodes", {})
    forwarders = [node.forwarder for node in nodes.values()]
    forwarders += [node.forwarder for node in getattr(scenario, "pure_forwarders", {}).values()]
    for name in ("interests_received", "data_received", "interests_forwarded",
                 "data_forwarded", "cs_hits_served"):
        counters[f"ndn.{name}"] = sum(getattr(f.stats, name) for f in forwarders)
    for name in ("retransmissions", "packets_downloaded"):
        counters[f"core.{name}"] = sum(getattr(node.peer.load, name) for node in nodes.values())
    return counters


def _progress(scenario) -> Dict[str, float]:
    if hasattr(scenario, "nodes"):
        return {node_id: scenario.nodes[node_id].peer.progress(scenario.collection_id)
                for node_id in scenario.downloader_ids}
    return {node_id: scenario.peers[node_id].progress() for node_id in scenario.downloader_ids}


def trial_key(protocol: str, wifi_range: float, seed: int) -> str:
    return f"{protocol}/{wifi_range:g}m/{seed}"


def outcome_of(result, scenario) -> TrialOutcome:
    progress = _progress(scenario)
    total = scenario.config.total_packets
    return TrialOutcome(
        key=trial_key(result.protocol, scenario.config.wifi_range, result.seed),
        protocol=result.protocol,
        wifi_range=scenario.config.wifi_range,
        digest=digest({"result": result.to_dict(), "progress": progress}),
        events=result.events,
        frames=result.transmissions,
        sim_seconds=result.duration,
        acquired=sum(round(fraction * total) for fraction in progress.values()),
        downloaders=len(progress),
        total_packets=total,
        counters=layer_counters(scenario),
    )


# ============================================================= measurement
def _discard(value: float) -> None:
    pass


class Measurement:
    """The wrappers every round runs under (see the module docstring)."""

    def __init__(self) -> None:
        self.slices_ms: List[float] = []
        self.build_s = 0.0
        self.outcomes: List[TrialOutcome] = []
        self._scenario = None

    def install(self, patches: Patches) -> None:
        patches.method(Simulator, "run", self._sliced)
        patches.methods(ScenarioBuilder, ("build",), self._timed_build)
        patches.function(runner, "run_protocol_trial", self._observed_trial)

    def _sliced(self, run: Callable) -> Callable:
        slices = self.slices_ms
        clock = HOST_CLOCK

        @functools.wraps(run)
        def sliced(sim, until=None, max_events=None):
            if until is None or max_events is not None:
                return run(sim, until, max_events)
            dapes = getattr(self._scenario, "protocol", None) == "dapes"
            keep = slices.append if dapes else _discard
            step = int(sim.now * SLICES_PER_SECOND) + 1
            target = min(step / SLICES_PER_SECOND, until)
            while True:
                start = clock()
                run(sim, until=target)
                keep((clock() - start) * 1000.0)
                if target >= until or sim.stopping:
                    return None
                if not sim.pending_events:
                    # Nothing left to run: one more call advances the clock
                    # to ``until`` exactly as a single run would.
                    return run(sim, until=until)
                step += 1
                target = min(step / SLICES_PER_SECOND, until)

        return sliced

    def _timed_build(self, build: Callable) -> Callable:
        clock = HOST_CLOCK

        @functools.wraps(build)
        def timed(builder, *args, **kwargs):
            start = clock()
            scenario = build(builder, *args, **kwargs)
            self.build_s += clock() - start
            self._scenario = scenario
            return scenario

        return timed

    def _observed_trial(self, run_trial: Callable) -> Callable:
        @functools.wraps(run_trial)
        def observed(*args, **kwargs):
            self._scenario = None
            result = run_trial(*args, **kwargs)
            self.outcomes.append(outcome_of(result, self._scenario))
            self._scenario = None
            return result

        return observed


@dataclass
class Round:
    """One round's measurements and checks."""

    wall_s: float
    slices_ms: List[float]
    outcomes: List[TrialOutcome]
    attempted: int
    #: Keys of trials that raised or failed an output check.
    failed: Set[str]
    #: Digests checked across rounds and runs: one per trial, plus the
    #: sweep aggregate for the Fig. 10 artefact.
    digests: Dict[str, str]
    gains: Dict[str, float] = field(default_factory=dict)

    @property
    def events(self) -> int:
        return sum(outcome.events for outcome in self.outcomes)

    def dapes(self) -> List[TrialOutcome]:
        return [outcome for outcome in self.outcomes if outcome.protocol == "dapes"]

    def counters(self) -> Dict[str, float]:
        total: Dict[str, float] = {}
        for outcome in self.outcomes:
            for name, value in outcome.counters.items():
                total[name] = total.get(name, 0) + value
        return total


def _gains(outcomes: Sequence[TrialOutcome]) -> Dict[str, float]:
    """DAPES's mean ``1 - dapes/baseline`` over ranges and baselines.

    Downloads do not complete within the horizon, so download time is taken
    per packet (simulated seconds per packet acquired) and overhead as
    frames per packet acquired.
    """
    totals: Dict[tuple, List[float]] = {}
    for outcome in outcomes:
        total = totals.setdefault((outcome.protocol, outcome.wifi_range), [0.0, 0.0, 0.0])
        total[0] += outcome.sim_seconds
        total[1] += outcome.frames
        total[2] += outcome.acquired
    delay, overhead = [], []
    for (protocol, wifi_range), (seconds, frames, acquired) in totals.items():
        dapes = totals.get(("dapes", wifi_range))
        if protocol == "dapes" or dapes is None or not (acquired and dapes[2]):
            continue
        delay.append(1.0 - (dapes[0] / dapes[2]) / (seconds / acquired))
        overhead.append(1.0 - (dapes[1] / dapes[2]) / (frames / acquired))
    return {"sim_delay_gain": statistics.fmean(delay) if delay else 0.0,
            "sim_overhead_gain": statistics.fmean(overhead) if overhead else 0.0}


def _run_sweep(workload: Workload, config: ExperimentConfig, scale: str, scratch: Path,
               measurement: Measurement, round_: Round) -> None:
    with tempfile.TemporaryDirectory(dir=scratch) as directory:
        store = ResultStore(directory)
        result = sweep.run_experiment(
            workload.experiment, config, axes=workload.axes.get(scale),
            store=store, workers=1, resume=False)
        stored = store.load(workload.experiment)
    aggregate = result.to_dict()
    round_.digests["sweep"] = digest(aggregate)
    if digest(stored.to_dict()) != round_.digests["sweep"]:
        print(f"{workload.name}: the stored run differs from the in-memory result",
              flush=True)
        round_.failed.update(outcome.key for outcome in measurement.outcomes)
    round_.gains = _gains(measurement.outcomes)


def run_round(workload: Workload, seed: int, scale: str, scratch: Path, invariants: bool = False,
              patches_before: Callable[[Patches], None] = lambda patches: None) -> Round:
    """Run one round of ``workload`` and check its outputs.

    ``invariants`` turns on the runtime invariant monitor (pure observation:
    the digests must not change).  ``patches_before`` installs extra
    wrappers (the tracer's) underneath the measurement's own; both are
    removed when the round ends.
    """
    config = workload.config(scale, seed).with_overrides(invariants=invariants)
    measurement = Measurement()
    patches = Patches()
    round_ = Round(wall_s=0.0, slices_ms=measurement.slices_ms, outcomes=measurement.outcomes,
                   attempted=0, failed=set(), digests={})
    clock = HOST_CLOCK
    try:
        patches_before(patches)
        measurement.install(patches)
        start = clock()
        if workload.experiment is None:
            for trial_seed in runner.trial_seeds(config):
                round_.attempted += 1
                try:
                    runner.run_protocol_trial("dapes", config, trial_seed)
                except Exception as exc:  # a failed trial is counted, not fatal
                    print(f"{workload.name}: trial seed {trial_seed} raised {exc!r}", flush=True)
                    round_.failed.add(trial_key("dapes", config.wifi_range, trial_seed))
        else:
            round_.attempted = get_experiment(workload.experiment).task_count(
                config, workload.axes.get(scale))
            try:
                _run_sweep(workload, config, scale, scratch, measurement, round_)
            except Exception as exc:  # the whole sweep fails with one trial
                print(f"{workload.name}: sweep raised {exc!r}", flush=True)
                round_.failed.update(str(index) for index in range(round_.attempted))
        round_.wall_s = clock() - start - measurement.build_s
    finally:
        patches.restore()
    for outcome in round_.outcomes:
        round_.digests[outcome.key] = outcome.digest
        problems = outcome.problems()
        if problems:
            print(f"{workload.name}: {outcome.key}: {'; '.join(problems)}", flush=True)
            round_.failed.add(outcome.key)
    return round_


def check_digests(rounds: Sequence[Round], previous: Dict[str, str]) -> Set[str]:
    """Keys whose digest differs between rounds, or from an earlier run's.

    ``previous`` (digests from earlier runs of the same code and seed) is
    updated in place with every digest seen here.
    """
    mismatched: Set[str] = set()
    for round_ in rounds:
        for key, value in round_.digests.items():
            if previous.setdefault(key, value) != value:
                mismatched.add(key)
    return mismatched


def build_first_scenario(workload: Workload, scale: str, seed: int):
    """Build the scenario of the workload's first trial (the set-up a run pays)."""
    config = workload.config(scale, seed)
    if workload.experiment is not None:
        plan = get_experiment(workload.experiment).plan(config, workload.axes.get(scale))[0]
        protocol, config, trial_seed = plan.protocol, plan.config, plan.seeds[0]
    else:
        protocol, trial_seed = "dapes", runner.trial_seeds(config)[0]
    return get_builder(protocol).build(config, trial_seed)
