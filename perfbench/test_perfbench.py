"""The benchmark's own tests, at the ``tiny`` scale (seconds each).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from patching import Patches  # noqa: E402

from repro.experiments import ExperimentConfig, run_experiment, runner  # noqa: E402
from repro.simulation import Simulator  # noqa: E402


def _run_cli(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _sliced(call):
    """Run ``call()`` under the benchmark's measurement wrappers."""
    patches = Patches()
    measurement = workloads.Measurement()
    try:
        measurement.install(patches)
        return call(), measurement
    finally:
        patches.restore()


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(bench.WORKLOAD_NAMES)
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = _run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = ({name: unit for name, unit, _, _ in bench.END_TO_END} if trace == 0
                else {name: unit for name, unit, _ in tracing.PER_LAYER})
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    if trace == 0:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("config", [
    workloads.WORKLOADS["paper-collection"].config("tiny", 5),
    workloads.WORKLOADS["dense-swarm"].config("tiny", 5),
    # The paper-scale collection (9,770 packets) for one simulated second.
    workloads.WORKLOADS["paper-collection"].config("bench", 5).with_overrides(max_duration=1.0),
], ids=["paper-tiny", "dense-tiny", "paper-collection-1s"])
def test_slice_stepped_trial_equals_one_run(config):
    plain = runner.run_protocol_trial("dapes", config, 5)
    sliced, measurement = _sliced(lambda: runner.run_protocol_trial("dapes", config, 5))
    assert len(measurement.slices_ms) > 1
    assert plain.events > 0
    assert workloads.digest(sliced.to_dict()) == workloads.digest(plain.to_dict())


def test_slice_stepped_sweep_equals_plain_sweep():
    config = ExperimentConfig.tiny().with_overrides(trials=1, base_seed=7)
    axes = {"wifi_range": (40.0, 100.0)}
    plain = run_experiment("fig10", config, axes=axes, workers=1)
    sliced, measurement = _sliced(lambda: run_experiment("fig10", config, axes=axes, workers=1))
    assert len(measurement.outcomes) == 6
    assert workloads.digest(sliced.to_dict()) == workloads.digest(plain.to_dict())


def test_wrappers_are_removed_after_a_round(tmp_path):
    original_run = Simulator.run
    original_trial = runner.run_protocol_trial
    tracer = tracing.Tracer()
    workloads.run_round(workloads.WORKLOADS["paper-collection"], 2, "tiny", tmp_path,
                        patches_before=lambda patches: tracing.install(tracer, patches))
    assert Simulator.run is original_run
    assert runner.run_protocol_trial is original_trial


def test_traced_call_counts_repeat_and_tracing_is_byte_neutral(tmp_path):
    workload = workloads.WORKLOADS["fig10-artefact"]
    plain = workloads.run_round(workload, 4, "tiny", tmp_path)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        traced = workloads.run_round(
            workload, 4, "tiny", tmp_path, invariants=True,
            patches_before=lambda patches: tracing.install(tracer, patches))
        assert traced.digests == plain.digests
        assert not traced.failed
        metrics = tracing.layer_metrics(tracer, traced.counters(), traced.events, overhead=1.0)
        counts.append(tracing.call_counts(metrics))
    assert counts[0] == counts[1]
    # Every layer the Fig. 10 artefact exercises shows up in the trace.
    for name in ("simulation.run", "mobility.positions", "wireless.transmit",
                 "wireless.neighbors", "ndn.process_interest", "core.select", "crypto.sign",
                 "ip.send", "manet.next_hop", "baselines.rarest_missing"):
        assert counts[0][f"{name}.calls"] > 0, name
    assert tracer.columns["id"] and len(set(map(len, tracer.columns.values()))) == 1


class _CountingIndex:
    """Stands in for a medium's neighbour index and counts the medium's queries."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.queries = 0

    def neighbors(self, *args):
        self.queries += 1
        return self.inner.neighbors(*args)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_neighbor_calls_count_the_medium_queries_once(tmp_path):
    # The default index answers small populations by delegating to its
    # parent's ``neighbors``; the trace must count each query once.
    indexes = []

    def count_queries(build):
        def built(builder, *args, **kwargs):
            scenario = build(builder, *args, **kwargs)
            scenario.medium._index = _CountingIndex(scenario.medium._index)
            indexes.append(scenario.medium._index)
            return scenario
        return built

    def install(patches):
        patches.methods(workloads.ScenarioBuilder, ("build",), count_queries)
        tracing.install(tracer, patches)

    tracer = tracing.Tracer()
    traced = workloads.run_round(workloads.WORKLOADS["dense-swarm"], 2, "tiny", tmp_path,
                                 patches_before=install)
    assert not traced.failed
    queries = sum(index.queries for index in indexes)
    assert queries > 0
    assert tracer.total("wireless.neighbors")[0] == queries


def test_changed_outputs_are_reported_as_failures(tmp_path):
    round_ = workloads.run_round(workloads.WORKLOADS["dense-swarm"], 6, "tiny", tmp_path)
    previous = dict(round_.digests)
    assert workloads.check_digests([round_], previous) == set()
    key = next(iter(previous))
    previous[key] = "0" * 64
    assert workloads.check_digests([round_], previous) == {key}


def test_run_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-swarm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
