"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-collection --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats rounds of the workload for about ``--seconds`` host
seconds and reports the end-to-end metrics (:data:`END_TO_END`); set-up time
is measured separately, in fresh interpreters.  ``--trace 1`` runs one
plain round and one traced round and reports the per-layer metrics
(``tracing.PER_LAYER``).  Every run checks the simulated outputs: digests
must repeat across rounds and across runs of the same code and seed (kept in
``.perfbench/state.json``), the Fig. 10 artefact must load back from its
``ResultStore`` unchanged, and the traced round runs with the invariant
monitor on.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"

#: Every end-to-end metric: (name, unit, better, bound).  ``bound`` is the
#: share of the parent's median by which a metric may worsen.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("slice_ms_p50", "ms", "lower", 0.25),
    ("slice_ms_p90", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("sim_pkt_per_s", "pkt/s", "higher", 0.25),
    ("sim_tx_per_pkt", "frames/pkt", "lower", 0.25),
)

WORKLOAD_NAMES = ("paper-collection", "dense-swarm", "fig10-artefact")
SETUP_PROBES = {"bench": 5, "tiny": 2}


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="host seconds of measured rounds (at least one round runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                        help="tiny runs each workload in seconds (the benchmark's own tests)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="print the seconds to import repro and build the first scenario")
    return parser.parse_args(argv)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def code_hash() -> str:
    """Hash of the simulator's and the benchmark's sources: digests are kept per code."""
    sha = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def load_state() -> Dict[str, dict]:
    path = WORK_DIR / "state.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def save_state(state: Dict[str, dict]) -> None:
    path = WORK_DIR / "state.json"
    temporary = path.with_suffix(".tmp")
    temporary.write_text(json.dumps(state, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(temporary, path)


def setup_probes(args: argparse.Namespace) -> List[float]:
    """Set-up seconds from fresh interpreters, one after another."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    times = []
    for _ in range(SETUP_PROBES[args.scale]):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def report(lines: Dict[str, object]) -> None:
    for name, value in lines.items():
        print(f"  {name:<34} {value}")


def end_to_end(rounds, setup: List[float]) -> Dict[str, float]:
    slices = [value for round_ in rounds for value in round_.slices_ms]
    dapes = rounds[0].dapes()
    acquired = sum(outcome.acquired for outcome in dapes)
    sim_seconds = sum(outcome.sim_seconds for outcome in dapes)
    metrics = {
        "wall_s": statistics.median(round_.wall_s for round_ in rounds),
        "events_per_s": statistics.median(round_.events / round_.wall_s for round_ in rounds),
        "slice_ms_p50": percentile(slices, 50),
        "slice_ms_p90": percentile(slices, 90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_pkt_per_s": acquired / sim_seconds if sim_seconds else 0.0,
        "sim_tx_per_pkt": sum(outcome.frames for outcome in dapes) / max(acquired, 1),
    }
    report({
        "rounds": len(rounds),
        "wall_s per round": " ".join(f"{round_.wall_s:.3f}" for round_ in rounds),
        "trials per round": rounds[0].attempted,
        "events per round": rounds[0].events,
        "slice samples": len(slices),
        "setup probes (s)": " ".join(f"{value:.4f}" for value in setup),
        **{f"{name} ({unit})": f"{metrics[name]:.6g}" for name, unit, _, _ in END_TO_END},
        **{f"{name} (ratio)": f"{value:.4f}" for name, value in rounds[0].gains.items()},
    })
    return metrics


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        # CPU seconds, like every host-time metric (see workloads.HOST_CLOCK).
        start = time.process_time()
        import workloads

        workloads.build_first_scenario(workloads.WORKLOADS[args.workload], args.scale, args.seed)
        print(f"{time.process_time() - start:.6f}")
        return 0

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    scratch = WORK_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    state = load_state()
    key = f"{args.workload}|{args.scale}|{args.seed}|{code_hash()}"
    previous = state.setdefault(key, {"digests": {}})
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} trace={args.trace}")

    # Another round starts only if it should end within --seconds of real time.
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(workloads.run_round(workload, args.seed, args.scale, scratch))
        now = time.perf_counter()
        if args.trace or (now - start) + (now - began) > args.seconds:
            break

    failed = set().union(*(round_.failed for round_ in rounds))
    if args.trace:
        tracer = tracing.Tracer()
        traced = workloads.run_round(workload, args.seed, args.scale, scratch, invariants=True,
                                     patches_before=lambda patches: tracing.install(tracer, patches))
        tracer.write(WORK_DIR / f"spans-{args.workload}.bin")
        rounds.append(traced)
        failed |= traced.failed
        metrics = tracing.layer_metrics(tracer, traced.counters(), traced.events,
                                        overhead=traced.wall_s / rounds[0].wall_s)
        counts = tracing.call_counts(metrics)
        if previous.setdefault("calls", counts) != counts:
            changed = sorted(name for name in counts if previous["calls"].get(name) != counts[name])
            print(f"  call counts differ from an earlier traced run: {', '.join(changed)}")
            failed |= {outcome.key for outcome in traced.outcomes} or {"calls"}
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        report({f"{name} ({units[name]})": f"{value:.6g}" for name, value in metrics.items()})
    else:
        setup = setup_probes(args)
        metrics = end_to_end(rounds, setup)
        units = {name: unit for name, unit, _, _ in END_TO_END}

    mismatched = workloads.check_digests(rounds, previous["digests"])
    if mismatched:
        print(f"  outputs differ between runs of the same code: {', '.join(sorted(mismatched))}")
    failed |= mismatched
    save_state(state)

    attempted = sum(round_.attempted for round_ in rounds)
    failed_count = min(len(failed), attempted)
    report({"failed_frac (ratio)": f"{failed_count / attempted:.4f}"})
    result = {
        "correct": failed_count == 0,
        "attempted": attempted,
        "failed": failed_count,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
