"""The benchmark's four workloads: what each one runs and how it is checked.

Every workload is a closed loop of *units*: the next unit starts when the
previous one (or, in the sweep, a pool worker) is free.

* ``paper-srp`` — one serial paper-tier SRP trial per unit
  (``EvaluationScale.paper_tier()``: 50 nodes, 15 CBR flows, 1100 m x 600 m,
  pause 0) on the default engine.
* ``dense-delay`` — one serial SRP trial per unit on the 200-node scaling
  scenario under the speed-of-light propagation delay.
* ``dense-delay-procs2`` — the same trial through
  ``run_trial_sharded_processes(max_workers=2)`` in windowed mode.
* ``sweep-smoke`` — one smoke-scale sweep round per unit: 5 protocols x 2
  pauses x 8 trials through ``execute_jobs(workers=2)`` into a fresh store,
  then ``load_results``, the paper gate and a cached-only resume pass.

Inputs come only from ``--seed``.  Unit ``i`` of a run uses the scenario
seed ``native + 1000 * seed + i % POOL`` (a sweep round, whose trials take
consecutive seeds: ``native + 1000 * seed + 8 * (i % POOL)``), so seed 0
replays the workloads' native scenarios (the ones the expected digests in
``expected.json`` pin) and any other seed is a held-out input checked by
physical invariants and the gate alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List

from repro.experiments import executor as executor_mod
from repro.experiments import gate as gate_mod
from repro.experiments import jobs as jobs_mod
from repro.experiments import store as store_mod
from repro.experiments.paper import PAPER_PROTOCOLS, EvaluationScale
from repro.protocols import protocol_factory
from repro.sim import network as network_mod
from repro.sim import pdes as pdes_mod
from repro.sim.phy import SPEED_OF_LIGHT_DELAY_S_PER_M
from repro.workloads.scenario import Scenario, scaled_scenario

#: The seed whose outputs ``expected.json`` pins bit for bit.
DEFAULT_SEED = 0

#: Distinct scenario seeds a run cycles through (trial workloads: trials;
#: sweep: rounds), so the expected-digest table stays finite.
POOL = 4

#: Trials per protocol x pause cell of one sweep round.
SWEEP_TRIALS = 8

#: Paper node density (100 nodes on 2200 m x 600 m), as in
#: ``benchmarks/bench_scaling.py``.
_AREA_PER_NODE = 2200.0 * 600.0 / 100.0

WORKLOAD_NAMES = ("paper-srp", "dense-delay", "sweep-smoke", "dense-delay-procs2")


def scaling_scenario(node_count: int, *, duration: float, seed: int = 31) -> Scenario:
    """``benchmarks/bench_scaling.py::scaling_scenario``, restated here so the
    benchmark imports nothing from outside its own directory but ``src``."""
    height = 600.0
    width = max(node_count * _AREA_PER_NODE / height, 600.0)
    return scaled_scenario(
        node_count=node_count,
        flow_count=max(4, (30 * node_count) // 100),
        duration=duration,
        terrain_width=width,
        terrain_height=height,
        seed=seed,
    )


@dataclass(frozen=True)
class Workload:
    """One workload at one scale; ``base`` is its scenario at the native seed."""

    name: str
    kind: str  #: "trial" (serial), "procs" (windowed 2-process) or "sweep"
    base: Scenario
    pause_times: tuple = (0.0,)
    sweep_trials: int = SWEEP_TRIALS

    def unit_seed(self, seed: int, index: int) -> int:
        """Scenario seed of unit ``index`` in a run with ``--seed seed``."""
        stride = self.sweep_trials if self.kind == "sweep" else 1
        return self.base.seed + 1000 * seed + stride * (index % POOL)

    def scenario(self, seed: int, index: int) -> Scenario:
        """The scenario unit ``index`` runs (sweep: the sweep's base scenario)."""
        return self.base.with_seed(self.unit_seed(seed, index))

    def warmup(self, seed: int) -> tuple[Workload, Scenario]:
        """A unit a sixteenth as long, outside the pool (a sweep round of one
        trial per cell), run untimed so the timed loop starts warm."""
        short = replace(self.base, duration=self.base.duration / 16.0)
        spec = replace(self, base=short, sweep_trials=1)
        return spec, short.with_seed(self.base.seed + 1000 * seed + 999)

    @property
    def sim_seconds_per_unit(self) -> float:
        """Simulated seconds one unit completes."""
        if self.kind == "sweep":
            cells = len(PAPER_PROTOCOLS) * len(self.pause_times) * self.sweep_trials
            return cells * self.base.duration
        return self.base.duration


def workload(name: str, scale: str = "full") -> Workload:
    """The named workload at ``scale`` ("full" is the benchmark; "tiny" runs
    in seconds and exists for the self-tests)."""
    tiny = scale == "tiny"
    if scale not in ("full", "tiny"):
        raise ValueError(f"unknown scale {scale!r}")
    if name == "paper-srp":
        if tiny:
            base = scaled_scenario(
                node_count=12,
                flow_count=3,
                duration=10.0,
                terrain_width=600.0,
                terrain_height=300.0,
            )
        else:
            base = EvaluationScale.paper_tier().scenario.with_pause_time(0.0)
        return Workload(name, "trial", base)
    if name in ("dense-delay", "dense-delay-procs2"):
        nodes, duration = (24, 3.0) if tiny else (200, 8.0)
        base = scaling_scenario(nodes, duration=duration).with_propagation_delay(
            SPEED_OF_LIGHT_DELAY_S_PER_M
        )
        kind = "procs" if name == "dense-delay-procs2" else "trial"
        return Workload(name, kind, base)
    if name == "sweep-smoke":
        smoke = EvaluationScale.smoke()
        return Workload(
            name,
            "sweep",
            smoke.scenario,
            pause_times=tuple(smoke.pause_times),
            sweep_trials=1 if tiny else SWEEP_TRIALS,
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}")


# -- output checks -----------------------------------------------------------------


def digest(record: Dict[str, Any]) -> str:
    """A stable digest of a JSON-safe record (floats serialise exactly)."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def summary_problems(summary) -> List[str]:
    """Physical invariants every fault-free trial summary must satisfy."""
    problems = []
    if summary.data_sent <= 0:
        problems.append("no data packets sent")
    if not 0 <= summary.data_delivered <= summary.data_sent:
        problems.append("delivered outside [0, sent]")
    if summary.control_transmissions <= 0:
        problems.append("no control transmissions")
    if not (math.isfinite(summary.mean_latency) and summary.mean_latency >= 0.0):
        problems.append(f"bad mean latency {summary.mean_latency!r}")
    if summary.data_delivered > 0 and summary.mean_latency <= 0.0:
        problems.append("deliveries with zero latency")
    if summary.mac_drops_per_node < 0 or summary.duplicate_deliveries < 0:
        problems.append("negative drop or duplicate count")
    if summary.average_sequence_number < 0:
        problems.append("negative sequence-number growth")
    if summary.data_sent_during_fault or summary.data_sent_post_fault:
        problems.append("fault-phase traffic in a fault-free scenario")
    return problems


def channel_problems(stats) -> List[str]:
    """Conservation checks on a serial trial's ``ChannelStats``."""
    problems = []
    if stats.transmissions <= 0:
        problems.append("no transmissions")
    if not 0 <= stats.receptions_delivered <= stats.receptions_started:
        problems.append("delivered receptions outside [0, started]")
    if not 0 <= stats.collisions <= stats.receptions_started:
        problems.append("collisions outside [0, started]")
    return problems


@dataclass
class UnitResult:
    """What one unit produced: its checked outcome and the counters the
    end-to-end and per-layer metrics read."""

    key: str  #: "<scenario seed>" (trial workloads) or "round<seed>" (sweep)
    wall_s: float
    sim_s: float
    trials: int
    failed: int
    digest: str
    problems: List[str]
    counters: Dict[str, float]


class Checker:
    """Compares unit outputs against the expected digests of the default seed.

    ``expected`` maps workload name -> unit key -> digest.  A unit with no
    expected entry (a held-out seed) is judged by its physical checks alone.
    """

    def __init__(self, expected: Dict[str, Dict[str, str]]) -> None:
        self.expected = expected

    def pins(self, workload_name: str, key: str) -> bool:
        """Whether the unit ``key`` has an expected digest."""
        return key in self.expected.get(workload_name, {})

    def problems(self, workload_name: str, key: str, got: str) -> List[str]:
        want = self.expected.get(workload_name, {}).get(key)
        if want is not None and want != got:
            return [f"digest {got} != expected {want}"]
        return []


# -- units -------------------------------------------------------------------------


def run_trial_unit(spec: Workload, scenario: Scenario, checker: Checker) -> UnitResult:
    """One serial trial on the default engine, checked."""
    start = time.perf_counter()
    net = network_mod.build_network(scenario, protocol_factory("SRP"))
    summary = net.run()
    wall = time.perf_counter() - start
    events = net.simulator.events_processed
    record = dict(summary.to_dict(), events=events)
    got = digest(record)
    key = str(scenario.seed)
    problems = summary_problems(summary) + channel_problems(net.channel.stats)
    if events <= 0:
        problems.append("no events processed")
    problems += checker.problems(spec.name, key, got)
    return UnitResult(
        key=key,
        wall_s=wall,
        sim_s=scenario.duration,
        trials=1,
        failed=1 if problems else 0,
        digest=got,
        problems=problems,
        counters={"events": events, "control_tx": summary.control_transmissions},
    )


def run_procs_unit(spec: Workload, scenario: Scenario, checker: Checker) -> UnitResult:
    """One windowed 2-process trial, checked."""
    start = time.perf_counter()
    report = pdes_mod.run_trial_sharded_processes(
        scenario, "SRP", static_positions=False, max_workers=2
    )
    wall = time.perf_counter() - start
    summary = report.summary
    record = dict(summary.to_dict(), events=report.events_processed)
    got = digest(record)
    key = str(scenario.seed)
    problems = summary_problems(summary)
    if report.mode != "windowed" or report.workers_used != 2:
        problems.append(f"ran {report.mode} x{report.workers_used}, not windowed x2")
    if report.events_processed <= 0 or report.windows <= 0:
        problems.append("no events or no windows")
    problems += checker.problems(spec.name, key, got)
    return UnitResult(
        key=key,
        wall_s=wall,
        sim_s=scenario.duration,
        trials=1,
        failed=1 if problems else 0,
        digest=got,
        problems=problems,
        counters={
            "events": report.events_processed,
            "control_tx": summary.control_transmissions,
            "windows": report.windows,
            "boundary_frames": report.boundary_frames,
            "barrier_s": report.barrier_seconds,
        },
    )


def run_sweep_unit(
    spec: Workload,
    scenario: Scenario,
    checker: Checker,
    store_root: Path,
) -> UnitResult:
    """One sweep round into a fresh store: execute, load, gate, resume."""
    if store_root.exists():
        shutil.rmtree(store_root)
    start = time.perf_counter()
    planned = jobs_mod.plan_sweep(
        scenario,
        PAPER_PROTOCOLS,
        pause_times=spec.pause_times,
        trials=spec.sweep_trials,
    )
    store = store_mod.ResultsStore(store_root)
    store.ensure_meta(
        scale="smoke",
        scenario=scenario,
        protocols=PAPER_PROTOCOLS,
        pause_times=spec.pause_times,
        trials=spec.sweep_trials,
    )
    quarantined = []

    def progress(event) -> None:
        if event.failed:
            quarantined.append(event.job.cell_label)

    outcomes = executor_mod.execute_jobs(
        planned, workers=2, store=store, progress=progress
    )
    results = store.load_results()
    report = gate_mod.evaluate_gate(results)
    fresh = []
    executor_mod.execute_jobs(
        planned,
        workers=2,
        store=store,
        progress=lambda event: fresh.append(event) if not event.cached else None,
    )
    wall = time.perf_counter() - start

    problems = [f"quarantined {label}" for label in quarantined]
    records = {}
    for job in planned:
        summary = outcomes.get(job)
        if summary is None:
            continue
        records[job.cell_label] = summary.to_dict()
        problems += [f"{job.cell_label}: {p}" for p in summary_problems(summary)]
        if results.summaries.get(job.cell) != summary:
            problems.append(f"{job.cell_label}: store round trip differs")
    passed = len(report.passed)
    key = f"round{scenario.seed}"
    # A violated invariant fails any round.  The pinned seed-0 rounds must
    # also pass all 18; a held-out round may leave an invariant
    # inconclusive (at 8 trials an outlier cell can widen a confidence
    # interval past the claimed separation), which is not a violation.
    if report.failed or (checker.pins(spec.name, key) and passed != 18):
        violated = ", ".join(o.name for o in report.failed) or "none"
        problems.append(
            f"gate passed {passed}/{len(report.outcomes)}, violated: {violated}"
        )
    if fresh:
        problems.append(f"resume ran {len(fresh)} fresh cells")
    got = digest(records)
    problems += checker.problems(spec.name, key, got)
    # A round is one output (a gated sweep): any problem fails all its cells.
    return UnitResult(
        key=key,
        wall_s=wall,
        sim_s=spec.sim_seconds_per_unit,
        trials=len(planned),
        failed=len(planned) if problems else 0,
        digest=got,
        problems=problems,
        counters={
            "control_tx": sum(r["control_transmissions"] for r in records.values()),
            "gate_passed": passed,
        },
    )


def run_unit(
    spec: Workload, scenario: Scenario, checker: Checker, scratch: Path
) -> UnitResult:
    """Dispatch one unit of ``spec``; a sweep round's store lives in ``scratch``."""
    if spec.kind == "trial":
        return run_trial_unit(spec, scenario, checker)
    if spec.kind == "procs":
        return run_procs_unit(spec, scenario, checker)
    return run_sweep_unit(spec, scenario, checker, scratch / "store")
