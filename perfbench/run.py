"""Repository benchmark driver: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-srp --seed 0 --seconds 15 --trace 0

A run measures the workload's set-up time as the median of several
fresh-interpreter launches of ``perfbench/probe.py``, runs one untimed
warm-up unit, then runs the workload's closed loop for ``--seconds`` and
checks every unit's output (expected digests for seed 0, physical
invariants and the paper gate for every seed).  With ``--trace 1`` it runs
one untraced and one traced pass instead of the timed loop and reports the
per-layer metrics.  The last line of standard output is the result::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

``--record-expected`` re-records ``perfbench/expected.json`` (the seed-0
digests of every workload's unit pool); do that only on a commit whose
outputs are known good, and never in the change that claims a speed-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = BENCH_DIR / "expected.json"

#: One BLAS/OpenMP thread per process: unpinned, numpy starts ``nproc``
#: threads in every interpreter, which costs CPU during import and
#: competes with the 2-worker workloads on a 2-core host.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Fresh-interpreter launches per run whose median is ``setup_s``.  One
#: launch samples the host's slow and fast phases once; comparing set-up
#: times across commits needs the median.
SETUP_LAUNCHES = 3

#: Metric name -> unit.  ``BENCHMARK.json`` lists exactly these.
END_TO_END = {
    "setup_s": "s",
    "sim_speed": "sim_s/s",
    "trials_per_min": "1/min",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "repro.import_s": "s",
    "scipy.import_s": "s",
    "sim.network.build_s": "s",
    "sim.engine.events": "count",
    "sim.engine.run_s": "s",
    "sim.engine.events_per_s": "1/s",
    "sim.eventq.self_s": "s",
    "sim.channel.transmissions": "count",
    "sim.channel.receptions_started": "count",
    "sim.channel.collisions": "count",
    "sim.channel.delivered_ratio": "ratio",
    "sim.channel.transmit_self_s": "s",
    "sim.channel.carrier_sense_calls": "count",
    "sim.channel.carrier_sense_s": "s",
    "sim.mac.frames": "count",
    "sim.mac.retries": "count",
    "sim.mac.drops": "count",
    "sim.mac.retry_ratio": "ratio",
    "sim.mac.send_s": "s",
    "sim.mac.receive_s": "s",
    "protocols.control_tx": "count",
    "protocols.handle_s": "s",
    "core.order_s": "s",
    "experiments.jobs.plan_s": "s",
    "experiments.executor.cell_p50_s": "s",
    "experiments.executor.cell_p90_s": "s",
    "experiments.executor.busy_frac": "ratio",
    "experiments.executor.first_cell_delay_s": "s",
    "experiments.executor.tail_idle_s": "s",
    "experiments.store.puts": "count",
    "experiments.store.put_s": "s",
    "experiments.store.bytes_written": "bytes",
    "experiments.store.get_s": "s",
    "experiments.store.load_results_s": "s",
    "experiments.gate.evaluate_s": "s",
    "experiments.gate.passed": "count",
    "sim.pdes.windows": "count",
    "sim.pdes.boundary_frames": "count",
    "sim.pdes.barrier_s": "s",
    "sim.pdes.barrier_frac": "ratio",
    "sim.pdes.worker_events": "count",
    "sim.pdes.replica_ratio": "ratio",
    "sim.pdes.speedup": "ratio",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=("paper-srp", "dense-delay", "sweep-smoke", "dense-delay-procs2"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny: seconds-long scenarios for the self-tests (no expected digests)",
    )
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.record_expected:
        return args
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


# -- host and set-up -----------------------------------------------------------------


def host_fingerprint() -> Dict[str, Any]:
    """Where and on what code a result was measured."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or cpu
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(str(path.relative_to(ROOT)).encode())
        tree.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": tree.hexdigest()[:16],
    }


def launch_probe(args, scratch: Path, *, importtime: bool = False):
    """One fresh interpreter doing the workload's set-up: (seconds from
    launch to ready, the probe's phase times, its stderr)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [
        str(BENCH_DIR / "probe.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--scale",
        args.scale,
        "--scratch",
        str(scratch / "probe-store"),
    ]
    # stderr goes to a file: -X importtime writes more than a pipe buffers
    # before the probe's ready line, and a full pipe would stall the probe.
    with (scratch / "probe-stderr.txt").open("w+", encoding="utf-8") as err_file:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err_file, text=True
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err_file.seek(0)
        err = err_file.read()
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err[-2000:]}")
    return ready, json.loads(line), err


def measure_setup(args, scratch: Path) -> Dict[str, Any]:
    """Median set-up time over fresh launches, with the probes' phase times."""
    samples, phases = [], []
    for _ in range(SETUP_LAUNCHES):
        ready, phase, _ = launch_probe(args, scratch)
        samples.append(ready)
        phases.append(phase)
    return {
        "setup_s": statistics.median(samples),
        "samples": samples,
        "phases": {k: statistics.median(p[k] for p in phases) for k in phases[0]},
    }


def import_times(stderr: str) -> Dict[str, float]:
    """``repro`` and ``scipy`` import seconds from ``-X importtime`` output.

    ``repro`` is the cumulative time of the probe's own top-level ``repro``
    import; ``scipy`` sums the cumulative time of every scipy module that is
    not itself imported by a scipy module, wherever in the tree it sits.
    The output is post-order (children first), so it is read backwards.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    repro_s = scipy_s = 0.0
    ancestors: List[tuple] = []
    for depth, name, seconds in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if depth == 0 and name == "repro":
            repro_s += seconds
        top = name.split(".")[0]
        if top == "scipy" and all(a[1].split(".")[0] != "scipy" for a in ancestors):
            scipy_s += seconds
        ancestors.append((depth, name))
    return {"repro": repro_s, "scipy": scipy_s}


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- timed and traced passes ---------------------------------------------------------


def timed_loop(wl, spec, args, checker, scratch: Path):
    """Closed loop over whole units for about ``--seconds``: the next unit
    starts only if it is expected to end less than half a unit past it."""
    units = []
    start = time.perf_counter()
    while True:
        scenario = spec.scenario(args.seed, len(units))
        units.append(wl.run_unit(spec, scenario, checker, scratch))
        wall = time.perf_counter() - start
        if wall + 0.5 * wall / len(units) >= args.seconds:
            return units, wall


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def executor_metrics(tracer, cells: List[Dict[str, Any]]) -> Dict[str, float]:
    """Cell-time percentiles and pool utilisation from the cell spans of
    every ``execute_jobs`` call that ran cells (2 workers each); empty
    when no pool ran."""
    if not cells:
        return {}
    durations = [c["end"] - c["start"] for c in cells]
    busy = window = first = tail = 0.0
    rounds = 0
    for _, _, _, name, start, end in tracer.spans:
        if name != "experiments.executor.execute_jobs":
            continue
        inside = [c for c in cells if start <= c["start"] and c["end"] <= end]
        if not inside:
            continue  # a resume pass: every cell came from the store
        rounds += 1
        busy += sum(c["end"] - c["start"] for c in inside)
        window += 2 * (end - start)
        first += min(c["start"] for c in inside) - start
        last_end: Dict[int, float] = {}
        for c in inside:
            last_end[c["pid"]] = max(last_end.get(c["pid"], 0.0), c["end"])
        tail += end - min(last_end.values())
    return {
        "cell_p50_s": statistics.median(durations),
        "cell_p90_s": statistics.quantiles(durations, n=10)[8],
        "busy_frac": busy / window,
        "first_cell_delay_s": first / rounds,
        "tail_idle_s": tail / rounds,
    }


def traced_run(wl, spec, args, checker, scratch: Path, fingerprint):
    """Untraced pass, traced pass, per-layer metrics; returns (units, metrics)."""
    from perfbench import tracing
    from repro.experiments.executor import RUN_HOOK_ENV

    count = 2 if spec.kind == "sweep" else 1  # >= 100 cells for the sweep's p90
    scenarios = [spec.scenario(args.seed, i) for i in range(count)]
    untraced = [wl.run_unit(spec, sc, checker, scratch) for sc in scenarios]
    tracer = tracing.Tracer()
    trace_dir = scratch / "cells"
    trace_dir.mkdir()
    installed = tracing.install(
        tracer,
        simulation=spec.kind != "procs",
        sweep=spec.kind == "sweep",
        pdes=spec.kind == "procs",
    )
    traced, bytes_written = [], 0
    # Pool workers fork from here: they inherit the wrappers, the tracer
    # and these variables, and the executor resolves the hook by name.
    os.environ[RUN_HOOK_ENV] = tracing.CELL_HOOK
    os.environ[tracing.TRACE_DIR_ENV] = str(trace_dir)
    tracing.activate(tracer)
    try:
        for i, scenario in enumerate(scenarios):
            tracer.trial = f"{spec.name}/unit{i}"
            traced.append(wl.run_unit(spec, scenario, checker, scratch))
            if spec.kind == "sweep":
                bytes_written += dir_bytes(scratch / "store")
    finally:
        tracing.activate(None)
        os.environ.pop(RUN_HOOK_ENV, None)
        os.environ.pop(tracing.TRACE_DIR_ENV, None)
        installed.restore()
    cells = tracing.read_cells(trace_dir)
    for cell in cells:
        tracer.merge(cell["totals"], cell["counters"])
    units = untraced + traced

    untraced_wall = sum(u.wall_s for u in untraced)
    traced_wall = sum(u.wall_s for u in traced)
    imports = import_times(launch_probe(args, scratch, importtime=True)[2])
    c = tracer.counters

    def unit_sum(key: str) -> float:
        return sum(u.counters.get(key, 0) for u in traced)

    events = c.get("sim.engine.events", 0) or unit_sum("events")
    started = c.get("sim.channel.receptions_started", 0)
    frames = c.get("sim.mac.frames", 0)
    carrier = ("sim.channel.is_busy_near", "sim.channel.busy_horizon")
    metrics = {
        "repro.import_s": imports["repro"],
        "scipy.import_s": imports["scipy"],
        "sim.network.build_s": tracer.total_s("sim.network.build_network"),
        "sim.engine.events": events,
        "sim.engine.run_s": tracer.total_s("sim.network.run"),
        "sim.engine.events_per_s": events / untraced_wall,
        "sim.eventq.self_s": tracer.self_s("sim.eventq.", prefix=True),
        "sim.channel.transmissions": c.get("sim.channel.transmissions", 0),
        "sim.channel.receptions_started": started,
        "sim.channel.collisions": c.get("sim.channel.collisions", 0),
        "sim.channel.delivered_ratio": (
            c.get("sim.channel.receptions_delivered", 0) / started if started else 0.0
        ),
        "sim.channel.transmit_self_s": tracer.self_s("sim.channel.transmit"),
        "sim.channel.carrier_sense_calls": tracer.calls(*carrier),
        "sim.channel.carrier_sense_s": tracer.self_s(*carrier),
        "sim.mac.frames": frames,
        "sim.mac.retries": c.get("sim.mac.retries", 0),
        "sim.mac.drops": c.get("sim.mac.drops", 0),
        "sim.mac.retry_ratio": c.get("sim.mac.retries", 0) / frames if frames else 0.0,
        "sim.mac.send_s": tracer.self_s("sim.mac.send"),
        "sim.mac.receive_s": tracer.self_s("sim.mac.radio_receive"),
        "protocols.control_tx": unit_sum("control_tx"),
        "protocols.handle_s": tracer.self_s("protocols.handle_packet"),
        "core.order_s": tracer.self_s("core.", prefix=True),
        "experiments.jobs.plan_s": tracer.total_s("experiments.jobs.plan_sweep"),
        "experiments.store.puts": tracer.calls("experiments.store.put"),
        "experiments.store.put_s": tracer.total_s("experiments.store.put"),
        "experiments.store.bytes_written": bytes_written,
        "experiments.store.get_s": tracer.total_s("experiments.store.get"),
        "experiments.store.load_results_s": tracer.total_s(
            "experiments.store.load_results"
        ),
        "experiments.gate.evaluate_s": tracer.total_s("experiments.gate.evaluate_gate"),
        "experiments.gate.passed": unit_sum("gate_passed"),
        "sim.pdes.windows": unit_sum("windows"),
        "sim.pdes.boundary_frames": unit_sum("boundary_frames"),
        "sim.pdes.barrier_s": unit_sum("barrier_s"),
        "sim.pdes.barrier_frac": unit_sum("barrier_s") / traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    # Layers the workload never enters read 0.
    metrics = {**dict.fromkeys(PER_LAYER, 0.0), **metrics}
    for name, value in executor_metrics(tracer, cells).items():
        metrics[f"experiments.executor.{name}"] = value
    if spec.kind == "procs":
        metrics["sim.pdes.worker_events"] = unit_sum("events")
        # The fair serial baseline: the same scenarios on one core, same delay.
        serial = wl.workload("dense-delay", args.scale)
        baseline = [wl.run_unit(serial, sc, checker, scratch) for sc in scenarios]
        units += baseline
        serial_events = sum(u.counters["events"] for u in baseline)
        metrics["sim.pdes.replica_ratio"] = unit_sum("events") / serial_events
        metrics["sim.pdes.speedup"] = sum(u.wall_s for u in baseline) / untraced_wall
        print(
            "derived dense-delay-procs2 speedup over dense-delay "
            f"(seed {args.seed}, this run): {metrics['sim.pdes.speedup']:.3f}x"
        )
    trace_path = ROOT / ".perfbench" / "traces" / f"{spec.name}-seed{args.seed}.json"
    tracer.write(
        trace_path,
        {
            "workload": spec.name,
            "seed": args.seed,
            "host": fingerprint,
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
        },
    )
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return units, metrics


# -- entry points --------------------------------------------------------------------


def record_expected(wl, scratch: Path) -> None:
    """Write the seed-0 digest of every unit in every workload's pool."""
    table: Dict[str, Dict[str, str]] = {}
    for name in wl.WORKLOAD_NAMES:
        spec = wl.workload(name)
        table[name] = {}
        for index in range(wl.POOL):
            scenario = spec.scenario(wl.DEFAULT_SEED, index)
            unit = wl.run_unit(spec, scenario, wl.Checker({}), scratch)
            if unit.problems:
                raise RuntimeError(f"{name} {unit.key}: {unit.problems}")
            table[name][unit.key] = unit.digest
            print(f"{name} {unit.key} {unit.digest} ({unit.wall_s:.1f} s)", flush=True)
    text = json.dumps(table, indent=1, sort_keys=True) + "\n"
    EXPECTED.write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro package under {ROOT / 'src'}; run from the root "
            "of a full checkout",
            file=sys.stderr,
        )
        return 2
    os.environ.update(THREAD_PINS)  # before anything imports numpy
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads as wl

    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_expected:
            record_expected(wl, scratch)
            return 0
        return run(wl, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(wl, args, scratch: Path) -> int:
    spec = wl.workload(args.workload, args.scale)
    fingerprint = host_fingerprint()
    print("host " + json.dumps(fingerprint, sort_keys=True), flush=True)
    if args.scale == "full":
        checker = wl.Checker(json.loads(EXPECTED.read_text(encoding="utf-8")))
    else:
        checker = wl.Checker({})

    setup = measure_setup(args, scratch)
    samples = " ".join(f"{s:.3f}" for s in setup["samples"])
    phases = " ".join(f"{k}={v:.3f}" for k, v in setup["phases"].items())
    print(f"setup launches (s): {samples}  median phases: {phases}", flush=True)
    warm_spec, warm_scenario = spec.warmup(args.seed)
    wl.run_unit(warm_spec, warm_scenario, wl.Checker({}), scratch)

    if args.trace:
        units, metrics = traced_run(wl, spec, args, checker, scratch, fingerprint)
        table = PER_LAYER
    else:
        units, wall = timed_loop(wl, spec, args, checker, scratch)
        passed = sum(u.trials - u.failed for u in units)
        metrics = {
            "setup_s": setup["setup_s"],
            "sim_speed": sum(u.sim_s for u in units) / wall,
            "trials_per_min": passed * 60.0 / wall,
            "peak_rss_mb": peak_rss_mb(),
        }
        table = END_TO_END

    attempted = sum(u.trials for u in units)
    failed = sum(u.failed for u in units)
    for u in units:
        status = "ok" if not u.problems else "FAILED: " + "; ".join(u.problems[:5])
        print(
            f"unit {spec.name} {u.key} digest={u.digest} wall={u.wall_s:.3f}s "
            f"trials={u.trials} {status}"
        )
    print(f"failed_frac = {failed / attempted:.4f} ({failed} of {attempted} trials)")
    for name, unit in table.items():
        print(f"metric {spec.name}/{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in table.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
