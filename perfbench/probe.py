"""Set-up probe: one fresh interpreter doing a workload's set-up, then exiting.

``python3 perfbench/probe.py --workload NAME --seed N --scratch DIR`` imports
``repro``, plans the workload's first unit and readies it — builds the
network (trial workloads), plans the shard strips and builds one replica
(the windowed workload), or plans the sweep, opens its store and starts a
2-worker pool (the sweep) — then prints one JSON line with its phase times
and exits.  The driver times each launch from ``Popen`` to that line, so a
set-up sample covers interpreter start, imports and every step above.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    phases = {}
    mark = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    # The package import pulls in every layer, scipy included.
    import repro  # noqa: F401
    from perfbench import workloads as wl

    lap("import_s")
    spec = wl.workload(args.workload, args.scale)
    scenario = spec.scenario(args.seed, 0)
    pool = None
    try:
        if spec.kind == "sweep":
            from concurrent.futures import ProcessPoolExecutor

            from repro.experiments.jobs import plan_sweep
            from repro.experiments.store import ResultsStore

            plan_sweep(
                scenario,
                wl.PAPER_PROTOCOLS,
                pause_times=spec.pause_times,
                trials=spec.sweep_trials,
            )
            lap("plan_s")
            store = ResultsStore(args.scratch)
            store.ensure_meta(
                scale="smoke",
                scenario=scenario,
                protocols=wl.PAPER_PROTOCOLS,
                pause_times=spec.pause_times,
                trials=spec.sweep_trials,
            )
            lap("store_s")
            pool = ProcessPoolExecutor(max_workers=2)
            for future in [pool.submit(os.getpid) for _ in range(2)]:
                future.result()
            lap("pool_s")
        else:
            from repro.protocols import protocol_factory
            from repro.sim.network import build_network

            if spec.kind == "procs":
                from repro.sim.pdes import ShardPlan

                ShardPlan.for_scenario(scenario, 2)
                lap("plan_s")
            build_network(scenario, protocol_factory("SRP"))
            lap("build_s")
        print(json.dumps(phases), flush=True)
    finally:
        if pool is not None:
            pool.shutdown()
        shutil.rmtree(args.scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
