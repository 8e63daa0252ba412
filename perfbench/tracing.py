"""Layer tracing from outside the program: wrappers around public entry points.

A :class:`Tracer` keeps a stack of open spans.  Each wrapped call is one
span (name, start, end, parent, trial id); when it closes, its duration is
added to its parent's child time, so a span's *self time* is its duration
minus the part its child spans cover.  Per-name totals (calls, total
seconds, self seconds) are exact; individual spans are kept in memory for
the coarse entry points and for the first ``HOT_SPANS_KEPT`` calls of each
hot one, and are written out once, at the end of the traced run.

The wrappers are installed on the classes and modules *before* the network
is built, because the hot paths bind methods at construction (the engine
binds ``CalendarQueue.push``, the channel binds each MAC's
``radio_receive``, each node binds its protocol's ``handle_packet``).

Sweep cells run in forked pool workers, which inherit the installed
wrappers and a copy of the tracer.  :func:`traced_cell` is the
``REPRO_RUN_HOOK`` that resets that copy per cell, runs the cell, and
appends the cell's span and per-layer totals to a JSON-lines file the
driver reads back.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The tracer the pool-worker hook reports through.  The hook is resolved
#: by name in each worker, so it cannot receive the tracer as an argument;
#: workers inherit this reference across fork.
_ACTIVE: Optional["Tracer"] = None

#: Directory the pool-worker hook writes its per-cell records to.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: ``REPRO_RUN_HOOK`` value that routes pool cells through :func:`traced_cell`.
CELL_HOOK = "perfbench.tracing:traced_cell"

#: Spans kept per hot entry point (all of a coarse one's are kept).
HOT_SPANS_KEPT = 2000


class Tracer:
    """Span stack, per-name totals, kept spans and harvested counters."""

    def __init__(self) -> None:
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (span id, parent id, trial id, name, start, end)
        self.spans: List[Tuple[int, Optional[int], Any, str, float, float]] = []
        self.counters: Dict[str, float] = {}
        self.trial: Any = None

    def reset(self) -> None:
        """Forget everything recorded (a forked worker starts each cell
        clean).  Cleared in place: installed wrappers hold these objects."""
        self._stack.clear()
        for row in self.totals.values():
            row[:] = [0, 0.0, 0.0]
        self.spans.clear()
        self.counters.clear()
        self.trial = None

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        hot: bool = False,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` inside a span named ``name``.

        ``hot`` spans are kept only for their first ``HOT_SPANS_KEPT`` calls;
        ``after(result, *args)`` runs once the span has closed, to harvest
        counters from the call's result or receiver.
        """
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = next(tracer._ids)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += duration
                if not hot or totals[0] <= HOT_SPANS_KEPT:
                    tracer.spans.append(
                        (
                            span_id,
                            parent[1] if parent is not None else None,
                            tracer.trial,
                            name,
                            start,
                            end,
                        )
                    )
            if after is not None:
                after(result, *args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def self_s(self, *names: str, prefix: bool = False) -> float:
        """Summed self seconds of the named spans (or of every name with
        one of the given prefixes)."""
        return self._sum(2, names, prefix)

    def total_s(self, *names: str, prefix: bool = False) -> float:
        """Summed total seconds of the named spans."""
        return self._sum(1, names, prefix)

    def calls(self, *names: str, prefix: bool = False) -> int:
        """Summed call counts of the named spans."""
        return int(self._sum(0, names, prefix))

    def _sum(self, column: int, names, prefix: bool) -> float:
        if prefix:
            return sum(
                row[column]
                for name, row in self.totals.items()
                if any(name.startswith(p) for p in names)
            )
        return sum(self.totals[n][column] for n in names if n in self.totals)

    def merge(self, totals: Dict[str, List[float]], counters: Dict[str, float]) -> None:
        """Fold in totals and counters recorded by another process."""
        for name, row in totals.items():
            mine = self.totals.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                mine[i] += row[i]
        for name, value in counters.items():
            self.count(name, value)

    def write(self, path: Path, extra: Dict[str, Any]) -> None:
        """Write kept spans, totals and counters as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(
            extra,
            totals=self.totals,
            counters=self.counters,
            spans=[
                dict(id=i, parent=p, trial=t, name=n, start=s, end=e)
                for i, p, t, n, s, e in self.spans
            ],
        )
        path.write_text(json.dumps(doc), encoding="utf-8")


class Installation:
    """Patched attributes, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _harvest_network(tracer: Tracer) -> Callable:
    """After ``Network.run``: fold the trial's public counters into ``tracer``."""

    def after(summary, network) -> None:
        stats = network.channel.stats
        tracer.count("sim.engine.events", network.simulator.events_processed)
        tracer.count("sim.channel.transmissions", stats.transmissions)
        tracer.count("sim.channel.receptions_started", stats.receptions_started)
        tracer.count("sim.channel.receptions_delivered", stats.receptions_delivered)
        tracer.count("sim.channel.collisions", stats.collisions)
        for node in network.nodes.values():
            mac = node.mac.stats
            tracer.count("sim.mac.frames", mac.transmitted_frames)
            tracer.count("sim.mac.retries", mac.retries)
            tracer.count("sim.mac.drops", mac.drops)
        tracer.count("protocols.control_tx", summary.control_transmissions)

    return after


def install(
    tracer: Tracer, *, simulation: bool, sweep: bool, pdes: bool
) -> Installation:
    """Wrap the entry points of the layers a workload exercises.

    ``simulation`` covers the simulator's layers (network build and run,
    event queue, channel, MAC, protocols, core ordering); ``sweep`` the
    experiment harness (planning, executor, store, gate); ``pdes`` the
    cross-process trial runner.
    """
    from repro.core import ordering as ordering_mod
    from repro.experiments import executor as executor_mod
    from repro.experiments import gate as gate_mod
    from repro.experiments import jobs as jobs_mod
    from repro.experiments import store as store_mod
    from repro.protocols.base import RoutingProtocol
    from repro.protocols.srp import protocol as srp_mod
    from repro.protocols.srp import table as srp_table_mod
    from repro.sim import channel as channel_mod
    from repro.sim import eventq as eventq_mod
    from repro.sim import mac as mac_mod
    from repro.sim import network as network_mod
    from repro.sim import pdes as pdes_mod

    inst = Installation()

    def wrap(owner, attr, name, **kwargs):
        inst.patch(owner, attr, tracer.wrap(name, owner.__dict__[attr], **kwargs))

    if simulation:
        wrap(network_mod, "build_network", "sim.network.build_network")
        harvest = _harvest_network(tracer)
        wrap(network_mod.Network, "run", "sim.network.run", after=harvest)
        queue = eventq_mod.CalendarQueue
        wrap(queue, "push", "sim.eventq.push", hot=True)
        wrap(queue, "pop", "sim.eventq.pop", hot=True)
        # The engine's run loop pops the active heap with a C-level heappop
        # and calls _advance once per bucket, never pop(); wrapping _advance
        # is the only way to see the queue's bucket-walk cost from outside.
        wrap(queue, "_advance", "sim.eventq.advance", hot=True)
        channel = channel_mod.Channel
        wrap(channel, "transmit", "sim.channel.transmit", hot=True)
        wrap(channel, "is_busy_near", "sim.channel.is_busy_near", hot=True)
        wrap(channel, "busy_horizon", "sim.channel.busy_horizon", hot=True)
        wrap(mac_mod.Mac, "send", "sim.mac.send", hot=True)
        wrap(mac_mod.Mac, "radio_receive", "sim.mac.radio_receive", hot=True)
        pending = list(RoutingProtocol.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "handle_packet" in cls.__dict__:
                wrap(cls, "handle_packet", "protocols.handle_packet", hot=True)
        for fn in ("new_order", "new_order_for_rreq_advertisement", "ordering_min"):
            wrap(srp_mod, fn, f"core.{fn}", hot=True)
        wrap(srp_table_mod, "ordering_max", "core.ordering_max", hot=True)
        for method in ("precedes", "preceded_by", "feasible_successor"):
            wrap(ordering_mod.Ordering, method, f"core.Ordering.{method}", hot=True)
    if sweep:
        wrap(jobs_mod, "plan_sweep", "experiments.jobs.plan_sweep")
        wrap(executor_mod, "execute_jobs", "experiments.executor.execute_jobs")
        store = store_mod.ResultsStore
        wrap(store, "put", "experiments.store.put", hot=True)
        wrap(store, "get", "experiments.store.get", hot=True)
        wrap(store, "load_results", "experiments.store.load_results")
        wrap(gate_mod, "evaluate_gate", "experiments.gate.evaluate_gate")
    if pdes:
        entry = "run_trial_sharded_processes"
        wrap(pdes_mod, entry, f"sim.pdes.{entry}")
    return inst


def activate(tracer: Optional[Tracer]) -> None:
    """Make ``tracer`` the one :func:`traced_cell` reports through."""
    global _ACTIVE
    _ACTIVE = tracer


def traced_cell(job):
    """``REPRO_RUN_HOOK`` for pool workers: run one cell inside a span and
    append its record to ``$PERFBENCH_TRACE_DIR/cells-<pid>.jsonl``."""
    from repro.experiments.executor import run_job

    tracer = _ACTIVE
    if tracer is None:
        return run_job(job)
    tracer.reset()
    tracer.trial = job.content_key
    start = time.perf_counter()
    summary = tracer.wrap("experiments.executor.cell", run_job)(job)
    end = time.perf_counter()
    record = {
        "pid": os.getpid(),
        "key": job.content_key,
        "start": start,
        "end": end,
        "totals": tracer.totals,
        "counters": tracer.counters,
    }
    path = Path(os.environ[TRACE_DIR_ENV]) / f"cells-{os.getpid()}.jsonl"
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    return summary


def read_cells(trace_dir: Path) -> List[Dict[str, Any]]:
    """Every cell record the pool workers wrote, in start order."""
    cells = []
    for path in sorted(trace_dir.glob("cells-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            cells.append(json.loads(line))
    return sorted(cells, key=lambda cell: cell["start"])
