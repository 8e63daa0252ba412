"""Run-time routing-invariant monitoring.

The paper's central claim is *instantaneous* loop freedom: at no point in time
may the successor graph for any destination contain a cycle.  The
:class:`LoopFreedomMonitor` lets integration tests and failure-injection
experiments assert exactly that while a trial runs: protocols (or tests) call
:meth:`record_successors` whenever a routing table changes, and the monitor
re-checks acyclicity of the per-destination successor graph.

It is intentionally decoupled from the protocol implementations — any protocol
exposing its next-hop sets can be audited, which is how the tests demonstrate
that AODV-style baselines *can* transiently violate what SRP guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Set

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["LoopFreedomMonitor", "LoopViolation"]

NodeId = Hashable


@dataclass(frozen=True, slots=True)
class LoopViolation:
    """One observed successor-graph cycle."""

    time: float
    destination: NodeId
    cycle: tuple

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        return f"t={self.time:.3f}s dest={self.destination!r} cycle={self.cycle}"


class LoopFreedomMonitor:
    """Tracks per-destination successor sets and records any cycle."""

    def __init__(self) -> None:
        self._successors: Dict[NodeId, Dict[NodeId, Set[NodeId]]] = {}
        self.violations: List[LoopViolation] = []
        self.checks = 0

    def record_successors(
        self,
        time: float,
        destination: NodeId,
        node: NodeId,
        successors: Iterable[NodeId],
    ) -> None:
        """Update ``node``'s successor set toward ``destination`` and re-check."""
        per_destination = self._successors.setdefault(destination, {})
        per_destination[node] = set(successors)
        self._check(time, destination)

    def _check(self, time: float, destination: NodeId) -> None:
        import networkx as nx

        self.checks += 1
        graph = self.successor_graph(destination)
        if not nx.is_directed_acyclic_graph(graph):
            cycle = tuple(edge for edge in nx.find_cycle(graph))
            self.violations.append(LoopViolation(time, destination, cycle))

    @property
    def is_clean(self) -> bool:
        """True when no routing loop has ever been observed."""
        return not self.violations

    def successor_graph(self, destination: NodeId) -> nx.DiGraph:
        """The most recent successor graph recorded for ``destination``."""
        import networkx as nx

        graph = nx.DiGraph()
        for node, successors in self._successors.get(destination, {}).items():
            graph.add_node(node)
            for successor in successors:
                graph.add_edge(node, successor)
        return graph
