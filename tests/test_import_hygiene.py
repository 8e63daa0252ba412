"""Import hygiene: the runtime seam and the cold-import footprint.

``repro.protocols`` and ``repro.runtime`` are the runtime-agnostic side of
the seam: the same code runs under the discrete-event simulator and as live
asyncio daemons, so it must not import simulator machinery.  Three
``repro.sim`` modules are explicitly *allowed* because they are pure data
models shared by both runtimes:

* ``repro.sim.packet`` — the Packet/Frame wire model,
* ``repro.sim.stats``  — trial statistics and summaries,
* ``repro.sim.rng``    — deterministic seed-derived RNG streams.

Everything else under ``repro.sim`` (engine, node, mac, channel, network,
mobility, spatial index, event queues, faults, tuning, ...) is sim-only: an
import of it from the runtime-agnostic side is a seam leak, caught here by
walking the AST of every module rather than by convention.  This is the
enforcement half of the rule that node/protocol statistics paths read time
only through the runtime ``clock`` accessor.

The cold-import tests pin the second rule: importing the package (and the
CLI, simulator, protocols and live runtime) needs only the standard library.
scipy (the Student-t quantile behind confidence intervals) and networkx (the
loop-freedom checks) load on first use, so a process that never builds an
interval or a graph never pays their import cost.  These tests run in the
bare ``lint`` CI job, where none of the heavy packages is installed.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Third-party packages that must not load on ``import repro``.
HEAVY_MODULES = ("scipy", "networkx", "numpy")

#: Entry points every CLI call, sweep worker and live router imports.
COLD_IMPORTS = (
    "repro",
    "repro.experiments.__main__",
    "repro.sim.network",
    "repro.protocols",
    "repro.runtime.live",
)

#: Packages whose modules must stay runnable under any Runtime.
RUNTIME_AGNOSTIC_PACKAGES = ("protocols", "runtime")

#: repro.sim submodules that are runtime-agnostic data models.
ALLOWED_SIM_MODULES = {"packet", "stats", "rng"}


def _absolute_module(node: ast.ImportFrom, package_parts) -> str:
    """Resolve a possibly-relative ``from X import Y`` to an absolute module."""
    if node.level == 0:
        return node.module or ""
    base = package_parts[: len(package_parts) - (node.level - 1)]
    if node.module:
        return ".".join(list(base) + [node.module])
    return ".".join(base)


def _sim_imports(path: Path):
    """Every repro.sim submodule imported at the top level of ``path``."""
    relative = path.relative_to(SRC.parent).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts.pop()
    package_parts = parts[:-1] if path.name != "__init__.py" else parts

    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                if name.startswith("repro.sim"):
                    found.append((name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            module = _absolute_module(node, package_parts)
            if module == "repro.sim":
                for alias in node.names:
                    found.append((f"repro.sim.{alias.name}", node.lineno))
            elif module.startswith("repro.sim."):
                found.append((module, node.lineno))
    return found


def test_runtime_agnostic_code_imports_no_simulator_machinery():
    violations = []
    for package in RUNTIME_AGNOSTIC_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            for module, lineno in _sim_imports(path):
                submodule = module.split(".")[2] if module.count(".") >= 2 else ""
                if submodule not in ALLOWED_SIM_MODULES:
                    violations.append(
                        f"{path.relative_to(SRC.parent)}:{lineno} imports "
                        f"{module} (sim-only; allowed: "
                        f"{sorted(ALLOWED_SIM_MODULES)})"
                    )
    assert not violations, "runtime seam leaks:\n" + "\n".join(violations)


def test_the_checker_sees_the_legitimate_imports():
    # Self-test: the walker must actually find imports, or a refactor that
    # breaks its resolution logic would green-light everything.
    found = [
        module
        for path in sorted((SRC / "runtime").rglob("*.py"))
        for module, _ in _sim_imports(path)
    ]
    assert "repro.sim.packet" in found
    assert "repro.sim.stats" in found


def test_sim_node_reads_time_through_the_clock_accessor():
    # The statistics paths in the sim Node must go through ``self.clock.now``
    # (the Runtime seam), never ``self.simulator.now`` — the live node has no
    # simulator at all, and the seam's bit-identity rests on both runtimes
    # sharing one time accessor.
    source = (SRC / "sim" / "node.py").read_text(encoding="utf-8")
    assert "self.simulator.now" not in source
    assert "self.clock.now" in source


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that sees this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cold_import_loads_no_heavy_third_party_module():
    code = "\n".join(
        [f"import {module}" for module in COLD_IMPORTS]
        + [
            "import sys",
            f"print(sorted(m for m in {HEAVY_MODULES!r} if m in sys.modules))",
        ]
    )
    assert _run_fresh(code).strip() == "[]"


def test_confidence_interval_loads_scipy_on_first_use():
    pytest.importorskip("scipy")
    code = """
import sys
from repro.metrics.confidence import mean_confidence_interval
assert mean_confidence_interval([4.0]).half_width == 0.0
before = "scipy" in sys.modules
half_width = mean_confidence_interval([1.0, 2.0, 3.0]).half_width
print(before, "scipy.stats" in sys.modules, repr(half_width))
"""
    before, after, half_width = _run_fresh(code).split()
    assert (before, after) == ("False", "True")
    # The exact value before the import was deferred: not one ulp may move.
    assert float(half_width) == 2.48413771175033
