"""Self-tests of the benchmark itself.

Run them explicitly (the file name keeps them out of the repository's own
test collection, whose run time they would otherwise add to)::

    python3 -m pytest -q perfbench/selftest.py

Every workload runs here at the "tiny" scale, so the whole file takes well
under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import run as bench_run  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def scratch():
    path = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_metric_names_and_units_match_benchmark_json():
    def units(key):
        return {m["name"]: m["unit"] for m in BENCHMARK[key]}

    assert units("end_to_end") == bench_run.END_TO_END
    assert units("per_layer") == bench_run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOAD_NAMES)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", wl.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_pass_emits_every_metric(workload, trace):
    proc = run_cli(
        *("--workload", workload, "--seed", "3", "--seconds", "0.5"),
        *("--trace", trace, "--scale", "tiny"),
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = bench_run.PER_LAYER if trace == "1" else bench_run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert all(result["metrics"][k]["value"] > 0 for k in table)


def test_spans_nest_and_self_times_fit_in_wall_time(scratch):
    spec = wl.workload("paper-srp", "tiny")
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, simulation=True, sweep=False, pdes=False)
    try:
        tracer.trial = "t0"
        unit = wl.run_unit(spec, spec.scenario(0, 0), wl.Checker({}), scratch)
    finally:
        installed.restore()
    assert unit.failed == 0
    spans = {span[0]: span for span in tracer.spans}
    assert spans and all(span[2] == "t0" for span in spans.values())
    nested = 0
    for _, parent_id, _, name, start, end in spans.values():
        assert start <= end, name
        parent = spans.get(parent_id)  # a hot parent past its sample is not kept
        if parent is not None:
            assert parent[4] <= start and end <= parent[5], (name, parent[3])
            nested += 1
    assert nested > 0
    total_self = sum(row[2] for row in tracer.totals.values())
    assert 0.0 < total_self <= unit.wall_s
    assert tracer.counters["sim.engine.events"] == unit.counters["events"]
    # Restored: the classes hold the original functions again.
    from repro.sim.channel import Channel

    assert not hasattr(Channel.transmit, "__wrapped__")


def test_perturbed_expected_digest_drives_failed_frac_above_zero(scratch):
    spec = wl.workload("paper-srp", "tiny")
    scenario = spec.scenario(wl.DEFAULT_SEED, 0)
    clean = wl.run_unit(spec, scenario, wl.Checker({}), scratch)
    assert clean.failed == 0
    pinned = wl.Checker({spec.name: {clean.key: clean.digest}})
    assert wl.run_unit(spec, scenario, pinned, scratch).failed == 0
    perturbed = wl.Checker({spec.name: {clean.key: "0" * len(clean.digest)}})
    unit = wl.run_unit(spec, scenario, perturbed, scratch)
    assert unit.failed / unit.trials > 0
    assert any("digest" in p for p in unit.problems)


def test_expected_digests_cover_every_pool_unit():
    expected = json.loads(bench_run.EXPECTED.read_text(encoding="utf-8"))
    for name in wl.WORKLOAD_NAMES:
        spec = wl.workload(name)
        seeds = {spec.unit_seed(wl.DEFAULT_SEED, i) for i in range(wl.POOL)}
        prefix = "round" if spec.kind == "sweep" else ""
        assert set(expected[name]) == {f"{prefix}{seed}" for seed in seeds}


def test_dense_scenario_matches_bench_scaling():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import bench_scaling
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    assert wl.scaling_scenario(200, duration=8.0) == bench_scaling.scaling_scenario(
        200, duration=8.0
    )


def test_import_times_reads_post_order_importtime_output():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       scipy.special",
            "import time:       200 |        300 |     scipy.stats",
            "import time:        50 |        350 |   repro.metrics",
            "import time:       400 |        400 |   numpy",
            "import time:        10 |        760 | repro",
        ]
    )
    times = bench_run.import_times(stderr)
    assert times == {"repro": pytest.approx(760e-6), "scipy": pytest.approx(300e-6)}


def test_bare_directory_exits_nonzero_without_a_result():
    bare = ROOT / ".perfbench" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(
            ROOT / "perfbench",
            bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        args = ("--workload", "paper-srp", "--seed", "0", "--seconds", "1")
        proc = run_cli(*args, "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
