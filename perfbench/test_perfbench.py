"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest -q perfbench
"""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

import run as bench  # first: puts src/ on sys.path
import layers
from corrdisc.experiment import RunRow
from corrdisc.netsim import Metrics

HERE = Path(__file__).resolve().parent

# Small enough for a unit test, large enough that FP-Growth runs.
TINY = replace(bench.WORKLOADS["mine_heavy"], sessions_per_consumer=2, seeds=1,
               trace_seeds=1)


def originals():
    return {(owner, attr): vars(owner)[attr] for _, owner, attr in layers.TARGETS}


def test_wrappers_are_removed_before_untraced_runs():
    before = originals()
    profile = layers.LayerProfile()
    bench.run_sweep(TINY, 0, 1, profile)
    assert originals() == before
    assert layers.is_unpatched()
    assert profile.stats["node.handle_sreq"].calls > 0
    with profile.patched():
        assert not layers.is_unpatched()
        with pytest.raises(RuntimeError, match="still installed"):
            bench.run_sweep(TINY, 0, 1)
    assert originals() == before


def test_wrappers_are_removed_when_the_run_raises():
    before = originals()
    with pytest.raises(ValueError):
        bench.run_sweep(replace(TINY, overrides={**TINY.overrides, "support": 2.0}),
                        0, 1, layers.LayerProfile())
    assert originals() == before


def test_self_time_excludes_wrapped_children():
    profile = layers.LayerProfile()
    inner = profile.wrap("inner", lambda: sum(range(20000)))
    outer = profile.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    o, i = profile.stats["outer"], profile.stats["inner"]
    assert (o.calls, i.calls) == (1, 3)
    assert o.self_ns == o.total_ns - i.total_ns
    assert i.self_ns == i.total_ns


def test_self_times_never_negative_and_children_within_parent():
    profile = layers.LayerProfile()
    bench.run_sweep(TINY, 0, 1, profile)
    stats = profile.stats
    for name, st in stats.items():
        assert 0 <= st.self_ns <= st.total_ns, name
    children_of = {
        "experiment.run_experiment": ("netsim.init", "netsim.run"),
        "netsim.init": ("netsim.place_nodes", "workload.build_correlation_matrix",
                        "workload.build_schedule"),
        "netsim.run": ("netsim.deliver_broadcast", "netsim.deliver_unicast",
                       "node.issue_request", "node.handle_sreq", "node.handle_srep",
                       "node.expire_pending", "node.remine"),
        "node.remine": ("mining.fpgrowth", "sessionlog.snapshot_transactions"),
    }
    for parent, children in children_of.items():
        assert sum(stats[c].total_ns for c in children) <= stats[parent].total_ns, parent
    assert stats["mining.fpgrowth"].calls > 0
    assert profile.miner_calls >= stats["mining.fpgrowth"].calls
    assert len(profile.snapshots) == stats["mining.fpgrowth"].calls


def test_traced_sweep_reproduces_untraced_metrics():
    plain = bench.run_sweep(TINY, 3, 1)
    traced = bench.run_sweep(TINY, 3, 1, layers.LayerProfile())
    assert [(r.seed, r.variant, r.metrics) for r in plain.rows] == \
           [(r.seed, r.variant, r.metrics) for r in traced.rows]


def pinned_row(workload: str, key: str) -> tuple[RunRow, dict]:
    pins = bench.load_pins(workload)
    seed, variant = key.split(":")
    return RunRow(int(seed), variant, Metrics(**pins[key])), pins


def test_gate_passes_pinned_counters_and_rejects_each_perturbation():
    for workload in bench.WORKLOADS:
        row, pins = pinned_row(workload, "0:mining_off")
        expected = row.metrics.requests_issued
        assert bench.gate_failures(row, expected, pins) == []
        for counter in bench.PINNED_COUNTERS:
            value = getattr(row.metrics, counter)
            bad = RunRow(row.seed, row.variant, replace(row.metrics, **{counter: value + 1}))
            assert any(counter in p for p in bench.gate_failures(bad, expected, pins)), counter


def test_gate_checks_hold_without_pins():
    ok = Metrics(requests_issued=10, locally_satisfied=4, requests_failed=6,
                 prediction_hits=2, piggybacked_records_sent=3)
    assert bench.gate_failures(RunRow(7, "mining_on", ok), 10, {}) == []
    cases = [
        (RunRow(7, "mining_on", ok), 11),
        (RunRow(7, "mining_on", replace(ok, requests_failed=7)), 10),
        (RunRow(7, "mining_on", replace(ok, prediction_hits=5)), 10),
        (RunRow(7, "mining_off", ok), 10),
    ]
    for row, expected in cases:
        assert bench.gate_failures(row, expected, {}), row


def test_pins_cover_the_default_sweep_of_every_workload():
    for name, workload in bench.WORKLOADS.items():
        pins = bench.load_pins(name)
        for seed in range(workload.seeds):
            for variant in ("mining_off", "mining_on"):
                assert set(pins[f"{seed}:{variant}"]) == set(bench.PINNED_COUNTERS)


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    # TINY runs shorter sessions than mine_heavy, so its pins do not apply.
    e2e, _ = bench.measure_end_to_end(TINY, 0, 0.0, {})
    per_layer, _ = bench.measure_layers(TINY, 0, 0.0, {})
    for result, key in ((e2e, "end_to_end"), (per_layer, "per_layer")):
        assert result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared


def test_run_times_are_rescaled_by_the_calibration_around_them(monkeypatch):
    # A host running the kernel at half the reference speed halves every
    # run's reference time, so the throughput reads twice the host figure.
    walls = []
    real_run_sweep = bench.run_sweep

    def recording(*args, **kwargs):
        sweep = real_run_sweep(*args, **kwargs)
        walls.append(sweep.wall_s)
        return sweep

    monkeypatch.setattr(bench, "run_sweep", recording)
    monkeypatch.setattr(bench, "calibration_s", lambda: 2 * bench.CALIBRATION_REF_S)
    result, details = bench.measure_end_to_end(TINY, 0, 0.0, {})
    assert details["passes"] == 1 and len(walls) == 2
    throughput = result["metrics"]["requests_per_ref_s"]["value"]
    assert throughput == pytest.approx(details["requests_per_pass"] / (sum(walls) / 2))


def test_calibration_kernel_is_fixed_work():
    assert bench.calibration_kernel(5000) == bench.calibration_kernel(5000)
    assert "corrdisc" not in bench.calibration_kernel.__code__.co_names


def test_readme_gives_each_workload_reason_and_the_layer_table():
    readme = (HERE / "README.md").read_text()
    for name in bench.WORKLOADS:
        assert re.search(rf"^### `{name}`\n\n\S", readme, re.M), name
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    table = "\n".join(line for line in readme.splitlines() if line.startswith("| `"))
    for m in spec["per_layer"]:
        assert f"`{m['name']}`" in table, m["name"]
