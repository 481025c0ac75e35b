#!/usr/bin/env python3
"""corrdisc benchmark: paired mining-off / mining-on seed sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload flood50 --seed 0 --seconds 50 --trace 0

Each workload runs a fixed number of consecutive root seeds starting at
``--seed``, both variants per seed, through ``run_experiment(spec, jobs=1)``.
With ``--trace 0`` every run is repeated in passes for ``--seconds`` and
the end-to-end metrics count each run's median time over the passes,
rescaled to a reference host speed by a calibration kernel timed between
runs; with ``--trace 1``
an untraced and a traced pass over the workload's first ``trace_seeds``
seeds alternate instead, and the per-layer metrics are medians over the
traced passes (see ``perfbench/README.md``).  Every run goes through the
correctness gate.  The last line of standard output is the JSON result;
the line before it is a JSON report with the environment and details.
"""

from __future__ import annotations

import argparse
import functools
import heapq
import json
import os
import platform
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from corrdisc import experiment, mining, netsim  # noqa: E402
from corrdisc.experiment import VARIANTS, ExperimentSpec, RunRow  # noqa: E402
from corrdisc.netsim import SimConfig  # noqa: E402

import layers  # noqa: E402

PINS_PATH = HERE / "pinned_counters.json"

# Counters whose values at the pinning commit every later commit must
# reproduce.  prediction_hits, piggybacked_records_evicted_unused and
# decode_failures are left out on purpose: planned accounting changes
# redefine or remove them.
PINNED_COUNTERS = ("requests_issued", "locally_satisfied", "requests_failed",
                   "sreq_transmissions", "srep_transmissions",
                   "broadcasts_originated", "packets_dropped",
                   "piggybacked_records_sent")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict
    sessions_per_consumer: int
    seeds: int          # root seeds per untraced pass
    trace_seeds: int    # root seeds per traced pass

    def base_config(self) -> SimConfig:
        # The clock runs a session window past the last session start, so
        # the final sessions close (as in the acceptance config).
        duration = self.sessions_per_consumer * 60.0 + 90.0
        return SimConfig(**self.overrides,
                         sessions_per_consumer=self.sessions_per_consumer,
                         sim_duration=duration)


WORKLOADS = {w.name: w for w in (
    Workload("flood50",
             "50-node acceptance config: SREQ flooding and duplicate drops dominate; mining is a few percent",
             dict(node_count=50, service_count=10),
             sessions_per_consumer=4, seeds=16, trace_seeds=2),
    Workload("mine_heavy",
             "12 nodes logging overheard requests: FP-Growth dominates and floods are "
             "cheap, so each workload is the other's bypass",
             dict(node_count=12, service_count=16, radio_range=250.0,
                  log_overheard=True, log_capacity=48, support=0.3,
                  mining_interval=2.0),
             sessions_per_consumer=3, seeds=80, trace_seeds=4),
)}


# Host-speed calibration (see ``measure_end_to_end``): working-set entries
# and steps of the kernel, the kernel's time on the reference host (a quiet
# 2-vCPU Intel Xeon VM, Python 3.11.7), and the least host time between two
# calibrations.
CALIBRATION_ENTRIES = 200_000
CALIBRATION_STEPS = 25_000
CALIBRATION_REF_S = 0.034
SEGMENT_S = 0.3

# Root seeds whose runs are also made in a child process to measure memory.
MEMORY_SEEDS = 4


# -- one sweep -----------------------------------------------------------------

@dataclass
class Sweep:
    rows: list[RunRow]
    wall_s: float
    setup_s: float
    expected_issued: dict[tuple[int, str], int]

    @property
    def requests(self) -> int:
        return sum(row.metrics.requests_issued for row in self.rows)


def issued_before_end(schedule, duration: float) -> int:
    """Requests the schedule asks for before the clock stops."""
    return sum(1 for spec in schedule for idx in range(len(spec.services))
               if spec.start_time + idx * spec.inter_request_gap < duration)


@contextmanager
def setup_timer(totals: dict, expected_issued: dict):
    """Time ``Simulation.__init__`` (one wrapper per run) and note how many
    requests each run's schedule issues, for the correctness gate."""
    original = vars(netsim.Simulation)["__init__"]

    def timed_init(sim, config, *args, **kwargs):
        start = time.perf_counter()
        original(sim, config, *args, **kwargs)
        totals["setup_s"] += time.perf_counter() - start
        variant = "mining_on" if config.mining_enabled else "mining_off"
        expected_issued[(config.seed, variant)] = issued_before_end(
            sim.schedule, config.sim_duration)

    netsim.Simulation.__init__ = timed_init
    try:
        yield
    finally:
        netsim.Simulation.__init__ = original


def run_sweep(workload: Workload, root_seed: int, seed_count: int,
              profile: layers.LayerProfile | None = None,
              variants: tuple[str, ...] = VARIANTS) -> Sweep:
    """One ``run_experiment`` call, traced when ``profile`` is given."""
    if profile is None and not layers.is_unpatched():
        raise RuntimeError("layer wrappers are still installed")
    spec = ExperimentSpec(base=workload.base_config(),
                          seeds=tuple(range(root_seed, root_seed + seed_count)),
                          variants=variants)
    totals = {"setup_s": 0.0}
    expected_issued: dict = {}
    with setup_timer(totals, expected_issued), \
            (profile.patched() if profile else nullcontext()):
        start = time.perf_counter()
        rows = experiment.run_experiment(spec, jobs=1)
        wall = time.perf_counter() - start
    return Sweep(rows, wall, totals["setup_s"], expected_issued)


# -- correctness gate ---------------------------------------------------------------

def load_pins(workload: str) -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh).get(workload, {})


def gate_failures(row: RunRow, expected_issued: int, pins: dict) -> list[str]:
    """Reasons the run's counters are wrong; empty when it passes."""
    m = row.metrics
    problems = []
    if m.requests_issued != expected_issued:
        problems.append(f"requests_issued {m.requests_issued} != scheduled {expected_issued}")
    if m.locally_satisfied + m.requests_failed > m.requests_issued:
        problems.append("locally_satisfied + requests_failed > requests_issued")
    if m.prediction_hits > m.locally_satisfied:
        problems.append("prediction_hits > locally_satisfied")
    if row.variant == "mining_off" and (m.prediction_hits or m.piggybacked_records_sent):
        problems.append("mining_off run predicted or piggybacked")
    for counter, value in pins.get(f"{row.seed}:{row.variant}", {}).items():
        if getattr(m, counter) != value:
            problems.append(f"{counter} {getattr(m, counter)} != pinned {value}")
    return problems


def count_failures(sweep: Sweep, pins: dict, label: str) -> int:
    failed = 0
    for row in sweep.rows:
        problems = gate_failures(row, sweep.expected_issued[(row.seed, row.variant)], pins)
        if problems:
            failed += 1
            print(f"gate: {label} seed={row.seed} {row.variant}: {'; '.join(problems)}",
                  file=sys.stderr)
    return failed


# -- measurement ----------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- host-speed calibration ---------------------------------------------------------

class _Entry:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0

    def touch(self, now: int) -> int:
        self.hits += 1
        return self.key ^ now


@functools.cache
def _calibration_data() -> tuple[list[_Entry], dict[int, int]]:
    # Built on first use, after the memory children have been forked.
    return [_Entry(i) for i in range(CALIBRATION_ENTRIES)], \
        {i: i for i in range(CALIBRATION_ENTRIES)}


def calibration_kernel(steps: int = CALIBRATION_STEPS) -> int:
    """Fixed pure-Python work of the kinds the simulator does: method calls
    on slotted objects and dict look-ups spread over a working set of tens
    of megabytes, and a heap of tuples.  It imports nothing from
    ``corrdisc``, so no change to the program moves it."""
    entries, table = _calibration_data()
    size = len(entries)
    heap: list[tuple[int, int]] = []
    acc = 0
    for i in range(steps):
        key = (i * 7919) % size
        acc ^= entries[key].touch(i) + table[(key * 31) % size]
        heapq.heappush(heap, (key & 1023, i))
        if len(heap) > 32:
            acc ^= heapq.heappop(heap)[1]
    return acc


def calibration_s() -> float:
    """Host seconds the calibration kernel takes now."""
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def run_peak_rss_mb(workload: Workload, key: tuple[int, str]) -> float:
    """Peak resident memory of one run, made in a forked child of this
    process before any other run, so that every child starts from the same
    footprint (the interpreter with numpy and ``corrdisc`` imported)."""
    pid = os.fork()
    if pid == 0:
        try:
            run_sweep(workload, key[0], 1, variants=(key[1],))
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
            os._exit(1)
        os._exit(0)
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise RuntimeError(f"run {key} failed in its memory child")
    return usage.ru_maxrss / 1024


def measure_end_to_end(workload: Workload, seed: int, seconds: float,
                       pins: dict) -> tuple[dict, dict]:
    """Run every (root seed, variant) of the workload in passes, one
    ``run_experiment`` call per run, until another pass would overrun
    ``seconds``.

    A shared host slows all work down by up to 1.7 times in phases of
    seconds to minutes, so host seconds are rescaled to reference seconds:
    runs go in segments of at least ``SEGMENT_S`` host seconds, the
    calibration kernel is timed between segments, and a run's reference
    time is its host time times ``CALIBRATION_REF_S`` over the mean of
    the two calibrations around its segment.  ``requests_per_ref_s`` is
    the workload's requests over the sum of each run's median reference
    time; ``setup_s`` is the median over every run of every pass of the
    run's reference set-up time.  Before the passes the runs of the first
    ``MEMORY_SEEDS`` root seeds are made once more, each in a child process,
    for ``peak_rss_mb`` (see ``run_peak_rss_mb``).
    """
    runs = [(root, variant) for root in range(seed, seed + workload.seeds)
            for variant in VARIANTS]
    ref_s: dict[tuple[int, str], list[float]] = {key: [] for key in runs}
    setup_ref_s: list[float] = []
    requests: dict[tuple[int, str], int] = {}
    pass_wall: list[float] = []
    started = time.perf_counter()
    try:
        peak_rss = [run_peak_rss_mb(workload, key)
                    for key in runs[:2 * MEMORY_SEEDS]]
    except Exception:
        traceback.print_exc()
        return {"attempted": 1, "failed": 1, "metrics": {}}, {}
    _calibration_data()  # so that no calibration times building it
    calibrations = [calibration_s()]
    attempted = failed = 0
    while True:
        pass_started = time.perf_counter()
        segment: list[tuple[tuple[int, str], Sweep]] = []
        try:
            for index, key in enumerate(runs):
                attempted += 1
                sweep = run_sweep(workload, key[0], 1, variants=(key[1],))
                failed += count_failures(sweep, pins, "untraced")
                requests[key] = sweep.requests
                segment.append((key, sweep))
                if (index == len(runs) - 1
                        or sum(s.wall_s for _, s in segment) >= SEGMENT_S):
                    calibrations.append(calibration_s())
                    scale = CALIBRATION_REF_S / statistics.mean(calibrations[-2:])
                    for done, s in segment:
                        ref_s[done].append(s.wall_s * scale)
                        setup_ref_s.append(s.setup_s * scale)
                    segment = []
        except Exception:
            traceback.print_exc()
            failed += 1
            break
        pass_wall.append(time.perf_counter() - pass_started)
        if time.perf_counter() - started + pass_wall[-1] > seconds:
            break
    metrics = {}
    if pass_wall:
        run_ref_s = sum(statistics.median(times) for times in ref_s.values())
        metrics = {
            "requests_per_ref_s": metric(sum(requests.values()) / run_ref_s, "1/s"),
            "setup_s": metric(statistics.median(setup_ref_s), "s"),
            "peak_rss_mb": metric(statistics.median(peak_rss), "MB"),
        }
    details = {"passes": len(pass_wall),
               "runs_per_pass": len(runs),
               "requests_per_pass": sum(requests.values()),
               "pass_wall_s": pass_wall,
               "run_peak_rss_mb": peak_rss,
               "calibration_s": calibrations}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, details


# Layers that report a call count and total seconds, and those that report
# seconds only (their call count is the number of runs).
COUNTED_LAYERS = ("netsim.deliver_broadcast", "netsim.deliver_unicast",
                  "node.issue_request", "node.handle_sreq", "node.handle_srep",
                  "node.expire_pending", "node.remine", "mining.fpgrowth",
                  "mining.rank_related", "sessionlog.record_request",
                  "sessionlog.close_stale_sessions", "sessionlog.snapshot_transactions")
TIMED_LAYERS = ("netsim.init", "netsim.place_nodes", "workload.build_correlation_matrix",
                "workload.build_schedule", "netsim.run")


def layer_metrics(profile: layers.LayerProfile, sweep: Sweep) -> dict[str, dict]:
    """Per-layer figures of one traced sweep; README.md gives the table."""
    stats = profile.stats
    out: dict[str, dict] = {}
    for name in COUNTED_LAYERS:
        out[f"{name}.calls"] = metric(stats[name].calls, "count")
    for name in COUNTED_LAYERS + TIMED_LAYERS:
        out[f"{name}.s"] = metric(stats[name].total_ns / 1e9, "s")
    wall_ns = stats["experiment.run_experiment"].total_ns
    for name, st in stats.items():
        out[f"{name}.self_share"] = metric(st.self_ns / wall_ns, "ratio")

    sreq, srep = stats["node.handle_sreq"], stats["node.handle_srep"]
    issue, fpgrowth = stats["node.issue_request"], stats["mining.fpgrowth"]
    transmissions = sum(r.metrics.sreq_transmissions + r.metrics.srep_transmissions
                        for r in sweep.rows)
    hit_ratio = 1.0 - fpgrowth.calls / profile.miner_calls if profile.miner_calls else 0.0
    out.update({
        "netsim.loop_self.s": metric(stats["netsim.run"].self_ns / 1e9, "s"),
        "experiment.self.s": metric(stats["experiment.run_experiment"].self_ns / 1e9, "s"),
        "netsim.deliveries_per_tx": metric((sreq.calls + srep.calls) / transmissions, "count"),
        "node.handle_sreq.us_per_call": metric(sreq.total_ns / 1e3 / sreq.calls, "us"),
        "node.handle_sreq.wasted_ratio": metric(sreq.empty_results / sreq.calls, "ratio"),
        "node.issue_request.local_ratio": metric(issue.empty_results / issue.calls, "ratio"),
        "mining.fpgrowth.us_per_call": metric(
            fpgrowth.total_ns / 1e3 / max(fpgrowth.calls, 1), "us"),
        "mining.cache_hit_ratio": metric(hit_ratio, "ratio"),
    })
    return out


# The oracle enumerates every subset of a snapshot's universe: about 0.1 s
# for a 16-item universe, so checking all of a mine_heavy trace's ~1200
# snapshots would take two minutes.  An evenly spaced sample bounds it.
ORACLE_SAMPLE = 40


def replay_snapshots(snapshots, support: float) -> tuple[list[float], int, int]:
    """Mine every captured snapshot in isolation and check an evenly spaced
    sample of those the brute-force oracle can enumerate.  Returns
    per-snapshot microseconds, the number checked and the number that
    disagreed with the oracle."""
    micros = []
    mined_by_snapshot = []
    for snapshot in snapshots:
        transactions = list(snapshot)
        start = time.perf_counter_ns()
        mined = mining.mine_frequent_itemsets(transactions, support)
        micros.append((time.perf_counter_ns() - start) / 1e3)
        if len(set().union(*transactions)) <= mining.MAX_ORACLE_UNIVERSE:
            mined_by_snapshot.append((transactions, mined))
    step = -(-len(mined_by_snapshot) // ORACLE_SAMPLE) or 1
    sample = mined_by_snapshot[::step]
    mismatched = sum(1 for transactions, mined in sample
                     if mined != mining.brute_force_frequent_itemsets(transactions, support))
    return micros, len(sample), mismatched


def measure_layers(workload: Workload, seed: int, seconds: float,
                   pins: dict) -> tuple[dict, dict]:
    """Alternate untraced and traced passes for ``seconds``; per-layer
    medians over traced passes, then the FP-Growth snapshot replay."""
    passes: list[dict[str, dict]] = []
    snapshots: dict = {}
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        attempted += 4 * workload.trace_seeds
        profile = layers.LayerProfile()
        try:
            plain = run_sweep(workload, seed, workload.trace_seeds)
            traced = run_sweep(workload, seed, workload.trace_seeds, profile)
        except Exception:
            traceback.print_exc()
            failed += 4 * workload.trace_seeds
            break
        failed += count_failures(plain, pins, "untraced")
        failed += count_failures(traced, pins, "traced")
        for a, b in zip(plain.rows, traced.rows):
            if (a.seed, a.variant) != (b.seed, b.variant) or a.metrics != b.metrics:
                failed += 1
                print(f"trace: seed={b.seed} {b.variant}: traced metrics differ "
                      f"from untraced", file=sys.stderr)
        figures = layer_metrics(profile, traced)
        figures["trace_overhead"] = metric(traced.wall_s / plain.wall_s, "x")
        passes.append(figures)
        snapshots = snapshots or profile.snapshots
        elapsed = time.perf_counter() - started
        if elapsed + plain.wall_s + traced.wall_s > seconds:
            break
    metrics = {}
    details: dict = {"passes": len(passes)}
    if passes:
        micros, checked, mismatched = replay_snapshots(snapshots,
                                                       workload.base_config().support)
        failed += mismatched
        attempted += checked
        metrics = {name: metric(statistics.median(p[name]["value"] for p in passes),
                                unit["unit"])
                   for name, unit in passes[0].items()}
        metrics["mining.fpgrowth_snapshot_us"] = metric(
            statistics.median(micros) if micros else 0.0, "us")
        metrics["mining.fpgrowth_snapshots"] = metric(len(micros), "count")
        metrics["mining.oracle_checked"] = metric(checked, "count")
        metrics = dict(sorted(metrics.items()))
        details["oracle_mismatches"] = mismatched
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, details


# -- environment record --------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    """Commit of a checkout that is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(ROOT),
    }


# -- entry point -------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="first root seed")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    workload = WORKLOADS[args.workload]
    pins = load_pins(workload.name)
    measure = measure_layers if args.trace else measure_end_to_end
    result, details = measure(workload, args.seed, args.seconds, pins)
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "config": asdict(workload.base_config()),
        "environment": environment(),
        **details,
    }
    print(json.dumps(report))
    print(json.dumps({"correct": result["failed"] == 0 and bool(result["metrics"]),
                      **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
