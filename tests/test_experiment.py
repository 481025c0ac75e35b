import csv
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest

from corrdisc import experiment
from corrdisc.experiment import (METRIC_FIELDS, VARIANTS, ConfigError, ExperimentSpec,
                                 RunRow, format_summary, parse_config,
                                 run_experiment, rows_to_table, summarize,
                                 variant_config, write_csv)
from corrdisc.netsim import Metrics, SimConfig, run

SMALL = SimConfig(node_count=8, service_count=5, sessions_per_consumer=2,
                  sim_duration=150.0)


# -- config parsing ---------------------------------------------------------

def test_parse_minimal_config():
    spec = parse_config("node_count = 20\nservice_count = 10\nseeds = 1,2,3\n")
    assert spec.base.node_count == 20
    assert spec.base.service_count == 10
    assert spec.seeds == (1, 2, 3)
    # Everything else takes the defaults.
    assert spec.base.eta == SimConfig(node_count=1, service_count=1).eta
    assert spec.variants == ("mining_off", "mining_on")


def test_parse_empty_config_missing_required():
    with pytest.raises(ConfigError, match="node_count"):
        parse_config("")


def test_parse_eta():
    spec = parse_config("node_count = 4\nservice_count = 2\neta = 0.8\n")
    assert spec.base.eta == 0.8


def test_parse_unknown_key_names_line():
    # scan_interval is no key: SCAN runs every netsim.SCAN_INTERVAL; and
    # consumer_fraction is none: every node is a consumer.
    for key in ("bogus", "scan_interval", "consumer_fraction"):
        with pytest.raises(ConfigError, match=f"line 3: unknown key '{key}'"):
            parse_config(f"node_count = 4\nservice_count = 2\n{key} = 1\n")


def test_parse_bad_value_names_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("node_count = 4\nservice_count = ten\n")


@pytest.mark.parametrize("key,first,again", [
    ("node_count", "4", "9"), ("eta", "0.5", "0.5"), ("seeds", "1", "2,3"),
    ("variants", "mining_on", "mining_off"),
])
def test_parse_rejects_a_repeated_key(key, first, again):
    # A repeated key is an error even when both values agree; the last one
    # used to win silently.
    required = "" if key == "node_count" else "node_count = 4\n"
    text = f"{key} = {first}\n{required}service_count = 2\n# later\n{key} = {again}\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    last = len(text.splitlines())
    assert str(info.value) == f"line {last}: duplicate key {key!r} (first on line 1)"


def test_parse_comments_bools_field_size_and_out():
    text = """
    # experiment
    node_count = 6      # inline comment
    service_count = 3
    eta = 0.5
    log_overheard = true
    field_size = 400x300
    variants = mining_on
    """
    spec = parse_config(text)
    assert spec.base.eta == 0.5
    assert spec.base.log_overheard is True
    assert spec.base.field_size == (400.0, 300.0)
    assert spec.variants == ("mining_on",)
    # The CSV path comes only from `corrdisc run --out`.
    with pytest.raises(ConfigError, match="line 9: key 'out' is not a config key; "
                                          "give the CSV path with --out"):
        parse_config(text + "out = results/foo.csv\n")


def test_parse_rejects_unknown_variant():
    with pytest.raises(ConfigError, match="variant"):
        parse_config("node_count = 4\nservice_count = 2\nvariants = magic\n")


def test_seeds_default_to_zero():
    spec = parse_config("node_count = 4\nservice_count = 2\n")
    assert spec.seeds == (0,)


@pytest.mark.parametrize("text, message", [
    # Each run's variant sets mining_enabled, so the key would be ignored.
    ("mining_enabled = off\n", "line 3: key 'mining_enabled' is set by each run's variant"),
    # Each run sets seed from seeds, whether or not the config lists them.
    ("seed = 5\nseeds = 0,1\n", "key 'seed' is set by each run from 'seeds'"),
    ("seeds = 0,1\nseed = 5\n", "key 'seed' is set by each run from 'seeds'"),
    ("seed = 5\n", "line 3: key 'seed' is set by each run from 'seeds'"),
    # The CSV path is set on the command line.
    ("out = a.csv\n", "line 3: key 'out' is not a config key; give the CSV path with --out"),
])
def test_parse_rejects_keys_that_would_be_ignored(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config("node_count = 4\nservice_count = 2\n" + text)


# The SimConfig fields that each run sets, so no config may.
RUN_SET_FIELDS = {"seed", "mining_enabled"}


def test_parse_reads_every_settable_field():
    # Each field's default, written out as text, parses back to itself with
    # its type: a new field of a type the parser cannot read fails here.
    for field in fields(SimConfig):
        if field.name in RUN_SET_FIELDS:
            continue
        value = 3 if field.default is MISSING else field.default
        if isinstance(value, tuple):
            text = "x".join(str(side) for side in value)
        else:
            text = str(value).lower()
        lines = {"node_count": "4", "service_count": "2", field.name: text}
        spec = parse_config("".join(f"{key} = {raw}\n" for key, raw in lines.items()))
        parsed = getattr(spec.base, field.name)
        assert (parsed, type(parsed)) == (value, type(value)), field.name


def test_readme_config_table_lists_every_settable_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config file", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    settable = {field.name for field in fields(SimConfig)} - RUN_SET_FIELDS
    assert set(listed) | {"node_count", "service_count"} == settable


# -- running -------------------------------------------------------------------

def test_run_experiment_rows_and_pairing():
    spec = ExperimentSpec(base=SMALL, seeds=(2, 0, 1))
    rows = run_experiment(spec)
    assert [(r.seed, r.variant) for r in rows] == [
        (0, "mining_off"), (0, "mining_on"),
        (1, "mining_off"), (1, "mining_on"),
        (2, "mining_off"), (2, "mining_on"),
    ]
    by_seed = {}
    for row in rows:
        by_seed.setdefault(row.seed, []).append(row.metrics.requests_issued)
    for issued in by_seed.values():
        assert issued[0] == issued[1]


@pytest.mark.parametrize("variant, mining", [("mining_off", False), ("mining_on", True)])
def test_variant_config_sets_only_seed_and_mining(variant, mining):
    base = SimConfig(node_count=8, service_count=5, seed=9, mining_enabled=not mining)
    assert variant_config(base, 4, variant) == SimConfig(node_count=8, service_count=5,
                                                         seed=4, mining_enabled=mining)


def test_run_experiment_single_variant_baseline():
    spec = ExperimentSpec(base=SMALL, seeds=(3,), variants=("mining_off",))
    rows = run_experiment(spec)
    assert len(rows) == 1
    assert rows[0].metrics.piggybacked_records_sent == 0


def test_run_experiment_runs_each_variant_once():
    spec = ExperimentSpec(base=SMALL, seeds=(3, 3),
                          variants=("mining_on", "mining_off", "mining_on"))
    rows = run_experiment(spec)
    assert [(r.seed, r.variant) for r in rows] == [(3, "mining_off"), (3, "mining_on")]
    assert summarize(rows)["variants"]["mining_on"]["runs"] == 1


def test_run_experiment_parallel_matches_serial():
    spec = ExperimentSpec(base=SMALL, seeds=(0, 1))
    assert run_experiment(spec, jobs=2) == run_experiment(spec, jobs=1)


def test_run_experiment_starts_no_more_workers_than_runs(monkeypatch):
    # The pool would fork all max_workers at the first submit, so it is
    # never asked for more workers than there are runs.  A serial fake
    # stands in for it: this test must start no process.
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
    spec = ExperimentSpec(base=SMALL, seeds=(0,))
    rows = run_experiment(spec, jobs=5000)
    assert asked == [2]
    assert rows == run_experiment(spec, jobs=1)
    run_experiment(ExperimentSpec(base=SMALL, seeds=(0, 1)), jobs=3)
    assert asked == [2, 3]


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_experiment_rejects_jobs_below_one(jobs):
    spec = ExperimentSpec(base=SMALL, seeds=(0,))
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_experiment(spec, jobs=jobs)


def test_run_experiment_writes_traces(tmp_path):
    # Each file holds the engine's trace lines, each ended by a newline, so
    # a run without events writes an empty file.
    for duration in (SMALL.sim_duration, 0.0):
        base = replace(SMALL, sim_duration=duration)
        trace_dir = tmp_path / f"d{duration}"
        run_experiment(ExperimentSpec(base=base, seeds=(0,)), trace_dir=str(trace_dir))
        for variant in VARIANTS:
            trace: list = []
            run(variant_config(base, 0, variant), trace=trace)
            written = (trace_dir / f"seed0_{variant}.trace").read_bytes()
            assert written == "".join(f"{line}\n" for line in trace).encode()
            assert bool(written) == (duration > 0)


def test_traces_stream_to_disk(tmp_path, monkeypatch):
    # _run_one hands run a sink that writes each line as the run makes it,
    # never a list, and a run that raises leaves the lines written so far.
    sinks = []

    def spy(config, *, trace=None):
        sinks.append(trace)
        return run(config, trace=trace)

    monkeypatch.setattr(experiment, "run", spy)
    run_experiment(ExperimentSpec(base=SMALL, seeds=(0,)), trace_dir=str(tmp_path))
    assert len(sinks) == len(VARIANTS)
    assert all(sink is not None and not isinstance(sink, list) for sink in sinks)

    def failing(config, *, trace=None):
        trace.append("0.000 first line")
        raise RuntimeError("run failed")

    monkeypatch.setattr(experiment, "run", failing)
    with pytest.raises(RuntimeError, match="run failed"):
        run_experiment(ExperimentSpec(base=SMALL, seeds=(1,), variants=("mining_on",)),
                       trace_dir=str(tmp_path))
    assert (tmp_path / "seed1_mining_on.trace").read_text() == "0.000 first line\n"


# -- output ------------------------------------------------------------------------

def test_csv_round_trip_exact(tmp_path):
    spec = ExperimentSpec(base=SMALL, seeds=(0, 1))
    rows = run_experiment(spec)
    path = tmp_path / "rows.csv"
    write_csv(rows, str(path))
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    again = [(int(rec["seed"]), rec["variant"],
              Metrics(**{name: int(rec[name]) for name in METRIC_FIELDS}))
             for rec in records]
    assert again == [(r.seed, r.variant, r.metrics) for r in rows]
    assert [rec["satisfaction_ratio"] for rec in records] == \
        [f"{r.satisfaction_ratio:.4f}" for r in rows]


def test_ratio_formatting():
    metrics = Metrics(requests_issued=2, locally_satisfied=1)
    table = rows_to_table([RunRow(0, "mining_on", metrics)])
    assert table[1][-1] == "0.5000"
    assert table[0][-1] == "satisfaction_ratio"


def test_ratio_zero_requests():
    assert RunRow(0, "mining_on", Metrics()).satisfaction_ratio == 0.0


def test_summary_means_and_wins():
    rows = [
        RunRow(0, "mining_off", Metrics(requests_issued=10, locally_satisfied=4)),
        RunRow(0, "mining_on", Metrics(requests_issued=10, locally_satisfied=6)),
        RunRow(1, "mining_off", Metrics(requests_issued=10, locally_satisfied=5)),
        RunRow(1, "mining_on", Metrics(requests_issued=10, locally_satisfied=5)),
    ]
    summary = summarize(rows)
    assert summary["variants"]["mining_off"]["mean"] == pytest.approx(0.45)
    assert summary["variants"]["mining_on"]["mean"] == pytest.approx(0.55)
    assert summary["mining_on_wins"] == 1
    assert summary["paired_seeds"] == 2
    text = format_summary(rows)
    assert "mining_on wins 1/2 paired seeds" in text


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec(base=SMALL, seeds=()).validate()
    with pytest.raises(ConfigError):
        ExperimentSpec(base=SMALL, seeds=(1,), variants=()).validate()
    with pytest.raises(ConfigError, match="seeds must be >= 0"):
        ExperimentSpec(base=SMALL, seeds=(1, -1)).validate()
