import os

import pytest
from numpy.random import SeedSequence, default_rng

from corrdisc.cli import main
from corrdisc.mining import MAX_ORACLE_UNIVERSE
from corrdisc.netsim import SimConfig, Simulation
from corrdisc.packets import ID_LIMIT
from corrdisc.workload import build_correlation_matrix, cm_to_text

CONFIG = """
node_count = 8
service_count = 5
sessions_per_consumer = 2
sim_duration = 150
seeds = 0,1
"""


def test_run_subcommand_end_to_end(tmp_path, capsys):
    config = tmp_path / "exp.txt"
    config.write_text(CONFIG)
    out = tmp_path / "rows.csv"
    code = main(["run", str(config), "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "mining_off" in captured and "mining_on" in captured
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4          # header + 2 seeds x 2 variants
    assert lines[0].startswith("seed,variant,requests_issued")


def test_run_subcommand_writes_results_csv_by_default(tmp_path, monkeypatch, capsys):
    config = tmp_path / "exp.txt"
    config.write_text(CONFIG)
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(config)]) == 0
    assert "wrote 4 rows to results.csv" in capsys.readouterr().out
    assert len((tmp_path / "results.csv").read_text().splitlines()) == 1 + 4


def test_run_subcommand_with_trace_dir(tmp_path):
    config = tmp_path / "exp.txt"
    config.write_text(CONFIG)
    code = main(["run", str(config), "--out", str(tmp_path / "r.csv"),
                 "--trace", str(tmp_path / "traces")])
    assert code == 0
    assert sorted(os.listdir(tmp_path / "traces")) == [
        "seed0_mining_off.trace", "seed0_mining_on.trace",
        "seed1_mining_off.trace", "seed1_mining_on.trace"]


def edited(*lines: str) -> str:
    """CONFIG with each ``key = value`` line in place of CONFIG's own line
    for that key, if it has one: a key may be set only once."""
    keys = {line.partition("=")[0].strip() for line in lines}
    kept = [old for old in CONFIG.splitlines() if old.partition("=")[0].strip() not in keys]
    return "\n".join(kept + list(lines)) + "\n"


# name: (config text, extra arguments, the reason given on stderr)
RUN_REFUSALS = {
    "missing_key": ("node_count = 8\n", [], "missing required key 'service_count'"),
    **{f"non_finite_{key}": (edited(f"{key} = {value}"), [], f"{key} must be finite")
       for key, value in [("sim_duration", "inf"), ("mining_interval", "nan"),
                          ("field_size", "infx500")]},
    "duplicate_node_count": (CONFIG + "node_count = 9\n", [],
                             "line 7: duplicate key 'node_count' (first on line 2)"),
    "duplicate_seeds": (CONFIG + "seeds = 2,3\n", [],
                        "line 7: duplicate key 'seeds' (first on line 6)"),
    "ignored_mining_enabled": (edited("mining_enabled = off"), [],
                               "key 'mining_enabled' is set by each run's variant"),
    "ignored_seed": (edited("seed = 5"), [], "line 7: key 'seed' is set by each run from 'seeds'"),
    "ignored_out": (edited("out = a.csv"), [],
                    "line 7: key 'out' is not a config key; give the CSV path with --out"),
    "negative_seed": (edited("seeds = 0,-1"), [], "must be >= 0"),
    # Packets carry two-byte node and service ids and at most 32 related
    # records, so such a config is refused before anything runs.
    "unencodable_max_related": (edited("max_related = 40"), [], "max_related must be at most 32"),
    "unencodable_node_count": (edited("node_count = 70000"), [],
                               "node_count must be at most 65536"),
    "unencodable_service_count": (edited("service_count = 65537"), [],
                                  "service_count must be at most 65536"),
    # 4 services 30 s apart: a session's last request (90 s) comes after the
    # consumer's next session opens (60 s).
    "overlapping_sessions": (edited("service_count = 4", "inter_request_gap = 30"), [],
                             "sessions overlap"),
    # 5 services 10 s apart: a session's last request (40 s) comes after its
    # 30 s window has closed it.
    "sessions_outlast_the_window": (edited("inter_request_gap = 10"), [],
                                    "sessions outlast the window"),
    **{f"jobs_{jobs}": (CONFIG, ["--jobs", jobs], f"--jobs must be at least 1, got {jobs}")
       for jobs in ["0", "-3"]},
}


@pytest.mark.parametrize("text, args, message", RUN_REFUSALS.values(), ids=RUN_REFUSALS.keys())
def test_run_refusal_exit_2(tmp_path, capsys, text, args, message):
    config = tmp_path / "exp.txt"
    config.write_text(text)
    out = tmp_path / "r.csv"
    assert main(["run", str(config), "--out", str(out), *args]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_run_subcommand_missing_file_exit_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.txt")]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("run", "node_count = 5\nservice_count = 4\n# caf\xe9\n"),
    ("mine", "1 2\n# caf\xe9\n"),
])
def test_input_that_is_not_utf8_exit_2(tmp_path, capsys, command, text):
    path = tmp_path / "latin1.txt"
    path.write_bytes(text.encode("latin-1"))
    args = [command, str(path)] + (["0.5"] if command == "mine" else
                                   ["--out", str(tmp_path / "r.csv")])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "utf-8" in err
    assert not (tmp_path / "r.csv").exists()
    # The same text in UTF-8 is read whatever the locale.
    path.write_bytes(text.encode("utf-8"))
    assert main(args) == 0


def test_run_subcommand_unwritable_out_exit_1(tmp_path, capsys):
    config = tmp_path / "exp.txt"
    config.write_text(CONFIG)
    # Parent directory does not exist; the write must fail loudly.
    code = main(["run", str(config), "--out", str(tmp_path / "no" / "rows.csv")])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def test_mine_subcommand(tmp_path, capsys):
    txns = tmp_path / "txns.txt"
    txns.write_text("# sessions\n1 2\n1 2\n1 3\n")
    assert main(["mine", str(txns), "0.8"]) == 0
    assert capsys.readouterr().out == "1\t3\n"


def test_mine_subcommand_oracle_agrees(tmp_path, capsys):
    txns = tmp_path / "txns.txt"
    txns.write_text("1 2 3\n1 2\n1 2\n")
    assert main(["mine", str(txns), "0.6"]) == 0
    fp = capsys.readouterr().out
    assert main(["mine", str(txns), "0.6", "--oracle"]) == 0
    assert capsys.readouterr().out == fp
    assert fp == "1\t3\n2\t3\n1 2\t3\n"


@pytest.mark.parametrize("text, args, code, message", [
    ("1 2\n", ["1.5"], 2, "support must be in (0, 1], got 1.5"),
    ("1 2\n", ["nan"], 2, "support must be in (0, 1], got nan"),
    (" ".join(map(str, range(21))) + "\n", ["0.5", "--oracle"], 1,
     f"oracle universe limited to {MAX_ORACLE_UNIVERSE} items, got 21"),
], ids=["support_above_one", "support_nan", "oracle_over_its_limit"])
def test_mine_refusal(tmp_path, capsys, text, args, code, message):
    txns = tmp_path / "txns.txt"
    txns.write_text(text)
    assert main(["mine", str(txns), *args]) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_gen_cm_matches_experiment_substream(capsys):
    # The printed matrix is the one a run at that seed uses.
    for seed in (0, 1, 2, 42):
        assert main(["gen-cm", "6", str(seed)]) == 0
        printed = capsys.readouterr().out
        _, _, workload_seq = SeedSequence(seed).spawn(3)
        expected = cm_to_text(build_correlation_matrix(6, default_rng(workload_seq)))
        assert printed == expected + "\n"
        sim = Simulation(SimConfig(node_count=3, service_count=6, seed=seed))
        assert printed == cm_to_text(sim.cm) + "\n"


@pytest.mark.parametrize("args, message", [
    (["0", "42"], "need at least one service"),
    # Checked before any draw: the matrix would be (ID_LIMIT + 1) ** 2 cells.
    ([str(ID_LIMIT + 1), "0"], f"service_count must be at most {ID_LIMIT}, got {ID_LIMIT + 1}"),
    (["3", "-1"], "seed must be >= 0"),
], ids=["zero_services", "more_services_than_a_run_accepts", "negative_seed"])
def test_gen_cm_refusal_exit_2(capsys, args, message):
    assert main(["gen-cm", *args]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
