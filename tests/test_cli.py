import os

import pytest
from numpy.random import SeedSequence, default_rng

from corrdisc.cli import main
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


def test_run_subcommand_config_error_exit_2(tmp_path, capsys):
    config = tmp_path / "bad.txt"
    config.write_text("node_count = 8\n")
    assert main(["run", str(config)]) == 2
    assert "service_count" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["sim_duration = inf", "mining_interval = nan",
                                  "field_size = infx500"])
def test_run_subcommand_non_finite_config_exit_2(tmp_path, capsys, line):
    # The bad line replaces CONFIG's own line for that key, if it has one:
    # a key may be set only once.
    key = line.partition("=")[0].strip()
    kept = [old for old in CONFIG.splitlines() if old.partition("=")[0].strip() != key]
    config = tmp_path / "bad.txt"
    config.write_text("\n".join(kept + [line]) + "\n")
    assert main(["run", str(config), "--out", str(tmp_path / "r.csv")]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    ("node_count = 9", "line 7: duplicate key 'node_count' (first on line 2)"),
    ("seeds = 2,3", "line 7: duplicate key 'seeds' (first on line 6)"),
])
def test_run_subcommand_duplicate_key_exit_2(tmp_path, capsys, line, message):
    config = tmp_path / "dup.txt"
    config.write_text(CONFIG + line + "\n")
    out = tmp_path / "r.csv"
    assert main(["run", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line,message", [
    ("mining_enabled = off", "key 'mining_enabled' is set by each run's variant"),
    ("seed = 5", "line 7: key 'seed' is set by each run from 'seeds'"),
    ("out = a.csv", "line 7: key 'out' is not a config key; give the CSV path with --out"),
])
def test_run_subcommand_ignored_key_exit_2(tmp_path, capsys, line, message):
    config = tmp_path / "ignored.txt"
    config.write_text(CONFIG + line + "\n")
    out = tmp_path / "r.csv"
    assert main(["run", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_subcommand_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    config = tmp_path / "exp.txt"
    config.write_text(CONFIG)
    out = tmp_path / "r.csv"
    assert main(["run", str(config), "--out", str(out), "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert f"--jobs must be at least 1, got {jobs}" in captured.err
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


def test_mine_subcommand_bad_support(tmp_path, capsys):
    txns = tmp_path / "txns.txt"
    txns.write_text("1 2\n")
    assert main(["mine", str(txns), "1.5"]) == 2


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


def test_gen_cm_rejects_zero_services(capsys):
    assert main(["gen-cm", "0", "42"]) == 2


def test_gen_cm_rejects_more_services_than_a_run_accepts(capsys):
    # Checked before any draw: the matrix would be (ID_LIMIT + 1) ** 2 cells.
    assert main(["gen-cm", str(ID_LIMIT + 1), "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"service_count must be at most {ID_LIMIT}, got {ID_LIMIT + 1}" in err


@pytest.mark.parametrize("line", ["seeds = 0,-1"])
def test_run_subcommand_negative_seed_exit_2(tmp_path, capsys, line):
    config = tmp_path / "bad.txt"
    config.write_text(CONFIG.replace("seeds = 0,1", line))
    assert main(["run", str(config), "--out", str(tmp_path / "r.csv")]) == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("line, message", [
    ("max_related = 40", "max_related must be at most 32"),
    ("node_count = 70000", "node_count must be at most 65536"),
    ("service_count = 65537", "service_count must be at most 65536"),
])
def test_run_subcommand_unencodable_config_exit_2(tmp_path, capsys, line, message):
    # Packets carry two-byte node and service ids and at most 32 related
    # records, so such a config is refused before anything runs.
    key = line.partition("=")[0].strip()
    kept = [old for old in CONFIG.splitlines() if old.partition("=")[0].strip() != key]
    config = tmp_path / "bad.txt"
    config.write_text("\n".join(kept + [line]) + "\n")
    assert main(["run", str(config), "--out", str(tmp_path / "r.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_run_subcommand_overlapping_sessions_exit_2(tmp_path, capsys):
    # 4 services 30 s apart: a session's last request (90 s) comes after the
    # consumer's next session opens (60 s).
    config = tmp_path / "overlap.txt"
    config.write_text(CONFIG.replace("service_count = 5", "service_count = 4")
                      + "inter_request_gap = 30\n")
    assert main(["run", str(config), "--out", str(tmp_path / "r.csv")]) == 2
    assert "sessions overlap" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_run_subcommand_sessions_outlasting_the_window_exit_2(tmp_path, capsys):
    # 5 services 10 s apart: a session's last request (40 s) comes after its
    # 30 s window has closed it.
    config = tmp_path / "outlast.txt"
    config.write_text(CONFIG + "inter_request_gap = 10\n")
    assert main(["run", str(config), "--out", str(tmp_path / "r.csv")]) == 2
    assert "sessions outlast the window" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_gen_cm_rejects_negative_seed(capsys):
    assert main(["gen-cm", "3", "-1"]) == 2
    captured = capsys.readouterr()
    assert "seed must be >= 0" in captured.err
    assert not captured.out
