import os

import pytest
from numpy.random import SeedSequence, default_rng

from corrdisc.cli import main
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
    config = tmp_path / "bad.txt"
    config.write_text(CONFIG + line + "\n")
    assert main(["run", str(config), "--out", str(tmp_path / "r.csv")]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_run_subcommand_missing_file_exit_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.txt")]) == 1
    assert "cannot read" in capsys.readouterr().err


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
    assert main(["gen-cm", "6", "42"]) == 0
    printed = capsys.readouterr().out.strip()
    _, _, workload_seq = SeedSequence(42).spawn(3)
    expected = cm_to_text(build_correlation_matrix(6, default_rng(workload_seq)))
    assert printed == expected


def test_gen_cm_rejects_zero_services(capsys):
    assert main(["gen-cm", "0", "42"]) == 2


def test_log_level_any_case_accepted(monkeypatch, capsys):
    monkeypatch.setenv("CORRDISC_LOG", "DeBuG")
    assert main(["gen-cm", "3", "1"]) == 0


@pytest.mark.parametrize("word", ["basic_format", "verbose", ""])
def test_log_level_unknown_exit_2(monkeypatch, capsys, word):
    monkeypatch.setenv("CORRDISC_LOG", word)
    assert main(["gen-cm", "3", "1"]) == 2
    captured = capsys.readouterr()
    assert "CORRDISC_LOG" in captured.err
    assert captured.out == ""
