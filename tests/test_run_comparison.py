import importlib.util
from pathlib import Path

import pytest

from corrdisc.experiment import CSV_COLUMNS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_comparison.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_comparison", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flag", ["--seeds", "--jobs"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_counts_below_one_exit_2(flag, value, tmp_path, capsys):
    out_dir = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        load_script().main([flag, value, "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err
    assert not out_dir.exists()   # rejected before any run or output


def test_one_seed_writes_both_tables_and_prints_the_summary(tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert load_script().main(["--seeds", "1", "--jobs", "1", "--out-dir", str(out_dir)]) == 0
    for nodes in (20, 50):
        lines = (out_dir / f"satisfaction_{nodes}nodes.csv").read_text().splitlines()
        assert lines[0].split(",") == list(CSV_COLUMNS)
        assert [line.split(",")[:2] for line in lines[1:]] == [["0", "mining_off"],
                                                                 ["0", "mining_on"]]
    out = capsys.readouterr().out
    for nodes in (20, 50):
        assert f"== {nodes} nodes, 1 paired seeds -> " in out
    assert out.count("mining_on wins ") == 2
