import importlib.util
from pathlib import Path

import pytest

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
