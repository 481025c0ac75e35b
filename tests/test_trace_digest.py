import hashlib
import importlib.util
import json
from pathlib import Path

from corrdisc.netsim import SimConfig, run

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "trace_digest.py"
SMALL = SimConfig(node_count=6, service_count=6, sessions_per_consumer=2,
                  sim_duration=210.0)


def load_script():
    spec = importlib.util.spec_from_file_location("trace_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_hashes_the_trace_and_prints_one_line_per_run(monkeypatch, capsys):
    trace_digest = load_script()
    trace: list[str] = []
    metrics = run(SMALL, trace=trace)
    digest = trace_digest.digest(SMALL)
    assert digest["sha256"] == hashlib.sha256("\n".join(trace).encode()).hexdigest()
    assert digest["lines"] == len(trace) > 0
    assert digest["metrics"]["requests_issued"] == metrics.requests_issued > 0

    monkeypatch.setattr(trace_digest, "configs", lambda: {"small": SMALL})
    monkeypatch.setattr(trace_digest, "SEEDS", (0,))
    assert trace_digest.main([]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(d["config"], d["seed"], d["variant"]) for d in lines] == \
        [("small", 0, "mining_off"), ("small", 0, "mining_on")]
    assert lines[1] == {"config": "small", "seed": 0, "variant": "mining_on", **digest}


def test_check_names_each_run_that_differs(monkeypatch, capsys, tmp_path):
    trace_digest = load_script()
    monkeypatch.setattr(trace_digest, "configs", lambda: {"small": SMALL})
    monkeypatch.setattr(trace_digest, "SEEDS", (0, 1))
    assert trace_digest.main([]) == 0
    saved = capsys.readouterr().out.splitlines()
    assert len(saved) == 4
    good = tmp_path / "digest.jsonl"
    good.write_text("\n".join(saved) + "\n")
    assert trace_digest.main(["--check", str(good)]) == 0
    assert capsys.readouterr().out == f"all 4 runs match {good}\n"

    # One changed hash, one changed counter, and one saved run that no
    # longer runs: each is named, and nothing else is.
    entries = [json.loads(line) for line in saved]
    entries[0]["sha256"] = "0" * 64
    entries[3]["metrics"]["requests_issued"] += 1
    entries.append({**entries[1], "config": "gone"})
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(e) + "\n" for e in entries))
    assert trace_digest.main(["--check", str(bad)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: small seed=0 mining_off",
        "differs: small seed=1 mining_on",
        "differs: gone seed=0 mining_on (saved, not run)",
        f"3 runs differ from {bad}"]


def test_check_rejects_an_unreadable_file(monkeypatch, capsys, tmp_path):
    trace_digest = load_script()
    monkeypatch.setattr(trace_digest, "configs", lambda: {"small": SMALL})
    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text('{"config": "small"}\n')
    assert trace_digest.main(["--check", str(garbled)]) == 2
    assert trace_digest.main(["--check", str(tmp_path / "missing.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "line 1: not a digest line" in err and "missing.jsonl" in err


def test_engine_reproduces_the_saved_trace_digests(capsys):
    # Every trace and every Metrics of the 30 digest runs must match the
    # saved file.  A change that alters them on purpose regenerates it
    # with `python3 scripts/trace_digest.py > tests/data/trace_digest.jsonl`.
    saved = Path(__file__).resolve().parent / "data" / "trace_digest.jsonl"
    assert load_script().main(["--check", str(saved)]) == 0, capsys.readouterr().out
