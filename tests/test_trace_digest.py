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
    assert trace_digest.main() == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(d["config"], d["seed"], d["variant"]) for d in lines] == \
        [("small", 0, "mining_off"), ("small", 0, "mining_on")]
    assert lines[1] == {"config": "small", "seed": 0, "variant": "mining_on", **digest}
