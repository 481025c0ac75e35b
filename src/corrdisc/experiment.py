"""Experiment driver: paired mining-on/mining-off seed sweeps.

Every seed runs once per variant; because the workload is derived from a
dedicated substream, the two variants of a seed see the same requests and
their satisfaction ratios compare like-for-like.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

from .netsim import Metrics, SimConfig, run

VARIANTS = ("mining_off", "mining_on")

METRIC_FIELDS = tuple(f.name for f in fields(Metrics))
CSV_COLUMNS = ("seed", "variant") + METRIC_FIELDS + ("satisfaction_ratio",)


class ConfigError(ValueError):
    """Raised for unusable experiment configuration text."""


@dataclass(frozen=True)
class ExperimentSpec:
    base: SimConfig
    seeds: tuple[int, ...]
    variants: tuple[str, ...] = VARIANTS

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}")
        if not self.variants:
            raise ConfigError("at least one variant is required")
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ConfigError(f"unknown variants: {sorted(unknown)}")


@dataclass(frozen=True)
class RunRow:
    seed: int
    variant: str
    metrics: Metrics

    @property
    def satisfaction_ratio(self) -> float:
        if self.metrics.requests_issued == 0:
            return 0.0
        return self.metrics.locally_satisfied / self.metrics.requests_issued


# -- config file ------------------------------------------------------------

_CONFIG_FIELDS = {f.name: f.type for f in fields(SimConfig)}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
# Keys a config may not set, each with what sets it instead.
_NOT_KEYS = {
    "mining_enabled": "is set by each run's variant; choose them with 'variants' instead",
    "seed": "is set by each run from 'seeds'; list the seeds there instead",
    "out": "is not a config key; give the CSV path with --out instead",
}


def _parse_value(key: str, raw: str, lineno: int):
    kind = _CONFIG_FIELDS[key]
    try:
        if kind == "bool":
            word = raw.lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"expected a boolean, got {raw!r}")
            return _BOOL_WORDS[word]
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        # field_size, the one field of another type.
        parts = raw.replace("x", " ").split()
        if len(parts) != 2:
            raise ValueError(f"expected WIDTHxHEIGHT, got {raw!r}")
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None


def parse_config(text: str) -> ExperimentSpec:
    """Parse ``key = value`` experiment configuration.

    Keys are SimConfig field names plus ``seeds`` (comma list, default
    ``0``) and ``variants`` (comma list); ``#`` starts a comment.
    ``node_count`` and ``service_count`` are required, all other keys
    default.  Each key may be set once.  ``seed`` and ``mining_enabled``
    are not keys, since each run sets them from its seed and variant, and
    nor is ``out``: the CSV path comes from ``corrdisc run --out``.
    """
    first_line: dict[str, int] = {}
    overrides: dict = {}
    seeds: tuple[int, ...] = (0,)
    variants: tuple[str, ...] = VARIANTS
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first on line {first_line[key]})")
        first_line[key] = lineno
        if key == "seeds":
            try:
                seeds = tuple(int(tok) for tok in value.split(","))
            except ValueError:
                raise ConfigError(f"line {lineno}: seeds must be a comma list "
                                  f"of integers, got {value!r}") from None
        elif key == "variants":
            variants = tuple(tok.strip() for tok in value.split(","))
        elif key in _NOT_KEYS:
            raise ConfigError(f"line {lineno}: key {key!r} {_NOT_KEYS[key]}")
        elif key in _CONFIG_FIELDS:
            overrides[key] = _parse_value(key, value, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    for required in ("node_count", "service_count"):
        if required not in overrides:
            raise ConfigError(f"missing required key {required!r}")
    base = SimConfig(**overrides)
    try:
        base.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    spec = ExperimentSpec(base=base, seeds=seeds, variants=variants)
    spec.validate()
    return spec


# -- execution ----------------------------------------------------------------

def variant_config(base: SimConfig, seed: int, variant: str) -> SimConfig:
    """The config of one run: ``base`` at ``seed``, mining on for ``mining_on``."""
    return replace(base, seed=seed, mining_enabled=(variant == "mining_on"))


class _TraceFile:
    """A trace sink that writes each line to ``fh`` as the run makes it, so
    no run holds its trace in memory."""

    def __init__(self, fh) -> None:
        self._write = fh.write

    def append(self, line: str) -> None:
        self._write(f"{line}\n")


def _run_one(args: tuple[SimConfig, int, str, str | None]) -> RunRow:
    base, seed, variant, trace_dir = args
    config = variant_config(base, seed, variant)
    if not trace_dir:
        return RunRow(seed, variant, run(config))
    # A run that raises leaves the lines written so far.
    with open(os.path.join(trace_dir, f"seed{seed}_{variant}.trace"), "w") as fh:
        return RunRow(seed, variant, run(config, trace=_TraceFile(fh)))


def run_experiment(spec: ExperimentSpec, jobs: int = 1,
                   trace_dir: str | None = None) -> list[RunRow]:
    """One RunRow per (seed, variant), emitted in sorted (seed, variant)
    order regardless of execution order or parallelism."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    spec.validate()
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
    combos = [(spec.base, seed, variant, trace_dir)
              for seed in sorted(set(spec.seeds))
              for variant in sorted(set(spec.variants))]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(combos))) as pool:
            rows = list(pool.map(_run_one, combos))
    else:
        rows = [_run_one(combo) for combo in combos]
    return rows


# -- output --------------------------------------------------------------------

def rows_to_table(rows: list[RunRow]) -> list[list[str]]:
    table = [list(CSV_COLUMNS)]
    for row in rows:
        cells = [str(row.seed), row.variant]
        cells += [str(getattr(row.metrics, name)) for name in METRIC_FIELDS]
        cells.append(f"{row.satisfaction_ratio:.4f}")
        table.append(cells)
    return table


def write_csv(rows: list[RunRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows_to_table(rows))


def summarize(rows: list[RunRow]) -> dict:
    """Per-variant mean and sample stddev of the satisfaction ratio, plus
    the number of seeds where mining_on strictly beats mining_off."""
    by_variant: dict[str, list[float]] = {}
    by_seed: dict[int, dict[str, float]] = {}
    for row in rows:
        by_variant.setdefault(row.variant, []).append(row.satisfaction_ratio)
        by_seed.setdefault(row.seed, {})[row.variant] = row.satisfaction_ratio
    stats = {}
    for variant, ratios in sorted(by_variant.items()):
        n = len(ratios)
        mean = sum(ratios) / n
        var = sum((r - mean) ** 2 for r in ratios) / (n - 1) if n > 1 else 0.0
        stats[variant] = {"runs": n, "mean": mean, "stddev": math.sqrt(var)}
    paired = [seed for seed, res in by_seed.items() if len(res) == 2]
    wins = sum(1 for seed in paired
               if by_seed[seed]["mining_on"] > by_seed[seed]["mining_off"])
    return {"variants": stats, "paired_seeds": len(paired), "mining_on_wins": wins}


def format_summary(rows: list[RunRow]) -> str:
    summary = summarize(rows)
    lines = [f"{'variant':<12} {'runs':>5} {'mean_ratio':>11} {'stddev':>8}"]
    for variant, s in summary["variants"].items():
        lines.append(f"{variant:<12} {s['runs']:>5} {s['mean']:>11.4f} {s['stddev']:>8.4f}")
    if summary["paired_seeds"]:
        lines.append(f"mining_on wins {summary['mining_on_wins']}/"
                     f"{summary['paired_seeds']} paired seeds")
    return "\n".join(lines)
