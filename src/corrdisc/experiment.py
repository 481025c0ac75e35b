"""Experiment driver: paired mining-on/mining-off seed sweeps.

Every seed runs once per variant; because the workload is derived from a
dedicated substream, the two variants of a seed see the same requests and
their satisfaction ratios compare like-for-like.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

from .netsim import Metrics, SimConfig, run

log = logging.getLogger("corrdisc")

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
    output: str | None = None

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigError("at least one seed is required")
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
        if key == "field_size":
            parts = raw.replace("x", " ").split()
            if len(parts) != 2:
                raise ValueError(f"expected WIDTHxHEIGHT, got {raw!r}")
            return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    raise ConfigError(f"line {lineno}: key {key!r} is not settable")


def parse_config(text: str) -> ExperimentSpec:
    """Parse ``key = value`` experiment configuration.

    Keys are SimConfig field names plus ``seeds`` (comma list),
    ``variants`` (comma list) and ``out`` (output path); ``#`` starts a
    comment.  ``node_count`` and ``service_count`` are required, all other
    keys default.
    """
    overrides: dict = {}
    seeds: tuple[int, ...] | None = None
    variants: tuple[str, ...] = VARIANTS
    output: str | None = None
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
        if key == "seeds":
            try:
                seeds = tuple(int(tok) for tok in value.split(","))
            except ValueError:
                raise ConfigError(f"line {lineno}: seeds must be a comma list "
                                  f"of integers, got {value!r}") from None
        elif key == "variants":
            variants = tuple(tok.strip() for tok in value.split(","))
        elif key == "out":
            output = value
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
    spec = ExperimentSpec(base=base, seeds=seeds if seeds is not None else (base.seed,),
                          variants=variants, output=output)
    spec.validate()
    return spec


# -- execution ----------------------------------------------------------------

def _run_one(args: tuple[SimConfig, int, str, str | None]) -> RunRow:
    base, seed, variant, trace_dir = args
    config = replace(base, seed=seed, mining_enabled=(variant == "mining_on"))
    trace: list[str] | None = [] if trace_dir else None
    metrics = run(config, trace=trace)
    if trace_dir:
        path = os.path.join(trace_dir, f"seed{seed}_{variant}.trace")
        with open(path, "w") as fh:
            fh.write("\n".join(trace) + "\n")
    log.debug("seed=%d variant=%s issued=%d satisfied=%d", seed, variant,
              metrics.requests_issued, metrics.locally_satisfied)
    return RunRow(seed, variant, metrics)


def run_experiment(spec: ExperimentSpec, jobs: int = 1,
                   trace_dir: str | None = None) -> list[RunRow]:
    """One RunRow per (seed, variant), emitted in sorted (seed, variant)
    order regardless of execution order or parallelism."""
    spec.validate()
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
    combos = [(spec.base, seed, variant, trace_dir)
              for seed in sorted(set(spec.seeds))
              for variant in sorted(spec.variants)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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


def read_csv(path: str) -> list[RunRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for record in reader:
            metrics = Metrics(**{name: int(record[name]) for name in METRIC_FIELDS})
            rows.append(RunRow(int(record["seed"]), record["variant"], metrics))
    return rows


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


def write_summary(rows: list[RunRow], file=None) -> None:
    print(format_summary(rows), file=file)
