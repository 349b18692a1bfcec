"""Experiment configuration: INI file, environment overrides, CLI overrides.

Files are flat ``key = value`` sections::

    [state]
    squeeze_db = -4.2
    antisqueeze_db = 7.3

    [channel]
    excess_noise = 0.12
    noise_model = loss_scaled

    [filter]
    gain = 1.2
    cutoff = 4.5
    cutoff_source = table

    [run]
    mode = analytic
    samples = 1000000
    seed = 20230817
    threads = 1
    out = out
    svg = false

    [grids]
    loss_grid = 0:0.98:0.002
    g_grid = 1.0:1.25:0.0125
    fig4_g_grid = 1.0:1.56:0.02

Any key can be overridden by the environment as
``STEERDIST_<SECTION>_<KEY>`` (e.g. ``STEERDIST_RUN_SEED=7``); command-line
flags override both.  Physical defaults mirror the experiment: -4.2/7.3 dB
state, excess noise 0.12 (loss-scaled), gain 1.2, per-loss cutoffs from the
published table, cutoff 4.5 for the key-rate sweep.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

import numpy as np

from .channels import NOISE_MODELS
from .gaussian import InputError

ENV_PREFIX = "STEERDIST"

MODES = ("analytic", "monte_carlo", "both")
CUTOFF_SOURCES = ("table", "config", "search")

MIN_MC_SAMPLES = 10_000
FULL_SAMPLES = 100_000_000


class ConfigError(InputError):
    pass


def parse_grid(text: str) -> np.ndarray:
    """``start:stop:step`` (every start + k*step up to stop + 1e-9*step, so
    ``0:0.95:0.5`` is [0, 0.5]) or a comma list."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [float(p) for p in text.split(":")]
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = parts
            if not np.isfinite(parts).all():
                raise ValueError("start, stop and step must be finite")
            if step <= 0 or stop < start:
                raise ValueError("need step > 0 and stop >= start")
            n = int(round((stop - start) / step))
            grid = start + step * np.arange(n + 1)
            return grid[grid <= stop + step * 1e-9]
        grid = np.array([float(p) for p in text.split(",") if p.strip()])
        if not np.isfinite(grid).all():
            raise ValueError("values must be finite")
        return grid
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    squeeze_db: float = -4.2
    antisqueeze_db: float = 7.3
    excess_noise: float = 0.12
    noise_model: str = "loss_scaled"
    gain: float = 1.2
    cutoff: float = 4.5
    cutoff_source: str = "table"
    mode: str = "analytic"
    samples: int = 1_000_000
    seed: int = 20230817
    threads: int = 1
    out_dir: str = "out"
    svg: bool = False
    loss_grid: np.ndarray = field(default_factory=lambda: parse_grid("0:0.98:0.002"))
    g_grid: np.ndarray = field(default_factory=lambda: parse_grid("1.0:1.25:0.0125"))
    fig4_g_grid: np.ndarray = field(default_factory=lambda: parse_grid("1.0:1.56:0.02"))

    def validate(self) -> None:
        """Check every key against its :data:`_SCHEMA` rule, in table order,
        then the sample floor of the Monte Carlo modes and the grids."""
        for where, (name, _, requirement, ok) in _SCHEMA.items():
            value = getattr(self, name)
            if ok is not None and not ok(value):
                shown = repr(value) if isinstance(value, str) else value
                raise ConfigError(f"{where} must be {requirement}, got {shown}")
        if self.mode != "analytic" and self.samples < MIN_MC_SAMPLES:
            raise ConfigError(f"run.samples must be >= {MIN_MC_SAMPLES} in Monte Carlo modes, "
                              f"got {self.samples}")
        for name in ("loss_grid", "g_grid", "fig4_g_grid"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ConfigError(f"grids.{name} is empty")
            if not np.isfinite(grid).all():
                raise ConfigError(f"grids.{name} must be finite")

    __post_init__ = validate  # no config exists unchecked


_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _boolean(text: str) -> bool:
    if text.lower() not in _TRUE + _FALSE:
        raise ValueError(f"expected a boolean, got {text!r}")
    return text.lower() in _TRUE


# "<section>.<key>": (field, converter, requirement, rule).  A value the rule
# refuses gives "<section>.<key> must be <requirement>, got <value>"; every
# comparison is false for NaN, so each numeric rule is written to fail on it.
_SCHEMA = {
    "state.squeeze_db": ("squeeze_db", float, "finite and <= 0", lambda v: -np.inf < v <= 0),
    "state.antisqueeze_db": ("antisqueeze_db", float, "finite and >= 0", lambda v: 0 <= v < np.inf),
    "channel.excess_noise": ("excess_noise", float, "finite and >= 0", lambda v: 0 <= v < np.inf),
    "channel.noise_model": ("noise_model", str, f"one of {NOISE_MODELS}",
                            lambda v: v in NOISE_MODELS),
    "filter.gain": ("gain", float, "finite and >= 1", lambda v: 1 <= v < np.inf),
    "filter.cutoff": ("cutoff", float, "finite and > 0", lambda v: 0 < v < np.inf),
    "filter.cutoff_source": ("cutoff_source", str, f"one of {CUTOFF_SOURCES}",
                             lambda v: v in CUTOFF_SOURCES),
    "run.mode": ("mode", str, f"one of {MODES}", lambda v: v in MODES),
    "run.samples": ("samples", int, None, None),
    "run.seed": ("seed", int, ">= 0", lambda v: v >= 0),
    "run.threads": ("threads", int, ">= 1", lambda v: v >= 1),
    "run.out": ("out_dir", str, None, None),
    "run.svg": ("svg", _boolean, None, None),
    "grids.loss_grid": ("loss_grid", parse_grid, None, None),
    "grids.g_grid": ("g_grid", parse_grid, None, None),
    "grids.fig4_g_grid": ("fig4_g_grid", parse_grid, None, None),
}


def _convert(raw: str, conv, where: str):
    try:
        return conv(raw.strip())
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: str | None = None, env: dict | None = None,
                overrides: dict | None = None) -> ExperimentConfig:
    """Defaults <- config file <- environment <- explicit overrides."""
    values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            for key in parser[section]:
                schema = _SCHEMA.get(f"{section}.{key}")
                if schema is None:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                name, conv = schema[:2]
                values[name] = _convert(parser[section][key], conv, f"config [{section}] {key}")
    env = os.environ if env is None else env
    for where, (name, conv, *_) in _SCHEMA.items():
        var = f"{ENV_PREFIX}_{where.replace('.', '_').upper()}"
        if var in env:
            values[name] = _convert(env[var], conv, f"environment {var}")
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**values)
