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
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import NOISE_MODELS

ENV_PREFIX = "STEERDIST"

MODES = ("analytic", "monte_carlo", "both")
CUTOFF_SOURCES = ("table", "config", "search")

MIN_MC_SAMPLES = 10_000
FULL_SAMPLES = 100_000_000


class ConfigError(ValueError):
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

    def validate(self) -> "ExperimentConfig":
        if self.mode not in MODES:
            raise ConfigError(f"run.mode must be one of {MODES}, got {self.mode!r}")
        if self.cutoff_source not in CUTOFF_SOURCES:
            raise ConfigError(
                f"filter.cutoff_source must be one of {CUTOFF_SOURCES}, "
                f"got {self.cutoff_source!r}"
            )
        if self.noise_model not in NOISE_MODELS:
            raise ConfigError(f"channel.noise_model must be one of {NOISE_MODELS}, "
                              f"got {self.noise_model!r}")
        if self.mode != "analytic" and self.samples < MIN_MC_SAMPLES:
            raise ConfigError(
                f"run.samples must be >= {MIN_MC_SAMPLES} in Monte Carlo modes, "
                f"got {self.samples}"
            )
        # every comparison is false for NaN, so each check is written to fail on it
        if not -np.inf < self.squeeze_db <= 0:
            raise ConfigError(f"state.squeeze_db must be finite and <= 0, got {self.squeeze_db}")
        if not 0 <= self.antisqueeze_db < np.inf:
            raise ConfigError(
                f"state.antisqueeze_db must be finite and >= 0, got {self.antisqueeze_db}")
        if not 1.0 <= self.gain < np.inf:
            raise ConfigError(f"filter.gain must be finite and >= 1, got {self.gain}")
        if not 0 < self.cutoff < np.inf:
            raise ConfigError(f"filter.cutoff must be finite and > 0, got {self.cutoff}")
        if not 0 <= self.excess_noise < np.inf:
            raise ConfigError(
                f"channel.excess_noise must be finite and >= 0, got {self.excess_noise}")
        if self.seed < 0:
            raise ConfigError(f"run.seed must be >= 0, got {self.seed}")
        if self.threads < 1:
            raise ConfigError(f"run.threads must be >= 1, got {self.threads}")
        for name in ("loss_grid", "g_grid", "fig4_g_grid"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ConfigError(f"grids.{name} is empty")
            if not np.isfinite(grid).all():
                raise ConfigError(f"grids.{name} must be finite")
        return self


_SCHEMA = {
    ("state", "squeeze_db"): ("squeeze_db", float),
    ("state", "antisqueeze_db"): ("antisqueeze_db", float),
    ("channel", "excess_noise"): ("excess_noise", float),
    ("channel", "noise_model"): ("noise_model", str),
    ("filter", "gain"): ("gain", float),
    ("filter", "cutoff"): ("cutoff", float),
    ("filter", "cutoff_source"): ("cutoff_source", str),
    ("run", "mode"): ("mode", str),
    ("run", "samples"): ("samples", int),
    ("run", "seed"): ("seed", int),
    ("run", "threads"): ("threads", int),
    ("run", "out"): ("out_dir", str),
    ("run", "svg"): ("svg", "bool"),
    ("grids", "loss_grid"): ("loss_grid", parse_grid),
    ("grids", "g_grid"): ("g_grid", parse_grid),
    ("grids", "fig4_g_grid"): ("fig4_g_grid", parse_grid),
}

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _convert(raw: str, conv, where: str):
    raw = raw.strip()
    try:
        if conv == "bool":
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        return conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: str | None = None, env: dict | None = None,
                overrides: dict | None = None) -> ExperimentConfig:
    """Defaults <- config file <- environment <- explicit overrides."""
    values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            for key in parser[section]:
                schema = _SCHEMA.get((section, key))
                if schema is None:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                name, conv = schema
                values[name] = _convert(parser[section][key], conv,
                                        f"config [{section}] {key}")
    env = os.environ if env is None else env
    for (section, key), (name, conv) in _SCHEMA.items():
        var = f"{ENV_PREFIX}_{section.upper()}_{key.upper()}"
        if var in env:
            values[name] = _convert(env[var], conv, f"environment {var}")
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return replace(ExperimentConfig(), **values).validate()
