"""Experiment configuration: a flat key = value text format.

Lines are ``key = value``; blank lines and '#' comments are ignored. Unknown
keys are rejected so typos fail loudly. Lists are comma-separated; the cl
grid may also be written as ``start:stop:step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .data import DataError, check_folds, check_fractions, check_split, check_synthetic
from .net import NetConfig
from .forest import ForestConfig


class ConfigError(ValueError):
    """Raised for unknown keys or invalid values; message names the key."""


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str | None = None
    synthetic_n: int | None = None
    synthetic_d: int = 8
    synthetic_noise: str = "heteroscedastic"
    synthetic_scale: float = 0.3
    seed: int = 0
    n_runs: int = 20
    train_fraction: float = 0.70
    val_fraction: float = 0.15
    test_fraction: float = 0.15
    models: tuple = ("dnn", "rf")
    dropout_p: tuple = (0.1, 0.25, 0.5)
    n_passes: int = 100
    cv_folds: int = 10
    cl_grid: tuple = tuple(round(0.05 * i, 2) for i in range(1, 20))
    default_cl: float = 0.80
    cutoffs: tuple = (5.0, 6.0, 7.0, 8.0, 9.0)
    retry_limit: int = 3
    out_dir: str = "results"
    workers: int = 1
    net: NetConfig = field(default_factory=NetConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)

    def __post_init__(self):
        if self.dataset is None and self.synthetic_n is None:
            raise ConfigError("dataset: either a dataset path or synthetic.n is required")
        if self.dataset is None:
            try:
                check_synthetic(self.synthetic_n, self.synthetic_d, self.synthetic_noise,
                                self.synthetic_scale)
            except DataError as exc:
                raise ConfigError(f"synthetic.*: {exc}") from None
        try:
            check_fractions(self.fractions)
        except DataError as exc:
            raise ConfigError(f"train_fraction, val_fraction, test_fraction: {exc}") from None
        if self.n_runs < 1:
            raise ConfigError("n_runs: must be >= 1")
        if self.retry_limit < 0:
            raise ConfigError("retry_limit: must be >= 0")
        if self.n_passes < 1:
            raise ConfigError("n_passes: must be >= 1")
        if self.cv_folds < 2:
            raise ConfigError("cv_folds: must be >= 2")
        if self.workers < 1:
            raise ConfigError("workers: must be >= 1")
        for m in self.models:
            if m not in ("dnn", "rf"):
                raise ConfigError(f"models: unknown model '{m}'")
        if not self.models:
            raise ConfigError("models: at least one of dnn, rf required")
        for p in self.dropout_p:
            if not 0.0 <= p < 1.0:
                raise ConfigError(f"dropout_p: {p} not in [0, 1)")
        for cl in self.cl_grid:
            if not 0.0 < cl < 1.0:
                raise ConfigError(f"cl_grid: {cl} not in (0, 1)")
        if not 0.0 < self.default_cl < 1.0:
            raise ConfigError(f"default_cl: {self.default_cl} not in (0, 1)")
        for c in self.cutoffs:
            if not math.isfinite(c):
                raise ConfigError(f"cutoffs: {c} is not finite")
        object.__setattr__(self, "cl_grid", tuple(sorted(set(self.cl_grid) | {self.default_cl})))
        object.__setattr__(self, "cutoffs", tuple(sorted(set(self.cutoffs))))
        # a repeated rate would train twice into the same files
        object.__setattr__(self, "dropout_p", tuple(sorted(set(self.dropout_p))))
        if self.dataset is None:
            # the row count is known up front
            self.check_rows(self.synthetic_n, "synthetic.n")

    def check_rows(self, n_rows: int, key: str = "train_fraction, val_fraction, test_fraction"):
        """Raise ConfigError, naming ``key`` or ``cv_folds``, unless run can
        split ``n_rows`` rows and cut the forest's rows into cv_folds folds."""
        try:
            _c1, c2 = check_split(n_rows, self.fractions)
        except DataError as exc:
            raise ConfigError(f"{key}: {exc}") from None
        if "rf" in self.models:
            try:
                check_folds(c2, self.cv_folds)  # rf fits on train + validation
            except DataError as exc:
                raise ConfigError(f"cv_folds: {exc}") from None

    @property
    def fractions(self):
        return (self.train_fraction, self.val_fraction, self.test_fraction)


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low not in ("true", "yes", "1", "false", "no", "0"):
        raise ConfigError(f"{key}: expected a boolean, got '{raw}'")
    return low in ("true", "yes", "1")


def _list_of(conv):
    """A parser of comma-separated values, each converted by ``conv``."""
    return lambda raw: tuple(conv(v) for v in raw.split(",") if v.strip())


# A start:stop:step range may expand to at most this many confidence levels
# (100x the 99 of a 0.01:0.99:0.01 grid); finer ranges are rejected before any
# level is built.
MAX_GRID_LEVELS = 10_000


def _parse_grid(raw: str):
    if ":" in raw:
        start, stop, step = (float(v) for v in raw.split(":"))
        if not step > 0:
            raise ConfigError(f"cl_grid: step must be > 0, got '{raw}'")
        if not start <= stop:
            raise ConfigError(f"cl_grid: start must be <= stop, got '{raw}'")
        too_many = ConfigError(f"cl_grid: range '{raw}' has more than {MAX_GRID_LEVELS} levels")
        if (stop - start) / step >= MAX_GRID_LEVELS:
            raise too_many
        out = []
        v = start
        while v <= stop + 1e-9:
            # the check above misses a step too small to advance v (below half
            # the float spacing near v) and the levels in the 1e-9 slack
            if len(out) == MAX_GRID_LEVELS:
                raise too_many
            out.append(round(v, 10))
            v += step
        return tuple(out)
    return _list_of(float)(raw)


# key -> (target field path, converter)
_KEYS = {
    "dataset": ("dataset", str),
    "synthetic.n": ("synthetic_n", int),
    "synthetic.d": ("synthetic_d", int),
    "synthetic.noise": ("synthetic_noise", str),
    "synthetic.scale": ("synthetic_scale", float),
    "seed": ("seed", int),
    "n_runs": ("n_runs", int),
    "train_fraction": ("train_fraction", float),
    "val_fraction": ("val_fraction", float),
    "test_fraction": ("test_fraction", float),
    "models": ("models", _list_of(str.strip)),
    "dropout_p": ("dropout_p", _list_of(float)),
    "n_passes": ("n_passes", int),
    "cv_folds": ("cv_folds", int),
    "cl_grid": ("cl_grid", _parse_grid),
    "default_cl": ("default_cl", float),
    "cutoffs": ("cutoffs", _list_of(float)),
    "retry_limit": ("retry_limit", int),
    "out_dir": ("out_dir", str),
    "workers": ("workers", int),
    "net.hidden_sizes": ("net.hidden_sizes", _list_of(int)),
    "net.dropout_p": ("net.dropout_p", float),
    "net.lr0": ("net.lr0", float),
    "net.decay_factor": ("net.decay_factor", float),
    "net.decay_every": ("net.decay_every", int),
    "net.cycle_length": ("net.cycle_length", int),
    "net.max_epochs": ("net.max_epochs", int),
    "net.patience": ("net.patience", int),
    "net.momentum": ("net.momentum", float),
    "net.batch_fraction": ("net.batch_fraction", float),
    "net.rmse_gate": ("net.rmse_gate", float),
    "forest.n_trees": ("forest.n_trees", int),
    "forest.max_features": ("forest.max_features", lambda raw: raw if raw == "all" else int(raw)),
    "forest.min_samples_split": ("forest.min_samples_split", int),
    "forest.min_samples_leaf": ("forest.min_samples_leaf", int),
    "forest.bootstrap": ("forest.bootstrap", lambda raw: _parse_bool(raw, "forest.bootstrap")),
}


def parse_config_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    over: dict = {"": {}, "net": {}, "forest": {}}  # top-level keys, net.*, forest.*
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key '{key}'")
        target, conv = _KEYS[key]
        try:
            value = conv(raw)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"{key}: cannot parse value '{raw}'") from None
        section, _, name = target.rpartition(".")
        over[section][name] = value
    try:
        net_cfg = NetConfig(**over["net"])
    except ValueError as exc:
        raise ConfigError(f"net.*: {exc}") from None
    try:
        forest_cfg = ForestConfig(**over["forest"])
    except ValueError as exc:
        raise ConfigError(f"forest.*: {exc}") from None
    return ExperimentConfig(net=net_cfg, forest=forest_cfg, **over[""])


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"no such config file: {path}") from None
    return parse_config_text(text, origin=str(path))
