"""Experiment configuration: a flat key = value text format.

Lines are ``key = value``; blank lines and '#' comments are ignored. Unknown
keys are rejected so typos fail loudly. Lists are comma-separated; the cl
grid may also be written as ``start:stop:step``.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

from .data import DataError, bounded, check_bounds, check_folds, check_fractions, check_split
from .net import NetConfig
from .forest import ForestConfig


class ConfigError(ValueError):
    """Raised for unknown keys or invalid values; message names the key."""


def dnn_key(p: float) -> str:
    """The model name of the network at dropout rate p, its files' prefix."""
    return f"dnn_p{p:g}"


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str | None = None
    synthetic_n: int | None = bounded(None, 10)
    synthetic_d: int = bounded(8, 1)
    synthetic_noise: str = "heteroscedastic"
    synthetic_scale: float = bounded(0.3, 0)
    seed: int = 0
    n_runs: int = bounded(20, 1)
    train_fraction: float = 0.70
    val_fraction: float = 0.15
    test_fraction: float = 0.15
    models: tuple = ("dnn", "rf")
    dropout_p: tuple = bounded((0.1, 0.25, 0.5), 0, 1)
    n_passes: int = bounded(100, 1)
    cv_folds: int = bounded(10, 2)
    cl_grid: tuple = bounded(tuple(round(0.05 * i, 2) for i in range(1, 20)), 0, 1, "()")
    default_cl: float = bounded(0.80, 0, 1, "()")
    cutoffs: tuple = bounded((5.0, 6.0, 7.0, 8.0, 9.0), closed="()")
    retry_limit: int = bounded(3, 0)
    out_dir: str = "results"
    workers: int = bounded(1, 1)
    net: NetConfig = field(default_factory=NetConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)

    def __post_init__(self):
        if self.dataset is None and self.synthetic_n is None:
            raise ConfigError("dataset: either a dataset path or synthetic.n is required")
        try:
            check_fractions(self.fractions)
        except DataError as exc:
            raise ConfigError(f"train_fraction, val_fraction, test_fraction: {exc}") from None
        check_bounds(self, ConfigError)
        if self.synthetic_noise not in ("homoscedastic", "heteroscedastic"):
            raise ConfigError(f"synthetic.noise: unknown noise model '{self.synthetic_noise}'")
        for m in self.models:
            if m not in ("dnn", "rf"):
                raise ConfigError(f"models: unknown model '{m}'")
        if not self.models:
            raise ConfigError("models: at least one of dnn, rf required")
        if "dnn" in self.models and not self.dropout_p:
            raise ConfigError("dropout_p: at least one rate required when models include dnn")
        object.__setattr__(self, "cl_grid", tuple(sorted(set(self.cl_grid) | {self.default_cl})))
        object.__setattr__(self, "cutoffs", tuple(sorted(set(self.cutoffs))))
        # rates repeated or of one name would train into the same files; sorted, they are neighbours
        object.__setattr__(self, "dropout_p", tuple(sorted(set(self.dropout_p))))
        for a, b in zip(self.dropout_p, self.dropout_p[1:]):
            if dnn_key(a) == dnn_key(b):
                raise ConfigError(f"dropout_p: rates {a!r} and {b!r} both name model {dnn_key(a)}")
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


# converters that the type of a field's default does not give
_OVERRIDES = {
    "synthetic.n": int,
    "cl_grid": _parse_grid,
    "forest.max_features": lambda raw: raw if raw == "all" else int(raw),
    "forest.bootstrap": lambda raw: _parse_bool(raw, "forest.bootstrap"),
}


def _converter(default):
    """The type of ``default`` as a parser: a tuple is a comma-separated list
    of its first element's type, and a None default takes the text as is."""
    if isinstance(default, tuple):
        return _list_of(str.strip if isinstance(default[0], str) else type(default[0]))
    return str if default is None else type(default)


def _key_table() -> dict:
    """key -> (target field path, converter) for each config field but
    NetConfig.dropout_p, which each network's model job sets to its rate."""
    table = {}
    for prefix, cls in (("", ExperimentConfig), ("net.", NetConfig), ("forest.", ForestConfig)):
        for f in fields(cls):
            target = prefix + f.name
            key = target.replace("synthetic_", "synthetic.")
            if f.default is not MISSING and key != "net.dropout_p":
                table[key] = (target, _OVERRIDES.get(key) or _converter(f.default))
    return table


_KEYS = _key_table()


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
        section, _, name = target.rpartition(".")
        try:
            over[section][name] = conv(raw)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"{key}: cannot parse value '{raw}'") from None
    nested = {}
    for section, cls in (("net", NetConfig), ("forest", ForestConfig)):
        try:
            nested[section] = cls(**over[section])
        except ValueError as exc:
            raise ConfigError(f"{section}.{exc}") from None
    return ExperimentConfig(**nested, **over[""])


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"no such config file: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a readable UTF-8 file: {exc}") from None
    return parse_config_text(text, origin=str(path))
