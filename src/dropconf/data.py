"""Datasets, seeded splits, and synthetic regression data.

Tables are plain CSV with header ``id,y,f0,...,f{d-1}``. Labels are pIC50
units for chemistry data and arbitrary units for synthetic data. Fingerprints
are just 0/1-valued feature columns; nothing here is chemistry-specific.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .seeds import rng_for


class DataError(ValueError):
    """Raised for malformed tables or invalid split/generation requests."""


@dataclass(frozen=True)
class Dataset:
    """Immutable table of (id, label, feature vector) rows."""

    ids: tuple
    labels: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.float64)
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        n = len(self.ids)
        if n == 0:
            raise DataError("dataset must have at least one row")
        if labels.shape != (n,) or features.shape[0] != n:
            raise DataError("ids, labels and features must have the same length")
        # finite row sums mean finite cells; only an inf or nan sum (a bad
        # cell, or an overflow) needs the check with one bool per cell
        with np.errstate(over="ignore", invalid="ignore"):
            rows_ok = np.isfinite(features.sum(axis=1)).all() or np.isfinite(features).all()
        if not np.isfinite(labels).all() or not rows_ok:
            raise DataError("labels and features must be finite")
        if len(set(self.ids)) != n:
            raise DataError("duplicate ids in dataset")
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "features", features)
        self.labels.setflags(write=False)
        self.features.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return len(self.ids)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(
            ids=tuple(self.ids[i] for i in idx),
            labels=self.labels[idx],
            features=self.features[idx],
        )


class SplitIndices(NamedTuple):
    """Train/validation/test index sets, disjoint and exhaustive because
    random_split cuts them from one permutation."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


_FIRST_ROWS = 64  # load_table's first row capacity


def load_table(path) -> Dataset:
    """Load a CSV table of ids, labels and numeric features.

    The header must name an ``id`` column, a ``y`` label column and at least
    one feature column; every data cell except the id must parse as a finite
    number. Row order is preserved. Rows go straight into float64 arrays
    grown in place, so loading holds about one copy of the result.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    with fh:
        reader = _csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "id" not in header or "y" not in header:
            raise DataError(f"{path}: header must contain 'id' and 'y' columns")
        for name in ("id", "y"):
            if header.count(name) > 1:  # a second one would be read as a feature
                raise DataError(f"{path}: header has more than one '{name}' column")
        id_pos, y_pos = header.index("id"), header.index("y")
        feat_pos = [i for i in range(len(header)) if i not in (id_pos, y_pos)]
        if not feat_pos:
            raise DataError(f"{path}: no feature columns in header")
        cols, d = [y_pos] + feat_pos, len(feat_pos)
        ids, labels, features = [], np.empty(_FIRST_ROWS), np.empty((_FIRST_ROWS, d))
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataError(f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}")
            ids.append(row[id_pos])
            try:
                values = list(map(float, map(row.__getitem__, cols)))
            except ValueError:
                values = [math.nan]
            if not math.isfinite(sum(values)):  # the first bad cell raises; a sum can overflow
                values = [_parse_cell(row[j], path, rownum, header[j]) for j in cols]
            if rownum > len(labels):  # full: grow by a quarter, in place where realloc can
                labels.resize(len(labels) + len(labels) // 4, refcheck=False)
                features.resize((len(labels), d), refcheck=False)
            labels[rownum - 1], features[rownum - 1] = values[0], values[1:]
    if not ids:
        raise DataError(f"{path}: no data rows")
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate id values")
    labels.resize(len(ids), refcheck=False)  # trim to the rows read
    features.resize((len(ids), d), refcheck=False)
    return Dataset(ids=tuple(ids), labels=labels, features=features)


def _csv_rows(fh, path):
    """The rows of csv.reader, with undecodable bytes and malformed CSV
    raised as DataError."""
    try:
        yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a readable UTF-8 CSV file: {exc}") from None


def _parse_cell(cell: str, path, rownum: int, colname: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"{path}: row {rownum}, column {colname}: cannot parse '{cell}' as a number"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"{path}: row {rownum}, column {colname}: non-finite value '{cell}'")
    return value


def bounded(default, lo=-math.inf, hi=math.inf, closed="[)"):
    """A field that check_bounds keeps from lo to hi, ends open or closed as ``closed``."""
    return field(default=default, metadata={"bounds": (lo, hi, closed)})


def check_bounds(obj, error=ValueError) -> None:
    """Raise ``error("<key>: <value> not in <interval>")`` for the first set
    (not None) value of a bounded field of ``obj`` outside its interval."""
    for f in filter(lambda f: "bounds" in f.metadata, fields(obj)):
        (lo, hi, closed), value = f.metadata["bounds"], getattr(obj, f.name)
        for v in value if isinstance(value, tuple) else (value,) if value is not None else ():
            if not (lo < v < hi or v == lo and closed[0] == "[" or v == hi and closed[1] == "]"):
                key = f.name.replace("synthetic_", "synthetic.")
                raise error(f"{key}: {v} not in {closed[0]}{lo}, {hi}{closed[1]}")


def check_fractions(fractions) -> None:
    """Raise DataError unless the three split fractions are positive and sum to 1."""
    if not all(f > 0 for f in fractions):
        raise DataError("split fractions must be positive")
    if not abs(sum(fractions) - 1.0) <= 1e-9:
        raise DataError("split fractions must sum to 1.0")


def check_split(n_rows: int, fractions) -> tuple:
    """The cut points (c1, c2) random_split uses for n_rows rows.

    Cut points are floor(n*f_train) and floor(n*(f_train+f_val)); remainder
    rows after flooring go to the test partition. Raises DataError unless
    every partition gets at least one row.
    """
    check_fractions(fractions)
    f_train, f_val, _ = fractions
    if n_rows < 3:
        raise DataError("need at least 3 rows to populate all three partitions")
    c1 = int(math.floor(n_rows * f_train))
    c2 = int(math.floor(n_rows * (f_train + f_val)))
    if c1 < 1 or c2 - c1 < 1 or n_rows - c2 < 1:
        raise DataError(f"n_rows={n_rows} too small for fractions {fractions}")
    return c1, c2


def check_folds(n_rows: int, k: int) -> None:
    """Raise DataError unless n_rows rows can be cut into k non-empty folds."""
    if k < 2:
        raise DataError("k must be >= 2")
    if n_rows < k:
        raise DataError(f"need at least k={k} training rows, got {n_rows}")


def random_split(n_rows: int, fractions=(0.70, 0.15, 0.15), seed: int = 0) -> SplitIndices:
    """Partition 0..n_rows-1 into seeded train/validation/test index sets
    cut at check_split's cut points."""
    c1, c2 = check_split(n_rows, fractions)
    perm = rng_for(seed, "split").permutation(n_rows)
    return SplitIndices(train=perm[:c1], validation=perm[c1:c2], test=perm[c2:])


def check_synthetic(n: int, d: int, noise: str, scale: float) -> None:
    """Raise DataError for make_synthetic arguments it cannot use."""
    if n < 10 or d < 1:
        raise DataError("synthetic data needs n >= 10 and d >= 1")
    if not (math.isfinite(scale) and scale >= 0):
        raise DataError("noise scale must be finite and >= 0")
    if noise not in ("homoscedastic", "heteroscedastic"):
        raise DataError(f"unknown noise model '{noise}'")


def make_synthetic(
    n: int,
    d: int,
    noise: str = "homoscedastic",
    scale: float = 0.3,
    seed: int = 0,
) -> Dataset:
    """Generate a seeded synthetic regression dataset.

    ``noise`` is "homoscedastic" (constant std = scale) or "heteroscedastic"
    (per-row std = scale * (0.25 + |x0|), so ensemble spread has signal to
    exploit). scale=0 gives labels exactly equal to the generating function.
    """
    check_synthetic(n, d, noise, scale)
    rng = rng_for(seed, "synthetic")
    X = rng.standard_normal((n, d))
    # Smooth, low-effective-dimension target: learnable by both a small MLP
    # and an axis-aligned forest at desk scale.
    y = X[:, 0].copy()
    if d >= 2:
        y = y + np.sin(2.0 * X[:, 1])
    if d >= 3:
        y = y + 0.5 * X[:, 2]
    if scale > 0:
        if noise == "homoscedastic":
            sd = np.full(n, scale)
        else:
            sd = scale * (0.25 + np.abs(X[:, 0]))
        y = y + sd * rng.standard_normal(n)
    ids = tuple(f"s{i:06d}" for i in range(n))
    return Dataset(ids=ids, labels=y, features=X)

