"""Fuzz tests for the two parsers of outside input.

Any config text and any table file either gives a valid object or raises the
module's own error (ConfigError, DataError), and no input hangs the parser.
"""

import contextlib
import math
import signal
from datetime import timedelta

import numpy as np
from hypothesis import given, settings, strategies as st

from dropconf.config import _KEYS, ConfigError, ExperimentConfig, parse_config_text
from dropconf.data import DataError, Dataset, check_split, load_table

# hypothesis fails an example that runs past the deadline only once it
# returns; the alarm also fails one that never returns
FUZZ = settings(max_examples=300, deadline=timedelta(seconds=1))
HANG_S = 5.0


@contextlib.contextmanager
def time_limit(seconds):
    def _raise(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, _raise)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


_number = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["0", "1e-17", "1e308", "-1e-300", "nan", "inf", "1_0", "0.125", "0.99"]),
)
_value = st.one_of(
    _number,
    st.lists(_number, max_size=4).map(",".join),
    st.tuples(_number, _number, _number).map(":".join),
    st.sampled_from(["true", "no", "all", "dnn", "rf,dnn", "bogus", "homoscedastic", ""]),
    st.text(max_size=20),
)
_line = st.one_of(
    st.tuples(st.sampled_from(sorted(_KEYS)), _value).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=30),
)
_config_text = st.tuples(
    st.sampled_from(["dataset = x.csv", "synthetic.n = 200", "synthetic.n = 12", ""]),
    st.lists(_line, max_size=8),
).map(lambda t: "\n".join([t[0], *t[1]]))


def _assert_valid_config(cfg):
    assert isinstance(cfg, ExperimentConfig)
    assert list(cfg.cl_grid) == sorted(set(cfg.cl_grid))
    assert all(0 < cl < 1 for cl in cfg.cl_grid) and cfg.default_cl in cfg.cl_grid
    assert list(cfg.cutoffs) == sorted(set(cfg.cutoffs))
    assert all(math.isfinite(c) for c in cfg.cutoffs)
    assert all(0 <= p < 1 for p in cfg.dropout_p)
    assert cfg.dropout_p or "dnn" not in cfg.models
    assert min(cfg.n_runs, cfg.n_passes, cfg.workers) >= 1 and cfg.cv_folds >= 2
    assert cfg.models and set(cfg.models) <= {"dnn", "rf"}
    if cfg.dataset is None:
        check_split(cfg.synthetic_n, cfg.fractions)


@FUZZ
@given(text=_config_text)
def test_parse_config_text_returns_valid_config_or_config_error(text):
    with time_limit(HANG_S):
        try:
            cfg = parse_config_text(text)
        except ConfigError:
            return
    _assert_valid_config(cfg)


_cell = st.one_of(_number, st.text(max_size=6), st.sampled_from(["", "a", "id", '"', '"a,b"']))
_csv_text = st.lists(st.lists(_cell, max_size=5).map(",".join), max_size=6).map("\n".join)
_table_bytes = st.one_of(
    st.tuples(st.sampled_from(["id,y,f0", "id,y,f0,f1", "f0,y,id", "id,y", "id,id,y"]),
              _csv_text).map(lambda t: f"{t[0]}\n{t[1]}".encode()),
    _csv_text.map(str.encode),
    st.binary(max_size=200),
)


@FUZZ
@given(content=_table_bytes)
def test_load_table_returns_valid_dataset_or_data_error(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    path.write_bytes(content)
    with time_limit(HANG_S):
        try:
            ds = load_table(path)
        except DataError:
            return
    assert isinstance(ds, Dataset) and ds.n_rows >= 1 and ds.n_features >= 1
    assert np.isfinite(ds.labels).all() and np.isfinite(ds.features).all()
    assert len(set(ds.ids)) == ds.n_rows
