"""Seeded inputs for the three benchmark workloads.

Each workload is a dropconf config text plus, for ``dnn_wide``, a generated
CSV of fingerprint-like binary features. The same (workload, seed, size)
always produces the same bytes. ``size="tiny"`` shrinks every workload to a
fraction of a second; it is used for warm-up and by the smoke test.
"""

from __future__ import annotations

import os

import numpy as np

WORKLOADS = ("rf_cv", "dnn_wide", "dense_grid")

# Per-workload sizes. "full" is what the benchmark measures; "tiny" runs the
# same code paths on a few rows.
SIZES = {
    "rf_cv": {
        "full": {"n": 800, "trees": 6, "folds": 5},
        "tiny": {"n": 60, "trees": 2, "folds": 2},
    },
    "dnn_wide": {
        "full": {"n": 600, "d": 1024, "hidden": "1000,1000,100,10", "passes": 100, "epochs": 6},
        "tiny": {"n": 60, "d": 1024, "hidden": "1000,1000,100,10", "passes": 2, "epochs": 1},
    },
    "dense_grid": {
        "full": {"n": 5000, "passes": 20, "epochs": 40},
        "tiny": {"n": 200, "passes": 2, "epochs": 1},
    },
}

_RF_CV = """\
synthetic.n = {n}
synthetic.d = 8
synthetic.noise = heteroscedastic
seed = {seed}
n_runs = 1
train_fraction = 0.55
val_fraction = 0.15
test_fraction = 0.3
models = rf
cv_folds = {folds}
forest.n_trees = {trees}
"""

# patience = max_epochs and a loose rmse_gate fix the number of epochs and
# rule out retries, so every seed does the same amount of work.
_DNN_WIDE = """\
dataset = {dataset}
seed = {seed}
n_runs = 1
train_fraction = 0.4
val_fraction = 0.3
test_fraction = 0.3
models = dnn
dropout_p = 0.25
n_passes = {passes}
retry_limit = 0
net.hidden_sizes = {hidden}
net.max_epochs = {epochs}
net.patience = {epochs}
net.rmse_gate = 1e9
"""

_DENSE_GRID = """\
synthetic.n = {n}
synthetic.d = 8
synthetic.noise = heteroscedastic
seed = {seed}
n_runs = 1
models = dnn
dropout_p = 0.1,0.25
n_passes = {passes}
cl_grid = 0.01:0.99:0.01
retry_limit = 0
net.hidden_sizes = 16,8
net.max_epochs = {epochs}
net.patience = {epochs}
net.rmse_gate = 1e9
"""


def write_fingerprints(path: str, n: int, d: int, seed: int) -> None:
    """A CSV of binary features with a sparse linear pIC50-like label.

    Bit frequencies are skewed like hashed fingerprints: most bits are rare,
    a few are common. The label depends on 64 of the bits plus noise.
    """
    rng = np.random.default_rng([seed, n, d])
    freq = rng.beta(0.6, 6.0, size=d)
    X = (rng.random((n, d)) < freq).astype(np.int8)
    w = np.zeros(d)
    informative = rng.choice(d, size=min(64, d), replace=False)
    w[informative] = rng.normal(0.0, 0.6, size=len(informative))
    signal = (X - freq) @ w
    # unit signal variance for every seed, so seeds differ in the draw but
    # not in how hard the problem is
    y = 6.5 + signal / signal.std() + rng.normal(0.0, 0.4, size=n)
    bits = np.where(X == 1, "1", "0")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["id", "y"] + [f"f{j}" for j in range(d)]) + "\n")
        for i in range(n):
            fh.write(f"m{i:06d},{float(y[i])!r}," + ",".join(bits[i]) + "\n")


def write_inputs(workload: str, seed: int, size: str, out_dir: str) -> str:
    """Write the workload's inputs into out_dir; return the config path."""
    params = dict(SIZES[workload][size], seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    if workload == "rf_cv":
        text = _RF_CV.format(**params)
    elif workload == "dnn_wide":
        dataset = os.path.join(out_dir, f"fingerprints_{size}.csv")
        write_fingerprints(dataset, params["n"], params["d"], seed)
        # relative to the working directory, so no '#' of an absolute path
        # can start a config comment
        text = _DNN_WIDE.format(dataset=os.path.relpath(dataset), **params)
    elif workload == "dense_grid":
        text = _DENSE_GRID.format(**params)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cfg_path = os.path.join(out_dir, f"{workload}_{size}.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return cfg_path
