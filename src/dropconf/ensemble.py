"""Test-time dropout ensembles and per-instance summary statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import MLPModel, draw_masks, forward_batch, input_layer
from .seeds import rng_for


@dataclass(frozen=True)
class EnsemblePrediction:
    """Per-instance mean/std over N ensemble members plus the raw passes."""

    means: np.ndarray
    stds: np.ndarray
    passes: np.ndarray  # n_instances x n_members
    n_members: int

    def __post_init__(self):
        if self.n_members < 1:
            raise ValueError("n_members must be >= 1")
        if self.passes.shape != (len(self.means), self.n_members):
            raise ValueError("pass matrix shape does not match summaries")


def from_passes(passes: np.ndarray) -> EnsemblePrediction:
    """Summarize an n_instances x n_members pass matrix."""
    passes = np.asarray(passes, dtype=np.float64)
    if passes.ndim != 2 or passes.shape[1] < 1:
        raise ValueError("pass matrix must be 2-D with >= 1 member")
    return EnsemblePrediction(
        means=passes.mean(axis=1),
        stds=passes.std(axis=1),
        passes=passes,
        n_members=passes.shape[1],
    )


def mc_dropout_predict(model: MLPModel, features, n_passes: int, seed: int) -> EnsemblePrediction:
    """N stochastic forward passes per instance with fresh masks per pass.

    Each pass draws its masks from a stream derived from (seed, pass index),
    so the result is independent of execution order and deterministic per
    seed. dropout_p=0 runs every pass too: its masks are all ones, drawn
    without touching the stream, so each pass has the bits of a
    deterministic one, since ``(a * 1) / 1.0 == a``.

    Dropout applies to hidden layers only, so the input layer is computed
    once per call and each pass costs only the layers after it.
    """
    if n_passes < 1:
        raise ValueError("n_passes must be >= 1")
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n = X.shape[0]
    h0 = input_layer(model, X)
    passes = np.empty((n, n_passes))
    for p in range(n_passes):
        masks = draw_masks(model, n, rng_for(seed, "pass", p))
        passes[:, p] = forward_batch(model, X, masks, h0=h0)
    return from_passes(passes)
