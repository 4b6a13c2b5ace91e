"""Expectation alignment head on one prompt at one scale.

alignment_map checks one prompt's inputs and runs the production head,
gradients._head, the rank-C form the loss runs: a softmax posterior over the
valid tokens of their spatially averaged similarity, and the posterior-weighted
expectation of the token maps. FeatureMap and TokenBatch are a scene's records.
"""

from dataclasses import dataclass

import numpy as np

from . import gradients
from .errors import DimensionError, DomainError


@dataclass(frozen=True)
class FeatureMap:
    """Dense visual features at one pyramid scale, values shaped (C, H, W)."""

    values: np.ndarray


@dataclass(frozen=True)
class TokenBatch:
    """One prompt's token embeddings (L, C) plus a validity mask (True = non-pad)."""

    embeddings: np.ndarray
    valid: np.ndarray


def alignment_map(values, tokens, tau_t=1.0):
    """The (H, W) alignment map of one prompt, tokens its TokenBatch, on a (C, H, W)
    feature array. The features must be finite with positive dims, the tokens pass
    gradients.coerce_tokens, and tau_t is checked as ObjectiveConfig checks it."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3 or min(values.shape) < 1:
        raise DimensionError(f"features must be (C, H, W) with positive dims, got {values.shape}")
    if not np.isfinite(values).all():
        raise DomainError("features must be finite")
    gradients.ObjectiveConfig(tau_t=tau_t)
    tok_stack, valid_stack, _ = gradients.coerce_tokens([tokens.embeddings], [tokens.valid], values.shape[0])
    return gradients._head([values], tok_stack, valid_stack, tau_t)[3][0][0]
