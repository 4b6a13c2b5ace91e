"""Expectation alignment head.

Turns a dense feature map and one prompt's token embeddings into a spatial
alignment map: token-wise similarities, a softmax posterior over tokens driven
by their spatially averaged response, and the posterior-weighted expectation
over token maps.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError

VALID_SCALES = (3, 4, 5)


@dataclass(frozen=True)
class FeatureMap:
    """Dense visual features at one pyramid scale, values shaped (C, H, W)."""

    scale: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if self.scale not in VALID_SCALES:
            raise DomainError(f"scale must be one of {VALID_SCALES}, got {self.scale}")
        if v.ndim != 3 or min(v.shape) < 1:
            raise DimensionError(f"feature values must be (C, H, W) with positive dims, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DomainError("feature values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def channels(self):
        return self.values.shape[0]

    @property
    def height(self):
        return self.values.shape[1]

    @property
    def width(self):
        return self.values.shape[2]


@dataclass(frozen=True)
class TokenBatch:
    """One prompt's token embeddings (L, C) plus a validity mask (True = non-pad)."""

    embeddings: np.ndarray
    valid: np.ndarray = field(default=None)

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float64)
        if emb.ndim != 2 or min(emb.shape) < 1:
            raise DimensionError(f"embeddings must be (L, C), got {emb.shape}")
        if not np.all(np.isfinite(emb)):
            raise DomainError("token embeddings must be finite")
        valid = self.valid
        if valid is None:
            valid = np.ones(emb.shape[0], dtype=bool)
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != (emb.shape[0],):
            raise DimensionError(f"valid mask must have shape ({emb.shape[0]},), got {valid.shape}")
        if not valid.any():
            raise DomainError("at least one token must be valid")
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "valid", valid)

    @property
    def count(self):
        return self.embeddings.shape[0]

    @property
    def channels(self):
        return self.embeddings.shape[1]


def token_similarity(values, embeddings):
    """Inner products of every column of a (C, H, W) feature array with every
    row of an (L, C) token array, shaped (H, W, L).

    Pad tokens are included; masking is the posterior's job.
    """
    values = np.asarray(values, dtype=np.float64)
    emb = np.asarray(embeddings, dtype=np.float64)
    if values.shape[0] != emb.shape[1]:
        raise DimensionError(
            f"channel mismatch: features have C={values.shape[0]}, tokens have C={emb.shape[1]}"
        )
    return np.einsum("cxy,lc->xyl", values, emb)


def token_posterior(sim, valid, tau_t=1.0):
    """Softmax posterior over valid tokens of the spatially averaged similarity.

    The spatial mean runs over all locations. Invalid tokens are excluded from
    the softmax by masking before exponentiation, so their weight is exactly 0.
    Returns the (L,) weight vector on the simplex.
    """
    if tau_t <= 0:
        raise DomainError(f"token temperature must be positive, got {tau_t}")
    sim = np.asarray(sim, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if sim.ndim != 3 or sim.shape[2] != valid.shape[0]:
        raise DimensionError(f"similarity (H, W, L) with L={valid.shape[0]} expected, got {sim.shape}")
    if not valid.any():
        raise DomainError("at least one token must be valid")
    sbar = sim.mean(axis=(0, 1))  # (L,)
    logits = sbar[valid] / tau_t
    shifted = logits - logits.max()
    expv = np.exp(shifted)
    weights = np.zeros_like(sbar)
    weights[valid] = expv / expv.sum()
    return weights


def expectation_map(sim, posterior):
    """Marginalize token maps under the posterior: sum_l pi(l) * sim[:, :, l]."""
    weights = np.asarray(posterior, dtype=np.float64)
    sim = np.asarray(sim, dtype=np.float64)
    if sim.shape[-1] != weights.shape[0]:
        raise DimensionError(f"token count mismatch: sim has L={sim.shape[-1]}, posterior has L={weights.shape[0]}")
    return np.einsum("xyl,l->xy", sim, weights)


def alignment_map(values, tokens, tau_t=1.0):
    """Full head for one prompt at one scale: similarity -> posterior -> expectation.

    values is a (C, H, W) feature array and tokens the prompt's TokenBatch.
    """
    sim = token_similarity(values, tokens.embeddings)
    return expectation_map(sim, token_posterior(sim, tokens.valid, tau_t))
