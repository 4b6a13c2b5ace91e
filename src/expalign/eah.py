"""Expectation alignment head.

Turns a dense feature map and one prompt's token embeddings into a spatial
alignment map: token-wise similarities, a softmax posterior over tokens driven
by their spatially averaged response, and the posterior-weighted expectation
over token maps.
"""

from dataclasses import dataclass

import numpy as np

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


def token_similarity(values, embeddings):
    """Inner products of every column of a (C, H, W) feature array with every
    row of an (L, C) token array, shaped (H, W, L).

    Pad tokens are included; masking is the posterior's job.
    """
    values = np.asarray(values, dtype=np.float64)
    emb = np.asarray(embeddings, dtype=np.float64)
    if values.ndim != 3 or emb.ndim != 2 or min(values.shape + emb.shape) < 1:
        raise DimensionError(f"features must be (C, H, W) and tokens (L, C) with positive dims, "
                             f"got {values.shape} and {emb.shape}")
    if values.shape[0] != emb.shape[1]:
        raise DimensionError(
            f"channel mismatch: features have C={values.shape[0]}, tokens have C={emb.shape[1]}"
        )
    if not (np.isfinite(values).all() and np.isfinite(emb).all()):
        raise DomainError("features and tokens must be finite")
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
    # its own softmax, not variational.gibbs: a reference stays independent of the code it checks
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

    values is a (C, H, W) feature array and tokens the prompt's TokenBatch; the
    shape, finiteness and validity checks are token_similarity's and token_posterior's.
    """
    sim = token_similarity(values, tokens.embeddings)
    return expectation_map(sim, token_posterior(sim, tokens.valid, tau_t))
