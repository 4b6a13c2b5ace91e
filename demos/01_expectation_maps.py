#!/usr/bin/env python3
"""Walkthrough: from token similarities to an expectation alignment map.

A tiny feature grid, one prompt with three tokens (one informative, one noisy,
one pad), and the head: spatially averaged token relevance -> softmax
posterior -> posterior-weighted expectation of the token maps.
"""

import numpy as np

from expalign.eah import TokenBatch, alignment_map
from expalign.variational import gibbs

rng = np.random.default_rng(0)

C, H, W = 8, 6, 6
features = rng.normal(size=(C, H, W)) * 0.3

# plant a direction in the lower-right quadrant
direction = rng.normal(size=C)
direction /= np.linalg.norm(direction)
features[:, 3:, 3:] += 2.0 * direction[:, None, None]

tokens = np.stack([
    direction + 0.1 * rng.normal(size=C),   # informative token
    rng.normal(size=C),                     # distractor token
    np.zeros(C),                            # pad token
])
valid = np.array([True, True, False])

# every similarity is linear in the features, so a token's spatially averaged
# response is its inner product with the channel means
sbar = tokens @ features.mean(axis=(1, 2))
print("spatial mean response per token:", np.round(sbar, 3))


def posterior(tau_t):
    """Softmax of sbar / tau_t over the valid tokens; the pad token gets exactly 0."""
    return gibbs(np.where(valid, sbar / tau_t, -np.inf))


pi = posterior(1.0)
print("token posterior:", np.round(pi, 4), "(pad token is exactly 0)")

eam = alignment_map(features, TokenBatch(tokens, valid), tau_t=1.0)
print("\nexpectation alignment map (rounded):")
print(np.round(eam, 1))
print("\nstrongest cell:", np.unravel_index(np.argmax(eam), eam.shape),
      "-- inside the planted quadrant")

# the map is the posterior-weighted expectation of the token maps T_l . F[:, x, y]
token_maps = np.einsum("lc,cxy->lxy", tokens, features)
print("max |map - sum_l pi_l * token map_l|:", f"{np.abs(eam - np.tensordot(pi, token_maps, 1)).max():.1e}")

# the temperature interpolates between mean pooling and argmax-token selection
for tau_t in (1e6, 1.0, 1e-6):
    m = alignment_map(features, TokenBatch(tokens, valid), tau_t=tau_t)
    to_mean = np.abs(m - token_maps[valid].mean(axis=0)).max()
    to_best = np.abs(m - token_maps[0]).max()
    print(f"tau_t={tau_t:>8.0e}  posterior={np.round(posterior(tau_t), 3)}  "
          f"max |map - token mean|={to_mean:.1e}  max |map - informative token|={to_best:.1e}")
