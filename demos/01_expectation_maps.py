#!/usr/bin/env python3
"""Walkthrough: from token similarities to an expectation alignment map.

A tiny feature grid, one prompt with three tokens (one informative, one noisy,
one pad), and the full head: similarity -> spatially averaged token relevance
-> softmax posterior -> posterior-weighted expectation.
"""

import numpy as np

from expalign.eah import expectation_map, token_posterior, token_similarity

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

sim = token_similarity(features, tokens)
print("similarity tensor:", sim.shape, "(H, W, L)")
print("spatial mean response per token:", np.round(sim.mean(axis=(0, 1)), 3))

pi = token_posterior(sim, valid, tau_t=1.0)
print("token posterior:", np.round(pi, 4), "(pad token is exactly 0)")

eam = expectation_map(sim, pi)
print("\nexpectation alignment map (rounded):")
print(np.round(eam, 1))
print("\nstrongest cell:", np.unravel_index(np.argmax(eam), eam.shape),
      "-- inside the planted quadrant")

# the temperature interpolates between mean pooling and argmax-token selection
for tau_t in (1e6, 1.0, 1e-6):
    w = token_posterior(sim, valid, tau_t=tau_t)
    print(f"tau_t={tau_t:>8.0e}  posterior={np.round(w, 3)}")
