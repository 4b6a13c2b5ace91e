#!/usr/bin/env python3
"""Walkthrough: the geometry-aware consistency chain on a fine alignment map.

Joint softmax over every prompt-location pair, sigmoid confidence, intra-region
standardization into a clipped advantage, and the advantage-weighted negative
log-likelihood. The advantage is zero-mean per region, so the loss rewards
redistributing probability toward the relatively consistent cells of each mask.
"""

import math

import numpy as np

from expalign.gaco import GacoConfig, confidence, gaco_forward, region_stats

rng = np.random.default_rng(3)

maps = rng.normal(size=(2, 6, 6))
maps[0, 1:4, 1:4] += 1.5   # prompt 0 responds inside its region
masks = np.zeros((2, 6, 6), dtype=bool)
masks[0, 1:4, 1:4] = True
masks[1, 4:6, 0:3] = True

cfg = GacoConfig(clip=3.0, eps=1e-6, normalize=False)
res = gaco_forward(maps, masks, cfg)

print("pair distribution sums to", np.exp(res.log_probs).sum())
stats = [region_stats(confidence(maps[p][masks[p]]), cfg.eps, cfg.std_mode) for p in range(2)]
print("region stats (mu, sigma):", [(round(mu, 3), round(sigma, 3)) for mu, sigma in stats])
print("advantage inside region 0:\n", np.round(res.adv[0, 1:4, 1:4], 2))
print("per-region advantage sums:",
      [round(float(res.adv[p][masks[p]].sum()), 10) for p in range(2)])
print("loss:", round(res.loss, 5))

# the hand-derived 1x2 chain: logits [0, ln 3], full mask
tiny = gaco_forward(np.array([[[0.0, math.log(3.0)]]]), np.ones((1, 1, 2), bool),
                    GacoConfig(eps=1e-12, normalize=False))
print("\n1x2 worked chain:")
print("  probs     ", np.round(np.exp(tiny.log_probs).ravel(), 4), "(= [1/4, 3/4])")
print("  confidence", np.round(tiny.conf.ravel(), 4), "(= [1/2, 3/4])")
print("  advantage ", np.round(tiny.adv.ravel(), 4), "(= [-1, 1])")
print("  loss      ", round(tiny.loss, 6), "= -(1/2) log 3 =", round(-0.5 * math.log(3), 6))

# empty regions are skipped, an all-empty batch returns exactly 0
empty = gaco_forward(maps, np.zeros_like(masks), cfg)
print("\nempty masks ->", empty.loss)
