#!/usr/bin/env python3
"""Walkthrough: the alignment head as multiple-instance pooling.

Each spatial cell is an instance carrying a token-affinity vector; the map
score is one shared linear functional (the token posterior) of each instance,
and the bag logit is top-k mean pooling, which interpolates between max (k=1)
and mean (k=N) pooling. The maps and posteriors are the ones the loss computes.
"""

import numpy as np

from expalign.fusion import downsample2x
from expalign.gradients import forward
from expalign.semantic import pooled_logit, topk_select

rng = np.random.default_rng(5)

features = rng.normal(size=(6, 4, 4))
tokens = rng.normal(size=(5, 6))
valid = np.array([True, True, True, True, False])


def head(fine):
    """Posterior and map of the one prompt at the finest scale, as the loss computes them."""
    pyramid = [fine, downsample2x(fine), downsample2x(downsample2x(fine))]
    tr = forward(pyramid, [tokens], np.ones((1, 4, 4), dtype=bool), [0], token_valid=[valid])
    return tr.pis[0][0], tr.eams[0][0]


def bag_logit(scores, k):
    return pooled_logit(scores, topk_select(scores, k))


pi, eam = head(features)
bag = features.reshape(6, -1).T @ tokens.T  # row n: the token similarities of cell n
print("bag of instances:", bag.shape, "(N = H*W instances, one affinity vector each)")

scores = bag @ pi
print("max |instance score - flattened map|:", np.abs(scores - eam.ravel()).max())

n = scores.size
print("\nbag logits across k:")
for k in (1, 4, 8, n):
    print(f"  k={k:>2}  logit={bag_logit(scores, k):+.4f}")
print("  k=1 equals max:", bag_logit(scores, 1) == scores.max(),
      " k=N equals mean:", abs(bag_logit(scores, n) - scores.mean()) < 1e-12)

# permutation invariance: instances are a set
perm = rng.permutation(n)
print("\nlogit after shuffling instances:",
      abs(bag_logit(scores[perm], 4) - bag_logit(scores, 4)))
pi_shuffled, _ = head(features.reshape(6, -1)[:, perm].reshape(6, 4, 4))
print("posterior change under instance shuffle:",
      np.abs(pi_shuffled - pi).max())
