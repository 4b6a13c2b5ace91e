#!/usr/bin/env python3
"""Walkthrough: the alignment head as multiple-instance pooling.

Each spatial cell is an instance carrying a token-affinity vector; the map
score is one shared linear functional (the token posterior) of each instance,
and the bag logit is top-k mean pooling, which interpolates between max (k=1)
and mean (k=N) pooling.
"""

import numpy as np

from expalign.eah import expectation_map, token_posterior, token_similarity
from expalign.mil import bag_logit, instance_vectors, mil_score

rng = np.random.default_rng(5)

features = rng.normal(size=(6, 4, 4))
tokens = rng.normal(size=(5, 6))
valid = np.array([True, True, True, True, False])

sim = token_similarity(features, tokens)
pi = token_posterior(sim, valid)

bag = instance_vectors(sim)
print("bag of instances:", bag.shape, "(N = H*W instances, one affinity vector each)")

scores = mil_score(bag, pi)
eam = expectation_map(sim, pi)
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
pi_shuffled = token_posterior(bag[perm].reshape(4, 4, 5), valid)
print("posterior change under instance shuffle:",
      np.abs(pi_shuffled - pi).max())
