"""Multiple-instance view of the alignment head.

Each spatial location is an instance carrying a token-affinity vector; the
per-location alignment score is the same linear functional (the token
posterior) applied to every instance, and the bag logit is top-k mean pooling
over instance scores. k=1 recovers max pooling, k=N mean pooling.
"""

import numpy as np

from .errors import DimensionError
from .semantic import pooled_logit, topk_select


def instance_vectors(sim):
    """Flatten an (H, W, L) similarity tensor into N = H*W row-major instances."""
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 3:
        raise DimensionError(f"similarity tensor must be (H, W, L), got {sim.shape}")
    return sim.reshape(-1, sim.shape[2])


def mil_score(instances, posterior):
    """Per-instance inner product with the token posterior."""
    weights = np.asarray(posterior, dtype=np.float64)
    instances = np.asarray(instances, dtype=np.float64)
    if instances.shape[1] != weights.shape[0]:
        raise DimensionError(
            f"token count mismatch: instances have L={instances.shape[1]}, posterior has L={weights.shape[0]}"
        )
    return instances @ weights


def bag_logit(scores, k):
    """Mean of the k largest instance scores (ties keep the lowest index)."""
    return pooled_logit(scores, topk_select(scores, k))
