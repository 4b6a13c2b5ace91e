"""Top-K response pooling and the multi-positive contrastive objective."""

import math

import numpy as np

from .errors import DimensionError, DomainError


def topk_budget(h3, w3, n_cells_coarse, ratio=0.01):
    """Selection budget: floor(H3*W3*ratio), clamped to [1, coarse cell count].

    The budget is derived from the fine-grid cell count but spent on the coarse
    fused map, so the upper clamp can bind on small inputs.
    """
    if h3 < 1 or w3 < 1 or n_cells_coarse < 1:
        raise DomainError("dimensions must be positive")
    k = math.floor(h3 * w3 * ratio)
    return max(1, min(k, n_cells_coarse))


def topk_select(m, k):
    """Flat row-major indices of the k largest values; ties keep the lowest index."""
    values = np.asarray(m, dtype=np.float64).ravel()
    if not 1 <= k <= values.size:
        raise DomainError(f"k={k} outside [1, {values.size}]")
    # stable sort on negated values: equal entries stay in index order
    order = np.argsort(-values, kind="stable")
    return np.sort(order[:k])


def pooled_logit(m, sel):
    """Mean map value over the selected flat indices."""
    values = np.asarray(m, dtype=np.float64).ravel()
    sel = np.asarray(sel, dtype=np.intp)
    return float(values[sel].mean())


def pooled_logits(coarse_maps, k):
    """Per-prompt pooled logits and their top-k selections on a (P, H, W) stack."""
    coarse_maps = np.asarray(coarse_maps, dtype=np.float64)
    sels = [topk_select(coarse_maps[p], k) for p in range(coarse_maps.shape[0])]
    logits = np.array([pooled_logit(coarse_maps[p], sels[p]) for p in range(coarse_maps.shape[0])])
    return logits, sels


def infonce_multi_positive(logits, positives, tau=0.25):
    """Mean over positive prompts of -log softmax(logits / tau)[p].

    Per-image value; a batch caller averages per-image losses with equal
    weight. Computed with a max-subtracted log-sum-exp; returns exactly 0 when
    a single prompt is both the positive and the whole candidate set.
    """
    if tau <= 0:
        raise DomainError(f"temperature must be positive, got {tau}")
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise DimensionError(f"logits must be a vector, got shape {logits.shape}")
    positives = np.asarray(sorted(set(int(p) for p in positives)), dtype=np.intp)
    if positives.size == 0:
        raise DomainError("positives must be nonempty")
    if positives.min() < 0 or positives.max() >= logits.size:
        raise DomainError(f"positive indices {positives} outside [0, {logits.size})")
    z = logits / tau
    zmax = z.max()
    lse = zmax + math.log(np.exp(z - zmax).sum())
    log_probs = z - lse
    return float(-log_probs[positives].mean() + 0.0)


def pooled_infonce_backward(logits, selections, positives, shape, tau, g_loss):
    """Gradient of g_loss * infonce_multi_positive(logits) with respect to the (P, H, W) coarse
    maps; top-k sets are locally constant, so each logit's gradient spreads evenly over its set."""
    positives = sorted(set(int(p) for p in positives))
    z = logits / tau
    z = z - z.max()
    q = np.exp(z)
    q /= q.sum()
    y = np.zeros(len(logits))
    y[positives] = 1.0
    d_logit = (q - y / len(positives)) / tau
    g = np.zeros(shape)
    flat = g.reshape(shape[0], -1)
    for p, sel in enumerate(selections):
        flat[p, sel] = d_logit[p] / len(sel)
    g *= g_loss
    return g
