"""Top-K response pooling and the multi-positive contrastive objective."""

import math

import numpy as np

from .errors import DimensionError, DomainError
from .variational import gibbs


def topk_budget(h3, w3, n_cells_coarse, ratio=0.01):
    """Selection budget: floor(H3*W3*ratio), clamped to [1, coarse cell count].

    The budget is derived from the fine-grid cell count but spent on the coarse
    fused map, so the upper clamp can bind on small inputs.
    """
    if h3 < 1 or w3 < 1 or n_cells_coarse < 1:
        raise DomainError("dimensions must be positive")
    if not 0 < ratio <= 1:  # ObjectiveConfig's rule for topk_ratio; NaN fails it
        raise DomainError(f"topk ratio must lie in (0, 1], got {ratio}")
    k = math.floor(h3 * w3 * ratio)
    return max(1, min(k, n_cells_coarse))


def _flat_maps(m):
    """A (..., H, W) stack of maps as (..., H*W) rows; an array of rank 2 or less is one map."""
    m = np.asarray(m, dtype=np.float64)
    return m.reshape(m.shape[:-2] + (-1,))


def topk_select(m, k):
    """Flat row-major indices of the k largest values of each (H, W) map of a (..., H, W)
    stack, in ascending order; ties keep the lowest index."""
    values = _flat_maps(m)
    if not 1 <= k <= values.shape[-1]:
        raise DomainError(f"k={k} outside [1, {values.shape[-1]}]")
    top = np.argsort(-values, axis=-1, kind="stable")[..., :k].copy()  # stable: ties keep index order
    top.sort(axis=-1)  # np.sort's copy and sort, as array methods
    return top


def pooled_logit(m, sel):
    """Mean map value over the selected flat indices, per map of a (..., H, W) stack;
    sel is one index set for every map, or one per map as a (..., k) array."""
    values = _flat_maps(m)
    sel = np.asarray(sel, dtype=np.intp)
    picked = values[..., sel] if sel.ndim == 1 else np.take_along_axis(values, sel, axis=-1)
    mean = picked.sum(axis=-1) / sel.shape[-1]  # np.mean's sum and division
    return float(mean) if mean.ndim == 0 else mean


def pooled_logits(coarse_maps, k):
    """Per-prompt pooled logits and their top-k selections on a (P, H, W) stack, or on a
    (B, P, H, W) batch of them: the logits are then (B, P) and each selection (B, k)."""
    coarse_maps = np.asarray(coarse_maps, dtype=np.float64)
    maps = [coarse_maps[..., p, :, :] for p in range(coarse_maps.shape[-3])]
    sels = [topk_select(m, k) for m in maps]
    return np.array([pooled_logit(m, sel) for m, sel in zip(maps, sels)]).T, sels


def infonce_multi_positive(logits, positives, tau=0.25):
    """Mean over positive prompts of -log softmax(logits / tau)[p].

    Per-image value; a batch caller averages per-image losses with equal
    weight. Computed with a max-subtracted log-sum-exp; returns exactly 0 when
    a single prompt is both the positive and the whole candidate set.
    """
    if not tau > 0:  # NaN fails too
        raise DomainError(f"temperature must be positive, got {tau}")
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise DimensionError(f"logits must be a vector, got shape {logits.shape}")
    positives = np.asarray(sorted({int(p) for p in positives}), dtype=np.intp)
    if positives.size == 0:
        raise DomainError("positives must be nonempty")
    if positives.min() < 0 or positives.max() >= logits.size:
        raise DomainError(f"positive indices {positives} outside [0, {logits.size})")
    return float(infonce_rows(logits, positives, tau))


_libm_log = np.frompyfunc(math.log, 1, 1)


def infonce_rows(logits, positives, tau):
    """infonce_multi_positive of a (P,) logit vector, or of each row of a (B, P) batch,
    unchecked: positives are distinct indices and tau is positive. The log is libm's,
    through math.log, for every row alike; numpy's vectorized log rounds about one
    value in a thousand differently."""
    # its own log-sum-exp, not variational.gibbs: the libm log gives the golden report's l_sem bytes
    z = logits.T / tau  # prompts first, so a batch broadcasts along the trailing axis
    zmax = z.max(axis=0)
    lse = zmax + np.asarray(_libm_log(np.exp(z - zmax).sum(axis=0)), dtype=np.float64)
    log_probs = z - lse
    return -(log_probs[np.asarray(positives)].sum(axis=0) / len(positives)) + 0.0


def pooled_infonce_backward(logits, selections, positives, shape, tau, g_loss):
    """Gradient of g_loss * infonce_multi_positive(logits) with respect to the (P, H, W) coarse
    maps; top-k sets are locally constant, so each logit's gradient spreads evenly over its set."""
    positives = sorted({int(p) for p in positives})
    q = gibbs(logits / tau)
    y = np.zeros(len(logits))
    y[positives] = 1.0
    d_logit = (q - y / len(positives)) / tau
    g = np.zeros(shape)
    flat = g.reshape(shape[0], -1)
    for p, sel in enumerate(selections):
        flat[p, sel] = d_logit[p] / len(sel)
    g *= g_loss
    return g
