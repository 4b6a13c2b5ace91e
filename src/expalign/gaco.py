"""Geometry-aware consistency objective.

The fine fused map is (optionally) normalized by its max absolute value, turned
into a joint distribution over every prompt-location pair, and compared against
an advantage signal: the sigmoid confidence standardized within each prompt's
ground-truth region and clipped. The loss is the advantage-weighted negative
log-likelihood over masked locations; the advantage acts as a constant under
differentiation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

STD_MODES = ("population", "std_plus_eps")


@dataclass(frozen=True)
class GacoConfig:
    """Hyperparameters of the geometry objective.

    clip: advantage clip bound c > 0.
    eps: stabilizer used by both the sim normalization and the region std.
    normalize: divide the map by (max |value| + eps) before softmax and sigmoid.
    std_mode: "population" puts eps inside the square root over the population
        variance; "std_plus_eps" adds eps outside the population std instead.
    """

    clip: float = 3.0
    eps: float = 1e-6
    normalize: bool = True
    std_mode: str = "population"

    def __post_init__(self):
        if not (np.isfinite(self.clip) and self.clip > 0):
            raise DomainError(f"clip bound must be positive and finite, got {self.clip}")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise DomainError(f"eps must be positive and finite, got {self.eps}")
        if self.std_mode not in STD_MODES:
            raise DomainError(f"std_mode must be one of {STD_MODES}, got {self.std_mode!r}")


def _flat_maps(m):
    """A (..., P, H, W) stack of maps as (..., P*H*W) rows; an array of rank 3 or less is one map."""
    m = np.asarray(m, dtype=np.float64)
    return m.reshape(m.shape[:-3] + (-1,))


def normalize_sim(m, eps=1e-6):
    """Divide every value by (max |value| + eps), per map of a (..., P, H, W) stack;
    all-zero input stays all-zero."""
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    flat = _flat_maps(m)
    return (flat / (np.abs(flat).max(axis=-1, keepdims=True) + eps)).reshape(np.shape(m))


def log_joint_softmax(m):
    """Log softmax over every prompt-location pair, per map of a (..., P, H, W) stack, max-subtracted."""
    flat = _flat_maps(m)
    # a log form, not variational.gibbs: the loss reads log-probabilities, in the golden report's l_geo bytes
    z = flat - flat.max(axis=-1, keepdims=True)
    return np.subtract(z, np.log(np.exp(z).sum(axis=-1, keepdims=True)), out=z).reshape(np.shape(m))


def confidence(m):
    """Bounded local alignment confidence: elementwise logistic sigmoid."""
    m = np.asarray(m, dtype=np.float64)
    e = np.exp(-np.abs(m))  # exp(-m) where m >= 0, exp(m) below: never overflows
    return np.where(m >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def region_stats(vals, eps=1e-6, std_mode="population"):
    """Mean and stabilized standard deviation of one nonempty region's values.

    Population variance (denominator |region|). "population" puts eps inside the
    root; "std_plus_eps" adds eps outside the population std instead.
    """
    vals = np.asarray(vals, dtype=np.float64)
    if vals.size == 0:
        raise DomainError("region is empty; caller must skip this prompt")
    mu = vals.sum() / vals.size  # np.mean's sum and division, without its per-call dispatch
    var = ((vals - mu) ** 2).sum() / vals.size
    if std_mode == "population":
        sigma = np.sqrt(var + eps)
    elif std_mode == "std_plus_eps":
        sigma = np.sqrt(var) + eps
    else:
        raise DomainError(f"std_mode must be one of {STD_MODES}, got {std_mode!r}")
    return float(mu), float(sigma)


def advantage(r, mu, sigma, clip=3.0):
    """Standardize r and clip to [-clip, clip]."""
    r = np.asarray(r, dtype=np.float64)
    return np.clip((r - mu) / sigma, -clip, clip)


@dataclass(frozen=True)
class GacoResult:
    """Intermediates of the full chain, kept for gradients and diagnostics."""

    loss: float            # an array over the leading axes of a stack of maps
    log_probs: np.ndarray  # log joint softmax of z, the map after optional normalization
    conf: np.ndarray       # sigmoid(z[masks]), in masks order; None when the advantage is frozen
    adv: np.ndarray        # clipped advantage, zero outside masks
    masks: np.ndarray      # boolean (P, H, W)
    denom: int             # total masked cell count
    stats: tuple           # per-prompt (mu, sigma) or None for empty regions
    cfg: GacoConfig        # the config the chain ran with
    up_map: np.ndarray     # the (P, H, W) fine map the chain ran on


def mask_segments(masks):
    """Flat indices of the masked cells of a (P, H, W) mask, prompt-major as z[masks]
    orders them, and each prompt's (start, stop) segment of those indices."""
    cells = np.flatnonzero(masks)
    width = masks.shape[1] * masks.shape[2]
    stops = np.searchsorted(cells, width * np.arange(1, masks.shape[0] + 1)).tolist()
    return cells, list(zip([0] + stops[:-1], stops))


def gaco_forward(up_map, masks, cfg=GacoConfig(), frozen_adv=None):
    """Run the full chain on a (P, H3, W3) fine fused map.

    The confidence and the advantage are computed on the masked cells only,
    prompt by prompt over each one's segment of z[masks]. frozen_adv
    substitutes a precomputed advantage tensor, which is how the
    finite-difference oracle honors the stop-gradient on the advantage.
    With frozen_adv, up_map may be a (..., P, H3, W3) stack of maps sharing
    the masks and the advantage; the loss and log_probs then carry its
    leading axes.
    """
    up_map = np.asarray(up_map, dtype=np.float64)
    masks = np.asarray(masks, dtype=bool)
    if up_map.ndim < 3 or up_map.shape[-3:] != masks.shape or (up_map.ndim > 3 and frozen_adv is None):
        raise DimensionError(f"map {up_map.shape} and masks {masks.shape} must both be (P, H, W), "
                             "or the map a stack of them with a frozen advantage")

    z = normalize_sim(up_map, cfg.eps) if cfg.normalize else up_map
    log_probs = log_joint_softmax(z)
    cells, segments = mask_segments(masks)

    if frozen_adv is not None:
        adv = np.asarray(frozen_adv, dtype=np.float64)
        if adv.shape != masks.shape:
            raise DimensionError(f"frozen_adv {adv.shape} must match the map {masks.shape}")
        masked_adv = adv[masks]
        conf = None
        stats = (None,) * masks.shape[0]
    else:
        conf = confidence(z.ravel().take(cells))
        masked_adv = np.empty_like(conf)
        stats = []
        for start, stop in segments:
            if start == stop:
                stats.append(None)  # empty region contributes nothing
                continue
            mu, sigma = region_stats(conf[start:stop], cfg.eps, cfg.std_mode)
            stats.append((mu, sigma))
            masked_adv[start:stop] = advantage(conf[start:stop], mu, sigma, cfg.clip)
        adv = np.zeros(up_map.shape)
        adv.ravel()[cells] = masked_adv

    denom = cells.size
    masked_log_probs = _flat_maps(log_probs).take(cells, axis=-1)
    loss = -(masked_adv * masked_log_probs).sum(axis=-1) / denom if denom > 0 else np.zeros(up_map.shape[:-3])
    return GacoResult(loss=float(loss) if loss.ndim == 0 else loss, log_probs=log_probs, conf=conf,
                      adv=adv, masks=masks, denom=denom, stats=tuple(stats), cfg=cfg, up_map=up_map)


def gaco_backward(res, g_loss):
    """Gradient of g_loss * res.loss with respect to the fine map res ran on, under its config;
    the advantage is a constant, and the max-abs normalizer is differentiated through its argmax cell."""
    up_map, cfg = res.up_map, res.cfg
    if res.denom == 0:
        return np.zeros_like(up_map)
    masked_adv = float(res.adv[res.masks].sum())
    # -(adv * masks - masked_adv * exp(log_probs)) / denom in the exp buffer, negated last for its signed zeros
    g_z = np.exp(res.log_probs)
    g_z *= masked_adv
    np.negative(np.subtract(res.adv * res.masks, g_z, out=g_z), out=g_z)
    g_z /= res.denom
    g_z *= g_loss
    if not cfg.normalize:
        return g_z
    a_star = int(np.argmax(np.abs(up_map)))  # a NaN cell if any, so d is NaN as the max is
    d = float(abs(up_map.flat[a_star]) + cfg.eps)
    sign = 1.0 if up_map.flat[a_star] >= 0 else -1.0
    # divide by d twice: d**2 overflows once d passes about 1e154
    correction = sign * (float((g_z * up_map).sum()) / d) / d
    g_z /= d
    g_z.ravel()[a_star] -= correction
    return g_z
