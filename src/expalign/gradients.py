"""Combined training objective and its hand-written reverse-mode gradients.

Forward: per prompt and scale, similarity -> token posterior -> expectation
map; the three-scale maps fuse down for the contrastive term and up for the
geometry term. Backward accumulates into the feature maps and the token
embeddings, the two quantities an encoder or adapter would receive.

The head is computed in rank-C form, sbar = T.fbar and eam = F^T (pi^T T): the
(P, H, W, L) similarity tensor of eah's reference form is never built.

Internally prompts are padded to a common token count and processed batched;
pad tokens carry exactly zero posterior weight and zero gradient, so padding
is semantically invisible.

Stop-gradient conventions, fixed here and honored by the finite-difference
oracle: the advantage tensor is a constant under differentiation, top-k index
sets and the clip's saturated branches are locally constant, pad tokens carry
no gradient, and the token posterior is inside the differentiable graph. The
max-abs sim normalization is differentiated through its argmax cell.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fusion, semantic
from .errors import DimensionError, DomainError
from .gaco import GacoConfig, GacoResult, gaco_backward, gaco_forward, mask_segments

FD_STEP = 1e-4       # central-difference step of the gradient oracle
ERROR_FLOOR = 1e-8   # smallest denominator of relative_gradient_error


@dataclass(frozen=True)
class ObjectiveConfig:
    lambda_sem: float = 0.5
    lambda_geo: float = 1.0
    tau_t: float = 1.0      # token-posterior temperature
    tau: float = 0.25       # contrastive temperature
    topk_ratio: float = 0.01
    gaco: GacoConfig = field(default_factory=GacoConfig)

    def __post_init__(self):
        for name in ("tau_t", "tau", "lambda_sem", "lambda_geo"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lambda_sem < 0 or self.lambda_geo < 0:
            raise DomainError("loss weights must be nonnegative")
        if self.tau_t <= 0 or self.tau <= 0:
            raise DomainError("temperatures must be positive")
        if not 0 < self.topk_ratio <= 1:
            raise DomainError(f"topk_ratio must lie in (0, 1], got {self.topk_ratio}")


def coerce_inputs(features, tokens, token_valid=None):
    """Validate raw arrays and return padded stacks.

    features are three (C, Hs, Ws) arrays, tokens one (L, C) array per prompt,
    token_valid an optional (L,) boolean mask per prompt (None = all valid).
    Returns (fvals, tok_stack, valid_stack, lengths): three (C, Hs, Ws) arrays
    for scales 3/4/5, a (P, Lmax, C) embedding stack, a (P, Lmax) validity
    stack (False rows mark padding), and the original per-prompt token counts.
    """
    if len(features) != 3:
        raise DimensionError(f"expected 3 feature maps (scales 3, 4, 5), got {len(features)}")
    if len(tokens) == 0:
        raise DimensionError("expected token embeddings for at least 1 prompt, got 0")
    if token_valid is not None and len(token_valid) != len(tokens):
        raise DimensionError(f"token_valid has {len(token_valid)} entries for {len(tokens)} prompts")
    fvals = [np.asarray(f, dtype=np.float64) for f in features]
    if not all(np.isfinite(fv).all() for fv in fvals):
        raise DomainError("feature values must be finite")
    for s, fv in enumerate(fvals):
        if fv.ndim != 3:
            raise DimensionError(f"feature map of scale {s + 3} must be (C, Hs, Ws), got rank {fv.ndim}")
        if fv.shape[0] != fvals[0].shape[0]:
            raise DimensionError("feature maps must share the channel axis")
    c = fvals[0].shape[0]
    tvals, valids = [], []
    for p, t in enumerate(tokens):
        tv = np.asarray(t, dtype=np.float64)
        if tv.ndim != 2 or tv.shape[1] != c:
            raise DimensionError("token embeddings must be (L, C) with matching channels")
        v = None if token_valid is None else token_valid[p]
        va = np.ones(tv.shape[0], dtype=bool) if v is None else np.asarray(v, dtype=bool)
        if va.shape != (tv.shape[0],):
            raise DimensionError("validity mask length must match the token count")
        if not va.any():
            raise DomainError("every prompt needs at least one valid token")
        tvals.append(tv)
        valids.append(va)
    fusion.check_pyramid(fvals[0][0], fvals[1][0], fvals[2][0])

    lengths = [tv.shape[0] for tv in tvals]
    lmax = max(lengths)
    tok_stack = np.zeros((len(tvals), lmax, c))
    valid_stack = np.zeros((len(tvals), lmax), dtype=bool)
    for p, (tv, va) in enumerate(zip(tvals, valids)):
        tok_stack[p, :tv.shape[0]] = tv
        valid_stack[p, :tv.shape[0]] = va
    if not np.isfinite(tok_stack).all():
        raise DomainError("token embeddings must be finite")
    return fvals, tok_stack, valid_stack, lengths


def _masked_posteriors(sbar, valid, tau_t):
    """Row-wise softmax of sbar / tau_t over valid entries; invalid get exp(-inf) = 0 exactly."""
    z = np.where(valid, sbar / tau_t, -np.inf)
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    return e / e.sum(axis=1, keepdims=True)


def _head(fv, tok_stack, valid_stack, tau_t):
    """Rank-C head of every prompt at one scale: sbar = T.fbar and the posterior
    pi (P, L), the posterior-weighted token w = pi^T T (P, C), eam = w.F (P, Hs, Ws)."""
    flat = fv.reshape(fv.shape[0], -1)                       # (C, Hs*Ws)
    sbar = tok_stack @ (flat.sum(axis=1) / flat.shape[1])     # fbar, as np.mean but cheaper per call
    pi = _masked_posteriors(sbar, valid_stack, tau_t)
    w = (pi[:, None, :] @ tok_stack)[:, 0]
    return sbar, pi, w, (w @ flat).reshape(-1, *fv.shape[1:])


@dataclass
class Trace:
    """Every forward intermediate needed by the backward pass."""

    fvals: list
    tok_stack: np.ndarray    # (P, Lmax, C)
    valid_stack: np.ndarray  # (P, Lmax)
    lengths: list
    sbars: list      # per scale: (P, Lmax), the spatially averaged similarity
    pis: list        # per scale: (P, Lmax)
    ws: list         # per scale: (P, C), the posterior-weighted token
    eams: list       # per scale: (P, Hs, Ws)
    dw: np.ndarray   # (P, H5, W5)
    up: np.ndarray   # (P, H3, W3)
    k: int
    selections: list  # flat top-k indices per prompt on dw
    logits: np.ndarray
    positives: tuple
    l_sem: float
    gaco: GacoResult
    l_geo: float
    total: float
    cfg: ObjectiveConfig  # the config the forward ran with, which the backward reads


def forward(features, tokens, masks, positives, cfg=ObjectiveConfig(),
            token_valid=None, frozen_adv=None):
    """Full forward pass; frozen_adv substitutes the advantage tensor."""
    fvals, tok_stack, valid_stack, lengths = coerce_inputs(features, tokens, token_valid)
    n_prompts = tok_stack.shape[0]
    masks = np.asarray(masks, dtype=bool)
    h3, w3 = fvals[0].shape[1], fvals[0].shape[2]
    if masks.shape != (n_prompts, h3, w3):
        raise DimensionError(f"masks must be ({n_prompts}, {h3}, {w3}), got {masks.shape}")

    sbars, pis, ws, eams = zip(*(_head(fv, tok_stack, valid_stack, cfg.tau_t) for fv in fvals))

    dw = fusion.fuse_down(eams[0], eams[1], eams[2])
    up = fusion.fuse_up(eams[0], eams[1], eams[2])

    k = semantic.topk_budget(h3, w3, dw.shape[-2] * dw.shape[-1], cfg.topk_ratio)
    logits, selections = semantic.pooled_logits(dw, k)
    pos = tuple(sorted(set(int(p) for p in positives)))
    l_sem = semantic.infonce_multi_positive(logits, pos, cfg.tau)

    g = gaco_forward(up, masks, cfg.gaco, frozen_adv=frozen_adv)
    l_geo = g.loss
    total = cfg.lambda_sem * l_sem + cfg.lambda_geo * l_geo

    return Trace(
        fvals=fvals, tok_stack=tok_stack, valid_stack=valid_stack, lengths=lengths,
        sbars=list(sbars), pis=list(pis), ws=list(ws), eams=list(eams), dw=dw, up=up, k=k,
        selections=selections, logits=logits, positives=pos, l_sem=l_sem, gaco=g, l_geo=l_geo, total=total,
        cfg=cfg,
    )


def objective(features, tokens, masks, positives, cfg=ObjectiveConfig(), token_valid=None):
    """Weighted objective lambda_sem * L_sem + lambda_geo * L_geo for one image, as its forward Trace."""
    return forward(features, tokens, masks, positives, cfg, token_valid)


@dataclass(frozen=True)
class GradientBundle:
    d_features: list     # per scale, same shape as the feature values
    d_tokens: list       # per prompt, same shape as the embeddings
    l_sem: float
    l_geo: float
    total: float


def backward(tr):
    """Reverse pass over a Trace, under its forward's config; gradients w.r.t. features and tokens."""
    cfg = tr.cfg
    n_prompts = tr.tok_stack.shape[0]
    # each loss term's own backward gives its fused map's gradient; a zero weight skips the term
    g_dw = (semantic.pooled_infonce_backward(tr.logits, tr.selections, tr.positives, tr.dw.shape,
                                             cfg.tau, cfg.lambda_sem)
            if cfg.lambda_sem != 0.0 else np.zeros_like(tr.dw))
    g_up = (gaco_backward(tr.gaco, cfg.lambda_geo)
            if cfg.lambda_geo != 0.0 else np.zeros_like(tr.up))

    gd3, gd4, gd5 = fusion.fuse_down_adjoint(g_dw)
    gu3, gu4, gu5 = fusion.fuse_up_adjoint(g_up)
    g_eams = [gd3 + gu3, gd4 + gu4, gd5 + gu5]

    d_features = []
    d_tok_stack = np.zeros_like(tr.tok_stack)
    for s, fv in enumerate(tr.fvals):
        flat = fv.reshape(fv.shape[0], -1)                          # (C, n)
        n = flat.shape[1]
        pi, w, g = tr.pis[s], tr.ws[s], g_eams[s].reshape(n_prompts, -1)
        # direct path through eam = w.F, plus the posterior path through
        # sbar = T.fbar; pad tokens have pi = d_sbar = 0 in both
        big_g = g @ flat.T                                          # (P, C): sum_xy g.F
        d_pi = (tr.tok_stack @ big_g[:, :, None])[:, :, 0]
        d_sbar = pi / cfg.tau_t * (d_pi - (pi * d_pi).sum(axis=1, keepdims=True))
        d_fbar = np.einsum("pl,plc->c", d_sbar, tr.tok_stack)
        d_flat = w.T @ g                                            # (C, n)
        d_flat += d_fbar[:, None] / n                               # in place: no second (C, n) temporary
        d_features.append(d_flat.reshape(fv.shape))
        d_tok_stack += pi[:, :, None] * big_g[:, None, :] + d_sbar[:, :, None] * (flat.sum(axis=1) / n)

    d_tokens = [d_tok_stack[p, :l] for p, l in enumerate(tr.lengths)]
    return GradientBundle(
        d_features=d_features, d_tokens=d_tokens,
        l_sem=tr.l_sem, l_geo=tr.l_geo, total=tr.total,
    )


def objective_with_gradients(features, tokens, masks, positives,
                             cfg=ObjectiveConfig(), token_valid=None):
    """Forward and reverse pass in one call."""
    tr = forward(features, tokens, masks, positives, cfg, token_valid)
    return backward(tr)


def fused_maps(features, tokens, tau_t=1.0, token_valid=None):
    """Coarse and fine fused maps (dw, up) without touching the losses."""
    fvals, tok_stack, valid_stack, _ = coerce_inputs(features, tokens, token_valid)
    eams = [_head(fv, tok_stack, valid_stack, tau_t)[3] for fv in fvals]
    return fusion.fuse_down(*eams), fusion.fuse_up(*eams)


def finite_difference_gradient(f, point, h=FD_STEP):
    """Central differences (f(x + h e_i) - f(x - h e_i)) / (2h) per coordinate."""
    point = np.array(point, dtype=np.float64)
    flat = point.ravel()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(point)
        flat[i] = orig - h
        fm = f(point)
        flat[i] = orig
        grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(point.shape)


def objective_fd_gradients(features, tokens, masks, positives,
                           cfg=ObjectiveConfig(), token_valid=None):
    """Finite-difference gradients of the objective under its stop-gradient rules.

    The advantage tensor is frozen at the base point before differencing, so the
    numeric gradient measures the same function the analytic pass differentiates.
    """
    base = forward(features, tokens, masks, positives, cfg, token_valid)
    frozen = base.gaco.adv.copy()

    points = list(features) + list(tokens)  # the three scales, then each prompt

    def value(i, x):
        args = list(points)
        args[i] = x
        return forward(args[:3], args[3:], masks, positives, cfg, token_valid, frozen_adv=frozen).total

    grads = [finite_difference_gradient(lambda x, i=i: value(i, x), p) for i, p in enumerate(points)]
    return GradientBundle(
        d_features=grads[:3], d_tokens=grads[3:],
        l_sem=base.l_sem, l_geo=base.l_geo, total=base.total,
    )


def relative_gradient_error(analytic, numeric):
    """Max per-coordinate |a - n| / max(|a|, |n|, ERROR_FLOOR) over matching bundles; NaN if any is NaN."""
    shapes = [([np.shape(g) for g in b.d_features], [np.shape(g) for g in b.d_tokens])
              for b in (analytic, numeric)]
    if shapes[0] != shapes[1]:
        raise DimensionError(f"gradient bundles differ in count or shape: {shapes[0]} against {shapes[1]}")
    errors = [0.0]
    pairs = list(zip(analytic.d_features, numeric.d_features))
    pairs += list(zip(analytic.d_tokens, numeric.d_tokens))
    for a, n in pairs:
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), ERROR_FLOOR)
        errors.append(np.max(np.abs(a - n) / denom))
    return float(np.max(errors))  # np.max keeps a NaN, where Python's max(worst, nan) drops it


def nondegeneracy_margins(tr):
    """Margins guarding the non-smooth corners of the objective.

    Returns the smallest observed margin for: the top-k cut, the advantage
    clip (at the trace's own clip bound), the per-scale argmax token, and the
    max-abs normalizer. Gradient checks require each to clear 1e-2.
    """
    margins = {}
    flat = tr.dw.reshape(tr.dw.shape[0], -1)
    n, k = flat.shape[1], tr.k
    if k < n:  # each prompt's k-th largest value minus its (k+1)-th; k = N has no cut
        part = np.partition(flat, (n - k - 1, n - k), axis=1)
        margins["topk"] = float(np.min(part[:, n - k] - part[:, n - k - 1]))
    else:
        margins["topk"] = np.inf

    clip_margin, c = np.inf, tr.gaco.cfg.clip
    for st, (start, stop) in zip(tr.gaco.stats, mask_segments(tr.gaco.masks)[1]):
        if st is None:
            continue
        mu, sigma = st
        zpre = (tr.gaco.conf[start:stop] - mu) / sigma
        clip_margin = min(clip_margin, float(np.min(np.minimum(np.abs(zpre - c), np.abs(zpre + c)))))
    margins["clip"] = clip_margin

    margins["token_argmax"] = min((_top_two_gap(tr.sbars[s][p][tr.valid_stack[p]])
                                   for s in range(3) for p in range(tr.tok_stack.shape[0])), default=np.inf)
    margins["norm_argmax"] = _top_two_gap(np.abs(tr.up).ravel())
    return margins


def _top_two_gap(v):
    """Largest value of a 1-D array minus the second largest, or inf below two values."""
    if v.size < 2:
        return np.inf
    top = np.partition(v, v.size - 2)  # the second largest at v.size - 2, so the largest after it
    return float(top[-1] - top[-2])
