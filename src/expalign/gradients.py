"""Combined training objective and its hand-written reverse-mode gradients.

Forward: per prompt and scale, similarity -> token posterior -> expectation
map; the three-scale maps fuse down for the contrastive term and up for the
geometry term. Backward accumulates into the feature maps and the token
embeddings, the two quantities an encoder or adapter would receive.

The head is computed in rank-C form, sbar = T.fbar and eam = F^T (pi^T T): the
(P, H, W, L) similarity tensor is never built, and eah.alignment_map runs this
head on one prompt. A prompt's posterior sees a scale only through its channel
mean fbar, so one _head call runs the token side of all three scales on a
leading scale axis, and backward stacks the gradients at w into G (3, P, C) for
one _token_chain call.

Internally prompts are padded to a common token count and processed batched;
pad tokens carry exactly zero posterior weight and zero gradient, so padding
is semantically invisible.

The head and the loss tail after it (_losses) are written once, over an
optional leading batch axis: forward runs them on one image, and the
finite-difference oracle runs them on chunks of perturbed copies of one
image's features or tokens, under the advantage frozen at its base point.

Pre-fused features: the fusion is linear, so with w = [w3|w4|w5] (P, 3C) the
fused maps are dw = w.DF and up = w.UF, where DF and UF (3C, cells) fuse each
scale's channel planes on their own, and G = g_dw.DF^T + g_up.UF^T, whose
(3, P, C) blocks go through the same token side and chain rule. The training
demo's features are fixed, so it fuses them once (fix_features) and steps with
fixed_features_objective; its maps agree with forward's to rounding, not bit
for bit.

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
from .gaco import GacoConfig, GacoResult, gaco_backward, gaco_forward
from .variational import gibbs

FD_STEP = 1e-4       # step of finite_difference_gradient's central differences
ERROR_FLOOR = 1e-8   # smallest denominator of relative_gradient_error
# objective_fd_gradients' 4-point Richardson stencil, with error O(h^4) and no
# rounding amplified by a small step:
#     f'(x) = (8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h
# Each pair is (offset in steps, weight) of the difference f(x + o h) - f(x - o h).
FD_STENCIL = {"step": 3e-3, "pairs": ((1, 8.0), (2, -1.0)), "divisor": 12.0}
FD_CHUNK = 128  # perturbed points per batched forward of objective_fd_gradients


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
    """Validate raw arrays and return (fvals, tok_stack, valid_stack, lengths):
    coerce_features' arrays, then coerce_tokens' padded stacks."""
    fvals = coerce_features(features)
    return (fvals,) + coerce_tokens(tokens, token_valid, fvals[0].shape[0])


def coerce_features(features):
    """Three (C, Hs, Ws) feature arrays of scales 3/4/5, checked, as float64 arrays."""
    if len(features) != 3:
        raise DimensionError(f"expected 3 feature maps (scales 3, 4, 5), got {len(features)}")
    fvals = [np.asarray(f, dtype=np.float64) for f in features]
    if not all([np.isfinite(fv).all() for fv in fvals]):  # a list: a generator costs a frame per map
        raise DomainError("feature values must be finite")
    for s, fv in enumerate(fvals):
        if fv.ndim != 3:
            raise DimensionError(f"feature map of scale {s + 3} must be (C, Hs, Ws), got rank {fv.ndim}")
        if fv.shape[0] != fvals[0].shape[0]:
            raise DimensionError("feature maps must share the channel axis")
    fusion.check_pyramid(fvals[0][0], fvals[1][0], fvals[2][0])
    return fvals


def coerce_tokens(tokens, token_valid, channels):
    """One (L, C) token array per prompt and an optional (L,) boolean mask per prompt
    (None = all valid), checked; returns a (P, Lmax, C) embedding stack, a (P, Lmax)
    validity stack (False rows mark padding), and the per-prompt token counts."""
    if len(tokens) == 0:
        raise DimensionError("expected token embeddings for at least 1 prompt, got 0")
    if token_valid is not None and len(token_valid) != len(tokens):
        raise DimensionError(f"token_valid has {len(token_valid)} entries for {len(tokens)} prompts")
    tvals, valids = [], []
    for p, t in enumerate(tokens):
        tv = np.asarray(t, dtype=np.float64)
        if tv.ndim != 2 or tv.shape[1] != channels:
            raise DimensionError("token embeddings must be (L, C) with matching channels")
        v = None if token_valid is None else token_valid[p]
        va = np.ones(tv.shape[0], dtype=bool) if v is None else np.asarray(v, dtype=bool)
        if va.shape != (tv.shape[0],):
            raise DimensionError("validity mask length must match the token count")
        tvals.append(tv)
        valids.append(va)

    lengths = [tv.shape[0] for tv in tvals]
    tok_stack = np.zeros((len(tvals), max(lengths), channels))
    valid_stack = np.zeros(tok_stack.shape[:2], dtype=bool)
    for p, (tv, va) in enumerate(zip(tvals, valids)):
        tok_stack[p, :tv.shape[0]] = tv
        valid_stack[p, :tv.shape[0]] = va
    _check_stack(tok_stack, valid_stack, channels)
    return tok_stack, valid_stack, lengths


def _check_stack(tok_stack, valid_stack, channels):
    """A finite (P, Lmax, C) token stack and its (P, Lmax) validity stack, one valid token per prompt at least."""
    if tok_stack.ndim != 3 or tok_stack.shape[2] != channels or valid_stack.shape != tok_stack.shape[:2]:
        raise DimensionError(f"token stack {tok_stack.shape} needs C = {channels} and a validity stack "
                             f"of its (P, Lmax), got {valid_stack.shape}")
    if not valid_stack.any(axis=1).all():
        raise DomainError("every prompt needs at least one valid token")
    if not np.isfinite(tok_stack).all():
        raise DomainError("token embeddings must be finite")


def _targets(masks, positives, shape):
    """The boolean (P, H3, W3) masks, checked against shape, and the sorted distinct positives."""
    masks = np.asarray(masks, dtype=bool)
    if masks.shape != shape:
        raise DimensionError(f"masks must be {shape}, got {masks.shape}")
    return masks, tuple(sorted({int(p) for p in positives}))


def _masked_posteriors(sbar, valid, tau_t):
    """Row-wise Gibbs distribution of sbar / tau_t over valid entries; invalid get exactly 0."""
    return gibbs(np.where(valid, sbar / tau_t, -np.inf))


def _channel_means(flats):
    """The (..., C) channel means of each (..., C, n) flattened map, as np.mean gives them, on a leading scale axis."""
    return np.array([flat.sum(axis=-1) / flat.shape[-1] for flat in flats])  # np.stack's work, without its wrapper


def _token_side(fbar, tok_stack, valid_stack, tau_t):
    """The head's token side from the (..., C) channel means fbar: sbar = T.fbar, the
    posterior pi (..., P, L) and the posterior-weighted token w = pi^T T (..., P, C)."""
    sbar = (tok_stack @ fbar[..., None, :, None])[..., 0]
    pi = _masked_posteriors(sbar, valid_stack, tau_t)
    return sbar, pi, (pi[..., None, :] @ tok_stack)[..., 0, :]


def _head(fvals, tok_stack, valid_stack, tau_t):
    """Rank-C head of every prompt at every scale of fvals, a list of (..., C, Hs, Ws) maps
    whose leading axes broadcast against the token stack's: _token_side's sbar, pi and w on a
    leading scale axis, per scale the map eam = w.F (..., P, Hs, Ws), and the channel means fbar."""
    flats = [fv.reshape(fv.shape[:-2] + (-1,)) for fv in fvals]        # (..., C, Hs*Ws)
    fbar = _channel_means(flats)
    sbar, pi, w = _token_side(fbar, tok_stack, valid_stack, tau_t)
    maps = [(ws @ flat).reshape(ws.shape[:-1] + fv.shape[-2:]) for ws, flat, fv in zip(w, flats, fvals)]
    return sbar, pi, w, maps, fbar


@dataclass
class Trace:
    """Every forward intermediate of one image needed by the backward pass."""

    fvals: list
    tok_stack: np.ndarray    # (P, Lmax, C)
    valid_stack: np.ndarray  # (P, Lmax)
    lengths: list
    fbars: np.ndarray  # (3, C), each scale's channel means
    sbars: np.ndarray  # (3, P, Lmax), the spatially averaged similarity
    pis: np.ndarray    # (3, P, Lmax)
    ws: np.ndarray     # (3, P, C), the posterior-weighted token
    eams: list         # per scale: (P, Hs, Ws)
    dw: np.ndarray   # (P, H5, W5); the fine map (P, H3, W3) is gaco.up_map
    k: int
    selections: list  # flat top-k indices per prompt on dw
    logits: np.ndarray
    positives: tuple
    l_sem: float
    gaco: GacoResult  # the geometry loss is gaco.loss
    total: float
    cfg: ObjectiveConfig  # the config the forward ran with, which the backward reads


def forward(features, tokens, masks, positives, cfg=ObjectiveConfig(),
            token_valid=None, frozen_adv=None):
    """Full forward pass; frozen_adv substitutes the advantage tensor."""
    fvals, tok_stack, valid_stack, lengths = coerce_inputs(features, tokens, token_valid)
    masks, pos = _targets(masks, positives, tok_stack.shape[:1] + fvals[0].shape[1:])
    sbars, pis, ws, eams, fbars = _head(fvals, tok_stack, valid_stack, cfg.tau_t)
    return Trace(fvals=fvals, tok_stack=tok_stack, valid_stack=valid_stack, lengths=lengths, fbars=fbars,
                 sbars=sbars, pis=pis, ws=ws, eams=eams, positives=pos, cfg=cfg,
                 **_losses(eams, masks, pos, cfg, frozen_adv))


def _losses(eams, masks, pos, cfg, frozen_adv=None):
    """The forward after the heads, as the Trace fields it fills: the fusion of the
    three scales' maps, then _loss_tail. eams are one image's maps or, with
    frozen_adv, stacks of them on a common leading batch axis."""
    return _loss_tail(fusion.fuse_down(eams[0], eams[1], eams[2]), fusion.fuse_up(eams[0], eams[1], eams[2]),
                      masks, pos, cfg, frozen_adv)


def _loss_tail(dw, up, masks, pos, cfg, frozen_adv=None):
    """The losses on the coarse and fine fused maps, as Trace fields: top-k pooling
    with InfoNCE on dw and the geometry loss on up. One image makes one call per
    prompt to semantic.topk_select and per region to gaco.region_stats, which the
    benchmark's tracer counts."""
    h3, w3 = masks.shape[1:]
    k = semantic.topk_budget(h3, w3, dw.shape[-2] * dw.shape[-1], cfg.topk_ratio)
    logits, selections = semantic.pooled_logits(dw, k)
    # the public loss checks and takes one image; a batch's rows go to its arithmetic directly
    l_sem = (semantic.infonce_multi_positive if logits.ndim == 1 else semantic.infonce_rows)(logits, pos, cfg.tau)

    g = gaco_forward(up, masks, cfg.gaco, frozen_adv=frozen_adv)
    return dict(dw=dw, k=k, selections=selections, logits=logits, l_sem=l_sem, gaco=g,
                total=cfg.lambda_sem * l_sem + cfg.lambda_geo * g.loss)


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
    g_dw, g_up = _map_gradients(tr.logits, tr.selections, tr.positives, tr.dw.shape, tr.gaco, tr.cfg)
    flats = [fv.reshape(len(fv), -1) for fv in tr.fvals]                              # (C, n) per scale
    gs = [np.add(gd, gu, out=gd).reshape(len(tr.tok_stack), -1)  # (P, n) per scale, in the down adjoint's array
          for gd, gu in zip(fusion.fuse_down_adjoint(g_dw), fusion.fuse_up_adjoint(g_up))]
    # big_g = sum_xy g.F (3, P, C) is the gradient at w, through eam = w.F: one chain rule for every scale
    d_sbar, d_tok_stack = _token_chain(tr.tok_stack, tr.pis, tr.fbars,
                                       np.array([g @ flat.T for g, flat in zip(gs, flats)]), tr.cfg.tau_t)
    d_fbars = np.einsum("spl,plc->sc", d_sbar, tr.tok_stack)            # (3, C), through sbar = T.fbar
    d_features = []
    for fv, flat, g, w, d_fbar in zip(tr.fvals, flats, gs, tr.ws, d_fbars):
        d_flat = w.T @ g                                                 # (C, n); d fbar / n goes in in place
        d_flat += d_fbar[:, None] / flat.shape[1]
        d_features.append(d_flat.reshape(fv.shape))
    return GradientBundle(d_features=d_features, d_tokens=[d_tok_stack[p, :l] for p, l in enumerate(tr.lengths)],
                          l_sem=tr.l_sem, l_geo=tr.gaco.loss, total=tr.total)


def _map_gradients(logits, selections, positives, dw_shape, gaco_result, cfg):
    """Gradients (g_dw, g_up) at the coarse and fine fused maps: each loss term's own
    backward, or zeros when its weight is zero."""
    g_dw = (semantic.pooled_infonce_backward(logits, selections, positives, dw_shape, cfg.tau, cfg.lambda_sem)
            if cfg.lambda_sem != 0.0 else np.zeros(dw_shape))
    g_up = (gaco_backward(gaco_result, cfg.lambda_geo)
            if cfg.lambda_geo != 0.0 else np.zeros_like(gaco_result.up_map))
    return g_dw, g_up


def _token_chain(tok_stack, pi, fbar, big_g, tau_t):
    """The token gradient from big_g (S, P, C), the gradient at w = pi^T T on _token_side's scale axis,
    through w directly and through the posterior of sbar = T.fbar. Returns d_sbar (S, P, L) and the
    (P, L, C) token gradient summed over the scales; pad tokens have pi = d_sbar = 0, so their rows are 0."""
    d_pi = (tok_stack @ big_g[..., None])[..., 0]
    d_sbar = pi / tau_t * (d_pi - (pi * d_pi).sum(axis=-1, keepdims=True))
    return d_sbar, (pi[..., None] * big_g[..., None, :] + d_sbar[..., None] * fbar[..., None, None, :]).sum(axis=0)


def objective_with_gradients(features, tokens, masks, positives,
                             cfg=ObjectiveConfig(), token_valid=None):
    """Forward and reverse pass in one call."""
    tr = forward(features, tokens, masks, positives, cfg, token_valid)
    return backward(tr)


@dataclass(frozen=True)
class FixedFeatures:
    """One image's features, fixed for a run of token updates: each scale's channel
    means, and the fused maps of each scale's channel planes on their own."""

    fbars: np.ndarray  # (3, C)
    down: np.ndarray   # (3C, H5*W5): fuse_down of one scale's planes, zeros at the other two
    up: np.ndarray     # (3C, H3*W3): fuse_up of the same
    grids: tuple       # ((H5, W5), (H3, W3))


def fix_features(features):
    """The FixedFeatures of three (C, Hs, Ws) feature maps, checked as coerce_inputs checks them."""
    f3, f4, f5 = fvals = coerce_features(features)
    # each scale alone through fuse_down's and fuse_up's chains, zero terms dropped; up block by block
    down = np.stack([fusion.downsample2x(fusion.downsample2x(f3) / 2.0) / 2.0,
                     fusion.downsample2x(f4 / 2.0) / 2.0, f5 / 2.0])
    up = np.empty((3,) + f3.shape)  # written in place, so at peak memory holds one (3C, H3*W3) copy
    up[0] = f3 / 2.0
    up[1] = fusion.upsample2x(f4 / 2.0) / 2.0
    up[2] = fusion.upsample2x(fusion.upsample2x(f5) / 2.0) / 2.0
    return FixedFeatures(fbars=_channel_means([fv.reshape(len(fv), -1) for fv in fvals]),
                         down=down.reshape(-1, f5[0].size), up=up.reshape(-1, f3[0].size),
                         grids=(f5.shape[1:], f3.shape[1:]))


@dataclass(frozen=True)
class TokenStep:
    """The fused maps, the losses, and the (P, Lmax, C) token-stack gradient, 0 on pad rows."""

    dw: np.ndarray
    up: np.ndarray
    l_sem: float
    l_geo: float
    total: float
    d_tok_stack: np.ndarray


def fixed_features_objective(fixed, tok_stack, valid_stack, masks, positives, cfg=ObjectiveConfig()):
    """The objective and its TokenStep at the FixedFeatures `fixed`, for a padded token
    stack and its validity stack as coerce_tokens gives them: dw = w.down, up = w.up
    and G = g_dw.down^T + g_up.up^T (module docstring), with forward's loss tail and
    backward's map gradients and token chain rule."""
    tok_stack, valid_stack = np.asarray(tok_stack, dtype=np.float64), np.asarray(valid_stack, dtype=bool)
    c = fixed.fbars.shape[1]
    _check_stack(tok_stack, valid_stack, c)
    n_prompts = tok_stack.shape[0]
    (h5, w5), (h3, w3) = fixed.grids
    masks, pos = _targets(masks, positives, (n_prompts, h3, w3))
    _, pi, w = _token_side(fixed.fbars, tok_stack, valid_stack, cfg.tau_t)  # scale axis first
    w = w.transpose(1, 0, 2).reshape(n_prompts, 3 * c)                    # [w3|w4|w5]
    out = _loss_tail((w @ fixed.down).reshape(n_prompts, h5, w5), (w @ fixed.up).reshape(n_prompts, h3, w3),
                     masks, pos, cfg)
    g_dw, g_up = _map_gradients(out["logits"], out["selections"], pos, out["dw"].shape, out["gaco"], cfg)
    big_g = g_dw.reshape(n_prompts, -1) @ fixed.down.T + g_up.reshape(n_prompts, -1) @ fixed.up.T
    big_g = big_g.reshape(n_prompts, 3, c).transpose(1, 0, 2)            # (3, P, C) blocks
    return TokenStep(dw=out["dw"], up=out["gaco"].up_map, l_sem=out["l_sem"], l_geo=out["gaco"].loss,
                     total=out["total"], d_tok_stack=_token_chain(tok_stack, pi, fixed.fbars, big_g, cfg.tau_t)[1])


def fused_maps(features, tokens, tau_t=1.0, token_valid=None):
    """Coarse and fine fused maps (dw, up) without touching the losses; tau_t is
    checked as ObjectiveConfig checks it."""
    ObjectiveConfig(tau_t=tau_t)
    fvals, tok_stack, valid_stack, _ = coerce_inputs(features, tokens, token_valid)
    eams = _head(fvals, tok_stack, valid_stack, tau_t)[3]
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
    """Finite-difference gradients of the objective under its stop-gradient rules, on FD_STENCIL.

    The base forward coerces the inputs once and fixes the advantage, which stays
    frozen at the base point, so the numeric gradient measures the same function
    the analytic pass differentiates. The perturbed points (each coordinate of the
    features and of each prompt's tokens, moved by each stencil offset) then go
    through the loss tail in batches of FD_CHUNK, grouped by the array they move:
    a feature point runs the head at its own scale and reuses the base maps of the
    other two, and a token point runs one head call, every scale, on its token stack.
    """
    base = forward(features, tokens, masks, positives, cfg, token_valid)
    h, pairs = FD_STENCIL["step"], FD_STENCIL["pairs"]
    offsets = np.array([sign * o * h for o, _ in pairs for sign in (1, -1)])  # x + o h, then x - o h, per pair
    arrays = base.fvals + [base.tok_stack]
    base_maps = [fv[None] for fv in base.fvals]  # a token point's features: the base maps on a unit batch axis
    grads = []
    for s, a in enumerate(arrays):
        coords = np.arange(a.size)
        if s == 3:  # each prompt's own tokens, not the stack's pad rows
            coords = np.concatenate([coords.reshape(a.shape)[p, :n].ravel() for p, n in enumerate(base.lengths)])
        point_coords, point_offsets = np.repeat(coords, offsets.size), np.tile(offsets, coords.size)
        values = np.empty(point_coords.size)
        for start in range(0, values.size, FD_CHUNK):
            stop = min(start + FD_CHUNK, values.size)
            x = np.tile(a.ravel(), (stop - start, 1))
            x[np.arange(stop - start), point_coords[start:stop]] += point_offsets[start:stop]
            x = x.reshape((-1,) + a.shape)
            if s < 3:
                eams = [np.broadcast_to(e, x.shape[:1] + e.shape) for e in base.eams]
                eams[s] = _head([x], base.tok_stack, base.valid_stack, cfg.tau_t)[3][0]
            else:
                eams = _head(base_maps, x, base.valid_stack, cfg.tau_t)[3]
            values[start:stop] = _losses(eams, base.gaco.masks, base.positives, cfg, base.gaco.adv)["total"]
        f = values.reshape(coords.size, len(pairs), 2)
        grad = np.zeros(a.size)
        grad[coords] = sum(w * (f[:, j, 0] - f[:, j, 1]) for j, (_, w) in enumerate(pairs))
        grads.append((grad / (FD_STENCIL["divisor"] * h)).reshape(a.shape))
    return GradientBundle(d_features=grads[:3], d_tokens=[grads[3][p, :n] for p, n in enumerate(base.lengths)],
                          l_sem=base.l_sem, l_geo=base.gaco.loss, total=base.total)


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
    score, c = tr.gaco.score, tr.gaco.cfg.clip  # score is None under a frozen advantage, which has no clip
    return {"topk": _order_gap(tr.dw.reshape(tr.dw.shape[0], -1), tr.k),  # k = N has no cut
            # ||z| - c| is min(|z - c|, |z + c|) to the bit, and np.min keeps a NaN
            "clip": np.inf if score is None else float(np.min(np.abs(np.abs(score) - c), initial=np.inf)),
            "token_argmax": _order_gap(np.where(tr.valid_stack, tr.sbars, -np.inf)),  # pads rank last
            "norm_argmax": _order_gap(np.abs(tr.gaco.up_map).ravel())}


def _order_gap(v, k=1):
    """The smallest, over the rows of v along its last axis, of a row's k-th largest value
    minus its (k+1)-th; inf when rows hold k values or fewer, else NaN when v holds a NaN
    (np.partition puts NaNs last, so past k = 1 both values it reads can be real) or a gap is NaN."""
    n = v.shape[-1]
    if k >= n:
        return np.inf
    if np.isnan(v).any():
        return np.nan
    part = np.partition(v, (n - k - 1, n - k), axis=-1)
    return float(np.min(part[..., n - k] - part[..., n - k - 1]))
