"""Deterministic synthetic scenes with planted prompt-region alignment.

Each positive prompt owns a rectangular region (snapped to the 4-cell grid so
every pyramid scale sees an exact rectangle) and a planted direction; the
positive directions form an orthonormal set. Features are isotropic noise plus
the direction scaled by the signal strength and a center-peaked profile whose
area mean is about 1, so the planted prompt-region inner product dominates in
expectation. Tokens carry the direction at a small fixed weight plus strong
distractor noise drawn orthogonal to every planted direction: localization is
poor until training amplifies the planted component. Negative prompts get
pure-distractor tokens, no region, and no signal.

The demo trains an additive token perturbation, the zero-initialized stand-in
for a text adapter that starts as the identity, by plain gradient descent on
the combined objective. The benchmark numbers below (grid, noise scales,
learning rate) were tuned once against the acceptance gates and frozen.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .eah import FeatureMap, TokenBatch
from .errors import DimensionError, DomainError
from .fusion import downsample2x
from .gaco import GacoConfig
from .gradients import ObjectiveConfig, coerce_tokens, fix_features, fixed_features_objective, fused_maps
from .gradients import objective_with_gradients  # noqa: F401 -- unused, but perfbench/tracing.py wraps it here

RNG_NAME = "numpy-pcg64"

# frozen desk-scale benchmark: weak signal, 10 seeds, tuned once
BENCHMARK_SEEDS = tuple(range(1, 11))
BENCHMARK_SIGNAL = 1.0
BENCHMARK_STEPS = 500
BENCHMARK_LR = 0.5
# every scene: feature noise std, token distractor norm, and the weight of the
# planted direction in the initial tokens
FEATURE_NOISE = 0.3
TOKEN_NOISE = 10.0
TOKEN_SIGNAL = 0.35


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    prompts: int = 4
    tokens: int = 4
    channels: int = 16
    height3: int = 24
    width3: int = 24
    signal: float = 1.0
    n_negatives: int = 1

    def __post_init__(self):
        if self.height3 % 4 or self.width3 % 4:
            raise DomainError(f"grid dims must be divisible by 4, got {self.height3}x{self.width3}")
        if self.prompts < 1 or self.tokens < 1 or self.channels < 1:
            raise DomainError("prompts, tokens, and channels must be positive")
        if not 0 <= self.n_negatives < self.prompts:
            raise DomainError("need at least one positive prompt")
        if self.n_positives > self.channels:
            raise DomainError("orthonormal planted directions need n_positives <= channels")
        if not np.isfinite(self.signal):
            raise DomainError(f"signal must be finite, got {self.signal}")
        if self.signal < 0:
            raise DomainError("signal and noise scales must be nonnegative")

    @property
    def n_positives(self):
        return self.prompts - self.n_negatives


@dataclass(frozen=True)
class Scene:
    features: tuple          # FeatureMap at scales 3, 4, 5, in that order
    tokens: tuple            # TokenBatch per prompt
    masks: np.ndarray        # (P, H3, W3) boolean; all-False rows for negatives
    positives: tuple
    directions: np.ndarray = None  # (P, C) planted directions, zero rows for negatives; None from a file


def region_profile(height, width):
    """Center-peaked weight over a rectangle, area mean ~1, peak 3.75, edge 0.45."""
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    yy, xx = np.mgrid[0:height, 0:width]
    dy = np.abs(yy - cy) / cy if height > 1 else np.zeros((height, width))
    dx = np.abs(xx - cx) / cx if width > 1 else np.zeros((height, width))
    d = np.maximum(dy, dx)
    return 0.45 + 3.3 * (1.0 - d) ** 2


def _auto_rects(rng, spec):
    """One (top, left, height, width) rectangle in cells per positive prompt, each
    inside its own tile of the 4-cell block grid."""
    n_pos = spec.n_positives
    nt = math.ceil(math.sqrt(n_pos))
    bh, bw = spec.height3 // 4, spec.width3 // 4  # grid in 4-cell blocks
    tbh, tbw = bh // nt, bw // nt
    if tbh < 2 or tbw < 2:
        raise DomainError(
            f"grid {spec.height3}x{spec.width3} too small to auto-place {n_pos} masks"
        )
    rects = []
    for i in range(n_pos):
        tr, tc = divmod(i, nt)
        h = int(rng.integers(2, tbh + 1))
        w = int(rng.integers(2, tbw + 1))
        oy = int(rng.integers(0, tbh - h + 1))
        ox = int(rng.integers(0, tbw - w + 1))
        rects.append(((tr * tbh + oy) * 4, (tc * tbw + ox) * 4, h * 4, w * 4))
    return rects


def generate_scene(spec):
    """Deterministic scene from the spec's seed (numpy PCG64 stream).

    Draw order is fixed: direction basis, mask rectangles, features for scales
    3/4/5, then tokens per prompt.
    """
    rng = np.random.default_rng(spec.seed)
    p, l, c = spec.prompts, spec.tokens, spec.channels
    h3, w3 = spec.height3, spec.width3
    n_pos = spec.n_positives

    basis, _ = np.linalg.qr(rng.standard_normal((c, n_pos)))
    directions = np.zeros((p, c))
    directions[:n_pos] = basis.T

    masks = np.zeros((p, h3, w3), dtype=bool)
    rects = _auto_rects(rng, spec)
    for i, (top, left, h, w) in enumerate(rects):
        masks[i, top:top + h, left:left + w] = True

    profiles = [None] * n_pos  # each region's profile at the scale being planted
    features = []
    for factor in (1, 2, 4):
        values = rng.standard_normal((c, h3 // factor, w3 // factor))
        values *= FEATURE_NOISE
        for i, (top, left, h, w) in enumerate(rects):  # zero signal outside the region, a rectangle at every scale
            profiles[i] = downsample2x(profiles[i]) if factor > 1 else region_profile(h, w)
            values[:, top // factor:(top + h) // factor, left // factor:(left + w) // factor] += (
                spec.signal * directions[i][:, None, None] * profiles[i][None, :, :])
        features.append(FeatureMap(values))

    span = directions[:n_pos]  # orthonormal rows
    tokens = []
    for i in range(p):
        emb = rng.standard_normal((l, c)) * (TOKEN_NOISE / math.sqrt(c))
        emb = emb - (emb @ span.T) @ span  # distractors orthogonal to every planted direction
        if i < n_pos:
            emb = emb + TOKEN_SIGNAL * directions[i][None, :]
        tokens.append(TokenBatch(emb, np.ones(l, dtype=bool)))

    return Scene(
        features=tuple(features), tokens=tuple(tokens), masks=masks,
        positives=tuple(range(n_pos)), directions=directions,
    )


def benchmark_config():
    """Objective configuration frozen for the demo: default loss weights with the
    max-abs sim normalization disabled, so alignment magnitudes can grow."""
    return ObjectiveConfig(gaco=GacoConfig(normalize=False))


def fine_maps(scene, token_delta=None, tau_t=1.0):
    """The scene's fine fused maps (P, H3, W3) at its tokens plus an optional
    per-prompt token perturbation, such as a trained demo delta."""
    tvals = [t.embeddings for t in scene.tokens]
    if token_delta is not None:
        if len(token_delta) != len(tvals) or any(np.shape(d) != t.shape for t, d in zip(tvals, token_delta)):
            raise DimensionError(f"token_delta needs one (L, C) entry per prompt, shaped "
                                 f"{[t.shape for t in tvals]}; got {[np.shape(d) for d in token_delta]}")
        tvals = [t + d for t, d in zip(tvals, token_delta)]
    return fused_maps([f.values for f in scene.features], tvals, tau_t, [t.valid for t in scene.tokens])[1]


def localization_accuracy(scene, token_delta=None, tau_t=1.0):
    """Fraction of masked prompts whose top fine-map cell lies inside their mask."""
    up = fine_maps(scene, token_delta, tau_t)
    hits = counted = 0
    for p in range(up.shape[0]):
        region = scene.masks[p]
        if not region.any():
            continue
        counted += 1
        if region.ravel()[int(np.argmax(up[p]))]:
            hits += 1
    if counted == 0:
        raise DomainError("no prompt has a mask; accuracy undefined")
    return hits / counted


@dataclass
class DemoReport:
    seed: int
    steps: int
    learning_rate: float
    initial_accuracy: float
    final_accuracy: float
    losses_sem: list
    losses_geo: list
    losses_total: list
    diverged: bool
    rng: str = RNG_NAME
    final_delta: np.ndarray = None  # trained token perturbation; not serialized

    def to_dict(self):
        """The JSON fields; a non-finite loss entry (a diverged run's last step) becomes None."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "final_delta"}
        for key in ("losses_sem", "losses_geo", "losses_total"):
            out[key] = [v if math.isfinite(v) else None for v in out[key]]
        return out


def demo_train(spec, steps=BENCHMARK_STEPS, learning_rate=BENCHMARK_LR, cfg=None):
    """Plain gradient descent on an additive per-prompt token perturbation.

    The perturbation starts at zero (identity behavior), receives dL/dT each
    step, and never touches the frozen base embeddings or features. The features
    are fused once (gradients.fix_features), so a step backpropagates to the
    tokens only. A non-finite loss stops the run and is reported, not raised.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if not (np.isfinite(learning_rate) and learning_rate >= 0):
        raise DomainError(f"learning_rate must be finite and nonnegative, got {learning_rate}")
    cfg = cfg or benchmark_config()
    scene = generate_scene(spec)
    fixed = fix_features([f.values for f in scene.features])
    tokens, valid, _ = coerce_tokens([t.embeddings for t in scene.tokens], [t.valid for t in scene.tokens],
                                     spec.channels)
    delta = np.zeros_like(tokens)

    acc0 = localization_accuracy(scene, delta, cfg.tau_t)
    losses_sem, losses_geo, losses_total = [], [], []
    diverged = False
    for _ in range(steps):
        step = fixed_features_objective(fixed, tokens + delta, valid, scene.masks, scene.positives, cfg)
        losses_sem.append(step.l_sem)
        losses_geo.append(step.l_geo)
        losses_total.append(step.total)
        if not np.isfinite(step.total):
            diverged = True
            break
        delta -= learning_rate * step.d_tok_stack
    acc1 = localization_accuracy(scene, delta, cfg.tau_t)

    return DemoReport(
        seed=spec.seed, steps=len(losses_total), learning_rate=learning_rate,
        initial_accuracy=acc0, final_accuracy=acc1,
        losses_sem=losses_sem, losses_geo=losses_geo, losses_total=losses_total,
        diverged=diverged, final_delta=delta,
    )


def benchmark_spec(seed, signal=BENCHMARK_SIGNAL):
    """The frozen weak-signal scene family used by the acceptance demo."""
    return SceneSpec(seed=seed, signal=signal)


def run_benchmark(seeds=BENCHMARK_SEEDS, steps=BENCHMARK_STEPS, learning_rate=BENCHMARK_LR,
                  signal=BENCHMARK_SIGNAL, cfg=None):
    """Train every benchmark seed; returns per-seed reports plus mean accuracies."""
    if len(seeds) == 0:
        raise DomainError("run_benchmark needs at least one seed")
    reports = [demo_train(benchmark_spec(s, signal), steps, learning_rate, cfg) for s in seeds]
    return {
        "seeds": list(seeds),
        "mean_initial_accuracy": float(np.mean([r.initial_accuracy for r in reports])),
        "mean_final_accuracy": float(np.mean([r.final_accuracy for r in reports])),
        "runs": reports,
    }
