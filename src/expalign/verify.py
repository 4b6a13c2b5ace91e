"""Property suites behind the verify/gibbs/mil/gradcheck commands.

Every check draws its own deterministic RNG stream from (base seed, check
index), computes a residual, and passes iff residual <= tolerance. Expected
values marked by hand derivations are frozen constants; everything else is
compared against an independent oracle (loop evaluation, sort, closed form,
finite differences).

FAULTS is the mutation sanity check: a table of named library faults. Each
row holds the check group the fault must fail and its edits
(function, old, new), each a one-line edit of the library's own source.
run_suite(fault=name) compiles each function's source with the one occurrence
of old replaced by new and swaps the result in as the function's __code__, so
every binding of the function, by-name imports included, runs the fault; the
original code is restored in a finally. A check that raises is a failed
check, with residual NaN and the exception in its detail, and the checks
after it still run. Sources are read only when a fault is planted. A new
mutant is one row.
"""

import inspect
import math
import types
from dataclasses import dataclass

import numpy as np

from . import fusion, gaco, gradients, semantic, variational
from .errors import DomainError
from .gradients import (
    ObjectiveConfig,
    finite_difference_gradient,
    forward,
    nondegeneracy_margins,
    objective_fd_gradients,
    objective_with_gradients,
    relative_gradient_error,
)

GRADCHECK_MARGIN = 1e-2
# seeds find_gradcheck_cases draws for one case before it gives up; at most 6 in a
# row were rejected from 120 random base seeds at the default config and from 24 at
# each grad_config_sweep config
GRADCHECK_DRAWS = 1000

# hand-derived worked values (frozen; see module examples in the tests)
SEM_TWO_PROMPT_VALUE = 0.3132616875182228     # log(1 + e^-1)
SEM_THREE_PROMPT_VALUE = 1.0986122886681098   # log 3
GACO_CHAIN_VALUE = -0.5493061443340549        # -(1/2) log 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    group: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


_CHECKS = []


def _register(name, group, tolerance):
    def deco(fn):
        _CHECKS.append((name, group, tolerance, fn))
        return fn
    return deco


def _worst(*residuals):
    """Largest residual, as Python's max picks it, or NaN if any residual is NaN:
    max(worst, nan) returns worst, so a NaN residual would pass its check."""
    if any(r != r for r in residuals):
        return math.nan
    return max(residuals)


def _random_pyramid(rng):
    return rng.normal(size=(2, 8, 8)), rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 2, 2))


# ---------------------------------------------------------------- fusion

@_register("fusion_linearity", "fusion", 1e-10)
def _fusion_linearity(rng):
    worst = 0.0
    for _ in range(5):
        p = _random_pyramid(rng)
        q = _random_pyramid(rng)
        a = rng.normal()
        for fuse in (fusion.fuse_down, fusion.fuse_up):
            lhs = fuse(*(a * x + y for x, y in zip(p, q)))
            rhs = a * fuse(*p) + fuse(*q)
            worst = _worst(worst, float(np.abs(lhs - rhs).max()))
    return worst, "fuse(a*p + q) vs a*fuse(p) + fuse(q)"


@_register("fusion_constant_preservation", "fusion", 1e-12)
def _fusion_constant(rng):
    a, b, c = rng.normal(size=3)
    ones = lambda h: np.ones((1, h, h))
    down = fusion.fuse_down(a * ones(8), b * ones(4), c * ones(2))
    up = fusion.fuse_up(a * ones(8), b * ones(4), c * ones(2))
    r1 = float(np.abs(down - ((a + b) / 2 + c) / 2).max())
    r2 = float(np.abs(up - ((c + b) / 2 + a) / 2).max())
    return _worst(r1, r2), "constants against the closed formulas"


@_register("fusion_roundtrip", "fusion", 1e-12)
def _fusion_roundtrip(rng):
    m = rng.normal(size=(3, 6, 10))
    return float(np.abs(fusion.downsample2x(fusion.upsample2x(m)) - m).max()), "down(up(m)) = m"


# ------------------------------------------------------------------- eah
# The eah and mil checks run the head the loss runs, gradients._head, one prompt
# at a time, against _loop_head's per-cell evaluation.

def _draw_head_inputs(rng, h, w, l, c=4):
    """(C, H, W) features and (L, C) tokens whose similarities are standard normal."""
    return rng.normal(size=(c, h, w)), rng.normal(size=(l, c)) / math.sqrt(c)


def _prompt_head(features, tokens, valid, tau_t=1.0):
    """gradients._head on one prompt at one scale: its posterior (L,) and its map (H, W)."""
    _, pi, _, (eam,), _ = gradients._head([features], tokens[None], valid[None], tau_t)
    return pi[0, 0], eam[0]


def _loop_head(features, tokens, valid, tau_t=1.0):
    """The head one cell at a time: sim[x, y] = T @ F[:, x, y], the softmax over
    valid tokens of sim's spatial mean, and the map pi @ sim[x, y]; returns
    (sim (H, W, L), pi (L,), map (H, W))."""
    _, h, w = features.shape
    sim = np.array([[tokens @ features[:, x, y] for y in range(w)] for x in range(h)])
    logits = sim.mean(axis=(0, 1))[valid] / tau_t
    # its own softmax, not variational.gibbs: the oracle stays independent of the head it checks
    e = np.exp(logits - logits.max())
    pi = np.zeros(len(tokens))
    pi[valid] = e / e.sum()
    return sim, pi, sim @ pi


@_register("eah_posterior_normalization", "eah", 1e-12)
def _eah_norm(rng):
    valid = np.array([True, False, True, True, False, True])
    pi, _ = _prompt_head(*_draw_head_inputs(rng, 5, 7, 6), valid, tau_t=0.7)
    residual = abs(float(pi.sum()) - 1.0)
    residual = _worst(residual, float(np.abs(pi[~valid]).max()))
    return residual, "weights sum to 1; pad weights exactly 0"


@_register("eah_temperature_limits", "eah", 1e-5)
def _eah_limits(rng):
    features, tokens = _draw_head_inputs(rng, 4, 4, 5)
    valid = np.array([True, True, True, True, False])
    sim, _, _ = _loop_head(features, tokens, valid)
    hot, eam_hot = _prompt_head(features, tokens, valid, tau_t=1e6)
    r = float(np.abs(hot - valid / valid.sum()).max())
    r = _worst(r, float(np.abs(eam_hot - sim[:, :, valid].mean(axis=2)).max()))
    cold, eam_cold = _prompt_head(features, tokens, valid, tau_t=1e-6)
    best = int(np.argmax(np.where(valid, sim.mean(axis=(0, 1)), -np.inf)))
    r = _worst(r, float(np.abs(cold - np.eye(5)[best]).max()))
    r = _worst(r, float(np.abs(eam_cold - sim[:, :, best]).max()))
    return r, "tau -> inf gives the token mean, tau -> 0 the argmax token map"


@_register("eah_constant_shift", "eah", 1e-10)
def _eah_shift(rng):
    features, tokens = _draw_head_inputs(rng, 3, 5, 4)
    valid = np.ones(4, dtype=bool)
    k = float(rng.normal())
    # a channel of ones in the features, weighted k in every token, adds k to every similarity
    shifted = _prompt_head(np.concatenate([features, np.ones((1, 3, 5))]),
                           np.hstack([tokens, np.full((4, 1), k)]), valid)[1]
    return float(np.abs(shifted - _prompt_head(features, tokens, valid)[1] - k).max()), \
        "adding k to every similarity shifts the map by k"


@_register("eah_token_permutation", "eah", 1e-12)
def _eah_perm(rng):
    features, tokens = _draw_head_inputs(rng, 4, 6, 5)
    valid = np.array([True, True, False, True, True])
    base = _prompt_head(features, tokens, valid)[1]
    perm = rng.permutation(5)
    permuted = _prompt_head(features, tokens[perm], valid[perm])[1]
    return float(np.abs(permuted - base).max()), "token reorder with its mask leaves the map unchanged"


# ------------------------------------------------------------------- sem

@_register("sem_shift_invariance", "sem", 1e-10)
def _sem_shift(rng):
    logits = rng.normal(size=6)
    k = float(rng.normal()) * 3
    base = semantic.infonce_multi_positive(logits, [0, 2], tau=0.25)
    return abs(semantic.infonce_multi_positive(logits + k, [0, 2], tau=0.25) - base), ""


@_register("sem_temperature_absorption", "sem", 1e-10)
def _sem_absorb(rng):
    logits = rng.normal(size=5)
    a = float(np.exp(rng.normal()))
    base = semantic.infonce_multi_positive(logits, [1], tau=0.5)
    return abs(semantic.infonce_multi_positive(a * logits, [1], tau=0.5 * a) - base), ""


@_register("sem_single_prompt_zero", "sem", 0.0)
def _sem_single(rng):
    return abs(semantic.infonce_multi_positive(np.array([rng.normal()]), [0], tau=0.25)), "P = 1 gives exactly 0"


@_register("sem_worked_examples", "sem", 1e-6)
def _sem_worked(rng):
    r1 = abs(semantic.infonce_multi_positive(np.array([1.0, 0.0]), [0], tau=1.0) - SEM_TWO_PROMPT_VALUE)
    v = float(rng.normal())
    r2 = abs(semantic.infonce_multi_positive(np.array([v, v, v]), [0, 1], tau=1.0) - SEM_THREE_PROMPT_VALUE)
    return _worst(r1, r2), "frozen hand-derived contrastive values"


@_register("sem_topk_spatial_permutation", "sem", 1e-12)
def _sem_perm(rng):
    m = rng.normal(size=24)
    k = 5
    base = semantic.pooled_logit(m, semantic.topk_select(m, k))
    perm = rng.permutation(24)
    return abs(semantic.pooled_logit(m[perm], semantic.topk_select(m[perm], k)) - base), ""


@_register("sem_positive_monotonicity", "sem", -1e-12)
def _sem_mono(rng):
    logits = rng.normal(size=4)
    before = semantic.infonce_multi_positive(logits, [1], tau=0.25)
    logits2 = logits.copy()
    logits2[1] += 0.1
    after = semantic.infonce_multi_positive(logits2, [1], tau=0.25)
    return after - before, "raising a positive logit strictly lowers the loss"


@_register("sem_nonnegative", "sem", 0.0)
def _sem_nonneg(rng):
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        pos = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        val = semantic.infonce_multi_positive(rng.normal(size=n) * 3, pos, tau=0.3)
        worst = _worst(worst, -val)
    return worst, "loss never negative"


# ------------------------------------------------------------------ gaco

@_register("gaco_prob_normalization", "gaco", 1e-10)
def _gaco_norm(rng):
    probs = np.exp(gaco.log_joint_softmax(rng.normal(size=(3, 4, 4)) * 3))
    return abs(float(probs.sum()) - 1.0), ""


@_register("gaco_shift_invariance", "gaco", 1e-10)
def _gaco_shift(rng):
    m = rng.normal(size=(2, 4, 4))
    k = float(rng.normal()) * 5
    return float(np.abs(np.exp(gaco.log_joint_softmax(m + k)) - np.exp(gaco.log_joint_softmax(m))).max()), \
        "the pair distribution ignores additive shifts"


@_register("gaco_zero_mean_advantage", "gaco", 1e-8)
def _gaco_zero_mean(rng):
    cfg = gaco.GacoConfig(clip=1e6, eps=1e-12, normalize=False)
    m = rng.normal(size=(3, 8, 8))
    masks = rng.random(size=(3, 8, 8)) < 0.4
    masks[1] = False  # one empty region must be skipped, not crash
    res = gaco.gaco_forward(m, masks, cfg)
    worst = 0.0
    for p in range(3):
        if masks[p].any():
            worst = _worst(worst, abs(float(res.adv[p][masks[p]].sum())))
    return worst, "per-region advantage sums to zero without clipping"


@_register("gaco_bounds", "gaco", 0.0)
def _gaco_bounds(rng):
    cfg = gaco.GacoConfig(clip=2.0)
    m = rng.normal(size=(2, 6, 6)) * 4
    masks = rng.random(size=(2, 6, 6)) < 0.5
    # prompt 1's region is one row of six cells, five equal and one larger: the
    # larger one's standardized confidence is about sqrt(5), past the clip at every seed
    masks[1] = False
    masks[1, 0] = True
    m[1, 0] = 0.0
    m[1, 0, rng.integers(6)] = np.abs(m).max()
    res = gaco.gaco_forward(m, masks, cfg)
    conf = gaco.confidence(gaco.normalize_sim(m, cfg.eps))  # every cell, not only the masked ones
    viol = _worst(0.0, float(np.abs(res.adv).max()) - cfg.clip)
    viol = _worst(viol, float((conf <= 0).sum() + (conf >= 1).sum()))
    return viol, "|A| <= clip and confidence strictly inside (0, 1)"


@_register("gaco_worked_example", "gaco", 1e-5)
def _gaco_worked(rng):
    m = np.array([[[0.0, math.log(3.0)]]])
    masks = np.ones((1, 1, 2), dtype=bool)
    cfg = gaco.GacoConfig(clip=3.0, eps=1e-12, normalize=False)
    loss = gaco.gaco_forward(m, masks, cfg).loss
    return abs(loss - GACO_CHAIN_VALUE), "frozen hand-derived chain value"


@_register("gaco_gradient_sign", "gaco", 1e-6)
def _gaco_sign(rng):
    # single masked location with a (frozen) positive advantage: the backward
    # pass must match central differences, and descent must raise that logit
    m = rng.normal(size=(1, 2, 2))
    masks = np.zeros((1, 2, 2), dtype=bool)
    masks[0, 0, 0] = True
    cfg = gaco.GacoConfig(clip=3.0, eps=1e-6, normalize=False)
    adv = np.zeros((1, 2, 2))
    adv[0, 0, 0] = 1.3
    analytic = gaco.gaco_backward(gaco.gaco_forward(m, masks, cfg, frozen_adv=adv), 1.0)
    loss = lambda x: gaco.gaco_forward(x, masks, cfg, frozen_adv=adv).loss
    fd = finite_difference_gradient(loss, m, h=1e-6)
    residual = float(np.abs(analytic - fd).max())
    if analytic[0, 0, 0] >= 0:  # gradient descent must raise a positively weighted logit
        residual = _worst(residual, float(analytic[0, 0, 0]) + 1.0)
    return residual, "masked-logit derivative matches central differences and is negative"


@_register("gaco_rank_pattern_invariance", "gaco", 0.0)
def _gaco_ranks(rng):
    # Increasing transforms of the map preserve the within-region ordering of
    # the advantage (standardization is affine, the sigmoid increasing); the
    # sign of every cell is not preserved because cells can cross the region
    # mean, but the extremes keep theirs.
    cfg = gaco.GacoConfig(clip=1e6, normalize=False)
    m = rng.normal(size=(2, 6, 6))
    masks = rng.random(size=(2, 6, 6)) < 0.5
    base = gaco.gaco_forward(m, masks, cfg).adv
    mismatches = 0
    for transform in (lambda x: 2.0 * x, lambda x: x + 1.0):
        other = gaco.gaco_forward(transform(m), masks, cfg).adv
        for p in range(2):
            a, b = base[p][masks[p]], other[p][masks[p]]
            if a.size < 2:
                continue
            mismatches += int((np.argsort(a, kind="stable") != np.argsort(b, kind="stable")).sum())
            mismatches += int(np.sign(a[np.argmax(a)]) != np.sign(b[np.argmax(b)]))
            mismatches += int(np.sign(a[np.argmin(a)]) != np.sign(b[np.argmin(b)]))
    return float(mismatches), "advantage ranking and extreme signs survive increasing transforms"


# ----------------------------------------------------------------- gibbs

def _random_problem(rng, n=None):
    n = n or int(rng.integers(2, 65))
    return variational.GibbsProblem(
        energy=rng.normal(size=n),
        geometry=rng.normal(size=n) * (rng.random(size=n) < 0.5),
        tau=float(np.exp(rng.normal() * 0.3)),
        lam=float(np.abs(rng.normal())),
    )


@_register("gibbs_closed_vs_numeric", "gibbs", 1e-8)
def _gibbs_numeric(rng):
    worst = 0.0
    for _ in range(10):
        prob = _random_problem(rng)
        closed = variational.gibbs_closed_form(prob)
        res = variational.minimize_free_energy_numeric(prob, max_iters=500, tol=1e-14)
        worst = _worst(worst, abs(variational.kl_divergence(res.q, closed)))  # a wrong KL can go negative
    return worst, "|KL(numeric || closed)| at convergence"


@_register("gibbs_optimality", "gibbs", 1e-12)
def _gibbs_opt(rng):
    worst = -np.inf
    for _ in range(5):
        prob = _random_problem(rng, n=12)
        f_star = variational.free_energy(variational.gibbs_closed_form(prob), prob)
        qs = variational.random_simplex(rng, prob.size, count=200)
        worst = _worst(worst, f_star - float(variational.free_energy(qs, prob).min()))
    return _worst(0.0, worst), "closed form never beaten by random simplex points"


@_register("gibbs_shift_invariance", "gibbs", 1e-12)
def _gibbs_shift(rng):
    prob = _random_problem(rng, n=16)
    k = float(rng.normal()) * 10
    shifted = variational.GibbsProblem(prob.energy + k, prob.geometry, prob.tau, prob.lam)
    return float(np.abs(variational.gibbs_closed_form(shifted) - variational.gibbs_closed_form(prob)).max()), ""


@_register("gibbs_temperature_absorption", "gibbs", 1e-12)
def _gibbs_absorb(rng):
    e = rng.normal(size=12)
    a = float(np.exp(rng.normal()))
    q1 = variational.gibbs_closed_form(variational.GibbsProblem(a * e, tau=a))
    q2 = variational.gibbs_closed_form(variational.GibbsProblem(e, tau=1.0))
    return float(np.abs(q1 - q2).max()), "Q*(aE, tau=a) = Q*(E, tau=1)"


@_register("gibbs_uniform_limit", "gibbs", 1e-6)
def _gibbs_uniform(rng):
    prob = variational.GibbsProblem(rng.normal(size=20), tau=1e8)
    return float(np.abs(variational.gibbs_closed_form(prob) - 1.0 / prob.size).max()), "tau = 1e8"


@_register("gibbs_argmax_limit", "gibbs", 1e-6)
def _gibbs_argmax(rng):
    e = rng.normal(size=20)
    lam = float(np.abs(rng.normal()))
    a = rng.normal(size=20) * (rng.random(size=20) < 0.5)
    prob = variational.GibbsProblem(e, a, tau=1e-6, lam=lam)
    q = variational.gibbs_closed_form(prob)
    best = int(np.argmin(e - lam * a))
    return 1.0 - float(q[best]), "tau = 1e-6 concentrates on the effective-energy minimizer"


@_register("gibbs_matches_joint_softmax", "gibbs", 1e-12)
def _gibbs_softmax(rng):
    up_map = rng.normal(size=(2, 4, 4))
    adv = rng.normal(size=(2, 4, 4)) * (rng.random(size=(2, 4, 4)) < 0.4)
    lam = 0.7
    prob = variational.GibbsProblem(-up_map, adv, tau=1.0, lam=lam)
    q = variational.gibbs_closed_form(prob)
    return float(np.abs(q - np.exp(gaco.log_joint_softmax(up_map + lam * adv))).max()), \
        "E = -map recovers the geometry-shifted pair distribution"


@_register("free_energy_uniform_reference", "gibbs", 1e-12)
def _fe_uniform(rng):
    prob = _random_problem(rng, n=24)
    u = np.full(prob.size, 1.0 / prob.size)
    expected = float(prob.energy.mean() - prob.lam * prob.geometry.mean())
    return abs(variational.free_energy(u, prob) - expected), "KL term vanishes at the reference"


# ------------------------------------------------------------------- mil

@_register("mil_equivalence", "mil", 1e-12)
def _mil_equiv(rng):
    worst = 0.0
    for _ in range(25):
        h, w, l = (int(rng.integers(1, 9)) for _ in range(3))
        features, tokens = _draw_head_inputs(rng, h, w, l)
        valid = rng.random(size=l) < 0.8
        if not valid.any():
            valid[0] = True
        pi, eam = _prompt_head(features, tokens, valid)
        sim, _, _ = _loop_head(features, tokens, valid)
        worst = _worst(worst, float(np.abs(sim.reshape(-1, l) @ pi - eam.ravel()).max()))
    return worst, "instance scores equal the flattened expectation map"


@_register("mil_bag_permutation", "mil", 1e-12)
def _mil_perm(rng):
    scores = rng.normal(size=30)
    k = 7
    base = semantic.pooled_logit(scores, semantic.topk_select(scores, k))
    shuffled = scores[rng.permutation(30)]
    return abs(semantic.pooled_logit(shuffled, semantic.topk_select(shuffled, k)) - base), ""


@_register("mil_pooling_limits", "mil", 1e-12)
def _mil_limits(rng):
    scores = rng.normal(size=17)
    r = abs(semantic.pooled_logit(scores, semantic.topk_select(scores, 1)) - scores.max())
    r = _worst(r, abs(semantic.pooled_logit(scores, semantic.topk_select(scores, 17)) - scores.mean()))
    return r, "k = 1 is max pooling, k = N is mean pooling"


@_register("mil_posterior_set_invariance", "mil", 1e-12)
def _mil_set(rng):
    features, tokens = _draw_head_inputs(rng, 5, 4, 6)
    valid = np.ones(6, dtype=bool)
    perm = rng.permutation(20)
    shuffled = features.reshape(4, -1)[:, perm].reshape(4, 5, 4)
    pi = _prompt_head(features, tokens, valid)[0]
    return float(np.abs(_prompt_head(shuffled, tokens, valid)[0] - pi).max()), \
        "posterior depends on the instance set only"


# ------------------------------------------------------------------ grad

@_register("grad_quadratic", "grad", 1e-7)
def _grad_quad(rng):
    g = finite_difference_gradient(lambda x: float(x[0] ** 2), np.array([3.0]))
    return abs(float(g[0]) - 6.0), "f(x) = x^2 at 3"


@_register("grad_free_energy", "grad", 1e-6)
def _grad_fe(rng):
    prob = variational.GibbsProblem(energy=rng.normal(size=8), geometry=rng.normal(size=8),
                                    tau=0.9, lam=0.5)
    q = variational.random_simplex(rng, 8)[0]
    q = 0.3 * q + 0.7 / 8  # interior point: entropy curvature stays mild for the differences
    analytic = variational.free_energy_gradient(q, prob)
    e_eff, log_u = prob.effective_energy(), np.log(1.0 / prob.size)  # off the simplex: no simplex check
    numeric = finite_difference_gradient(lambda x: variational._free_energies(x, e_eff, prob.tau, log_u), q)
    proj = lambda g: g - g.mean()  # tangent space of the sum constraint
    return float(np.abs(proj(analytic) - proj(numeric)).max()), "projected free-energy gradient"


def sample_gradcheck_case(seed, cfg=ObjectiveConfig()):
    """One random objective input under cfg, or None unless every margin is at least GRADCHECK_MARGIN."""
    rng = np.random.default_rng(seed)
    c, h3 = 3, 8
    features = [rng.normal(size=(c, h3 // f, h3 // f)) for f in (1, 2, 4)]
    tokens = [rng.normal(size=(4, c)) * 0.6 for _ in range(2)]
    valid = [np.array([True, True, True, False]), np.ones(4, dtype=bool)]
    masks = np.zeros((2, h3, h3), dtype=bool)
    for p in range(2):
        top, left = rng.integers(0, 5, size=2)
        masks[p, top:top + 3, left:left + 3] = True
    positives = [0] if rng.random() < 0.5 else [0, 1]
    tr = forward(features, tokens, masks, positives, cfg, valid)
    # not min(...) < GRADCHECK_MARGIN: that lets a NaN margin through
    if not all(m >= GRADCHECK_MARGIN for m in nondegeneracy_margins(tr).values()):
        return None
    return {"features": features, "tokens": tokens, "valid": valid,
            "masks": masks, "positives": positives, "cfg": cfg}


def find_gradcheck_cases(count, base_seed=1000, cfg=ObjectiveConfig()):
    """Deterministically scan seeds until `count` non-degenerate cases under cfg are
    found; DomainError once GRADCHECK_DRAWS seeds in a row are rejected."""
    cases, seed, first = [], base_seed, base_seed  # first: the first seed drawn for the next case
    while len(cases) < count:
        if seed - first == GRADCHECK_DRAWS:
            raise DomainError(f"no gradcheck case clears the margins in seeds {first} to {seed - 1}")
        case = sample_gradcheck_case(seed, cfg)
        seed += 1
        if case is not None:
            cases.append(case)
            first = seed
    return cases


def run_gradcheck_case(case):
    analytic = objective_with_gradients(case["features"], case["tokens"], case["masks"],
                                        case["positives"], case["cfg"], case["valid"])
    numeric = objective_fd_gradients(case["features"], case["tokens"], case["masks"],
                                     case["positives"], case["cfg"], case["valid"])
    return relative_gradient_error(analytic, numeric), analytic


@_register("grad_full_objective", "grad", 1e-5)
def _grad_full(rng):
    worst = 0.0  # the CLI suite samples a few configs; the acceptance suite runs 20
    for case in find_gradcheck_cases(3, base_seed=int(rng.integers(0, 2**31))):
        err, _ = run_gradcheck_case(case)
        worst = _worst(worst, err)
    return worst, "analytic vs central differences on non-degenerate configs"


@_register("grad_pad_token_zero", "grad", 0.0)
def _grad_pads(rng):
    case = find_gradcheck_cases(1, base_seed=int(rng.integers(0, 2**31)))[0]
    bundle = objective_with_gradients(case["features"], case["tokens"], case["masks"],
                                      case["positives"], case["cfg"], case["valid"])
    worst = 0.0
    for p, v in enumerate(case["valid"]):
        if (~v).any():
            worst = _worst(worst, float(np.abs(bundle.d_tokens[p][~v]).max()))
    return worst, "pad-token rows receive exactly zero gradient"


# ----------------------------------------------------- registered last
# These checks come after every other one, so that the (seed, index) RNG
# streams of the checks above stay as they were.

@_register("sem_topk_tie_rule", "sem", 0.0)
def _sem_ties(rng):
    m = rng.integers(0, 4, size=(4, 6)).astype(np.float64)  # many ties
    values = m.ravel().tolist()
    by_rank = sorted(range(len(values)), key=lambda i: (-values[i], i))
    mismatches = 0
    for k in range(1, len(values) + 1):
        mismatches += int((semantic.topk_select(m, k) != sorted(by_rank[:k])).sum())
    return float(mismatches), "ties keep the lowest index: the first k of a sort on (-value, index)"


@_register("gaco_region_stats_closed_forms", "gaco", 1e-12)
def _gaco_stats(rng):
    eps = 0.1  # large enough that eps inside and outside the root differ
    worst = 0.0
    for size in rng.integers(1, 13, size=3):
        vals = rng.random(size=int(size))  # confidences lie in (0, 1)
        var = float(np.var(vals))
        for std_mode, sigma in (("population", math.sqrt(var + eps)), ("std_plus_eps", math.sqrt(var) + eps)):
            mu, got = gaco.region_stats(vals, eps, std_mode)
            worst = _worst(worst, abs(mu - float(np.mean(vals))), abs(got - sigma))
    return worst, "sqrt(var + eps) and sqrt(var) + eps at eps = 0.1"


def _directional_error(case, rng):
    """Analytic directional derivatives of the objective along the gradient and
    two random directions against central differences with the advantage
    frozen at the base point, relative to the gradient's norm."""
    args = (case["masks"], case["positives"], case["cfg"], case["valid"])
    points = case["features"] + case["tokens"]
    tr = forward(case["features"], case["tokens"], *args)
    bundle = gradients.backward(tr)
    g = np.concatenate([d.ravel() for d in bundle.d_features + bundle.d_tokens])
    gnorm = float(np.linalg.norm(g))
    dirs = np.vstack([g / gnorm, rng.normal(size=(2, g.size))])
    dirs[1:] /= np.linalg.norm(dirs[1:], axis=1, keepdims=True)
    splits = np.cumsum([np.size(p) for p in points])[:-1]

    def value(t):
        moved = [p + d.reshape(p.shape) for p, d in zip(points, np.split(t @ dirs, splits))]
        return forward(moved[:3], moved[3:], *args, frozen_adv=tr.gaco.adv).total

    numeric = finite_difference_gradient(value, np.zeros(len(dirs)))
    return float(np.abs(numeric - dirs @ g).max()) / gnorm


@_register("grad_config_sweep", "grad", 1e-6)
def _grad_sweep(rng):
    # at the default config tau_t = 1 and k = 1 on these inputs, which hides a
    # dropped / tau_t or a top-k gradient put on one cell
    worst = 0.0
    for normalize in (True, False):
        for std_mode in gaco.STD_MODES:
            cfg = ObjectiveConfig(tau_t=0.5, tau=0.4, topk_ratio=0.05,
                                  gaco=gaco.GacoConfig(eps=0.1, normalize=normalize, std_mode=std_mode))
            case = find_gradcheck_cases(1, base_seed=int(rng.integers(0, 2**31)), cfg=cfg)[0]
            worst = _worst(worst, _directional_error(case, rng))
    return worst, "directional derivatives at tau_t, tau, k and eps off their defaults"


@_register("eah_map_loop_oracle", "eah", 1e-12)
def _eah_map_loop(rng):
    features, tokens = _draw_head_inputs(rng, 5, 6, 4)
    valid = np.array([True, True, False, True])
    tau_t = float(np.exp(rng.normal() * 0.3))
    pi, eam = _prompt_head(features, tokens, valid, tau_t)
    _, pi_loop, eam_loop = _loop_head(features, tokens, valid, tau_t)
    return _worst(float(np.abs(pi - pi_loop).max()), float(np.abs(eam - eam_loop).max())), \
        "sum_l pi_l * sim[:, :, l] as a loop"


@_register("grad_fixed_features", "grad", 1e-12)
def _grad_fixed(rng):
    features = [rng.normal(size=(3, 8 // f, 8 // f)) for f in (1, 2, 4)]
    tokens, masks = [rng.normal(size=(4, 3)), rng.normal(size=(2, 3))], rng.random(size=(2, 8, 8)) < 0.3
    tr = forward(features, tokens, masks, [0], ObjectiveConfig(), [np.array([True, True, False, True]), None])
    got = gradients.fixed_features_objective(gradients.fix_features(features), tr.tok_stack, tr.valid_stack,
                                             masks, [0])
    pairs = ((got.dw, tr.dw), (got.up, tr.gaco.up_map),
             (np.array([got.l_sem, got.l_geo, got.total]), np.array([tr.l_sem, tr.gaco.loss, tr.total])),
             (np.concatenate([got.d_tok_stack[0], got.d_tok_stack[1, :2]]),
              np.concatenate(gradients.backward(tr).d_tokens)))  # prompt 1's rows 2 and 3 are padding
    return _worst(*(float(np.abs(a - b).max() / np.abs(b).max()) for a, b in pairs)), \
        "fixed-features maps, losses and token gradients against forward and backward"


@_register("gaco_advantage_loop_oracle", "gaco", 1e-12)
def _gaco_adv_loop(rng):
    m = rng.normal(size=(3, 6, 6))
    masks = rng.random(size=(3, 6, 6)) < 0.5
    scale = float(np.abs(m).max())
    worst = 0.0
    for std_mode in gaco.STD_MODES:
        cfg = gaco.GacoConfig(clip=1.5, eps=0.1, std_mode=std_mode)  # clips some cells; eps sets the two modes apart
        adv = gaco.gaco_forward(m, masks, cfg).adv
        for p in range(3):
            conf = [1.0 / (1.0 + math.exp(-x / (scale + cfg.eps))) for x in m[p][masks[p]]]
            if not conf:
                continue
            mu = sum(conf) / len(conf)
            var = sum((c - mu) ** 2 for c in conf) / len(conf)
            sigma = math.sqrt(var + cfg.eps) if std_mode == "population" else math.sqrt(var) + cfg.eps
            loop = [min(max((c - mu) / sigma, -cfg.clip), cfg.clip) for c in conf]
            worst = _worst(worst, float(np.abs(adv[p][masks[p]] - loop).max()))
    return worst, "masked advantages against a per-cell sigmoid, region statistics and clip"


@_register("fusion_block_loop_oracle", "fusion", 1e-12)
def _fusion_blocks(rng):
    worst = 0.0
    for width in (6, 2):  # downsample2x's general branch, then its two-column one
        m = rng.normal(size=(2, 4, width))
        down, up = np.empty((2, 2, width // 2)), np.empty((2, 8, 2 * width))
        for c, i, j in np.ndindex(down.shape):
            down[c, i, j] = sum(m[c, 2 * i + a, 2 * j + b] for a in (0, 1) for b in (0, 1)) / 4.0
        for c, i, j in np.ndindex(m.shape):
            up[c, 2 * i:2 * i + 2, 2 * j:2 * j + 2] = m[c, i, j]
        worst = _worst(worst, float(np.abs(fusion.downsample2x(m) - down).max()),
                       float(np.abs(fusion.upsample2x(m) - up).max()))
    return worst, "2x2 block means and 2x replication against per-block loops"


@_register("fused_maps_matches_forward", "fusion", 0.0)
def _fused_maps_forward(rng):
    features = [rng.normal(size=(3, 8 // f, 8 // f)) for f in (1, 2, 4)]
    tokens = [rng.normal(size=(4, 3)), rng.normal(size=(2, 3))]
    tr = forward(features, tokens, rng.random(size=(2, 8, 8)) < 0.3, [0], ObjectiveConfig(tau_t=0.6))
    pairs = zip(gradients.fused_maps(features, tokens, tau_t=0.6), (tr.dw, tr.gaco.up_map))
    return _worst(*(float(np.abs(a - b).max()) for a, b in pairs)), "fused_maps against forward's dw and up_map"


# ---------------------------------------------------------------- faults

# name -> (group it must fail, edits (function, old, new))
FAULTS = {
    "gaco-sign": ("gaco", ((gaco.gaco_forward, "loss = -(", "loss = ("),
                           (gaco.gaco_backward, "np.negative(", "np.positive("))),
    "fusion-max-pool": ("fusion", ((fusion.downsample2x, "return ((a00 + a01) + (a10 + a11)) / 4.0",
                                    "return np.maximum(np.maximum(a00, a01), np.maximum(a10, a11))"),)),
    "fusion-block-a10-twice": ("fusion", ((fusion.downsample2x, "(a10 + a11)", "(a10 + a10)"),)),
    "eah-map-scaled-1e-9": ("eah", ((gradients._head, "(ws @ flat)", "(ws @ flat * (1 + 1e-9))"),)),
    "eah-map-offset-1e-9": ("eah", ((gradients._head, "(ws @ flat)", "(ws @ flat + 1e-9)"),)),
    "eah-shift-by-min": ("eah", ((variational.gibbs, "z.max(", "z.min("),)),
    "sem-offset-1e-9": ("sem", ((semantic.infonce_rows, "+ 0.0", "+ 1e-9"),)),
    "sem-topk-ties-high": ("sem", ((semantic.topk_select, "np.argsort(-values, ",
                                    "values.shape[-1] - 1 - np.argsort(-values[..., ::-1], "),)),
    "gaco-clip-top-1.1": ("gaco", ((gaco.advantage, "-clip, clip)", "-clip, 1.1 * clip)"),)),
    "gaco-std-eps-outside": ("gaco", ((gaco.region_stats, "np.sqrt(var + eps)", "np.sqrt(var) + eps"),)),
    "gaco-conf-sorted": ("gaco", ((gaco.gaco_forward, "conf = confidence(z.ravel().take(cells))",
                                   "conf = confidence(np.sort(z.ravel().take(cells)))"),)),
    "gibbs-tau-pow-0.999": ("gibbs", ((variational.gibbs_closed_form, "/ prob.tau", "/ prob.tau ** 0.999"),)),
    "mil-score-offset-1e-9": ("mil", ((semantic.pooled_logit, "/ sel.shape[-1]", "/ sel.shape[-1] + 1e-9"),)),
    "fd-scaled-1e-6": ("grad", ((finite_difference_gradient, "grad.reshape(point.shape)",
                                 "grad.reshape(point.shape) * (1 + 1e-6)"),)),
    "fd-stencil-weight-1.001": ("grad", ((objective_fd_gradients, 'FD_STENCIL["pairs"]',
                                          "((1, 8.0), (2, -1.001))"),)),
    "grad-dsbar-no-tau": ("grad", ((gradients._token_chain, "pi / tau_t * (", "pi * ("),)),
    "grad-topk-one-cell": ("grad", ((semantic.pooled_infonce_backward, "flat[p, sel] = d_logit[p] / len(sel)",
                                     "flat[p, sel[0]] = d_logit[p]"),)),
    "fd-moved-scale-base-head": ("grad", ((objective_fd_gradients,
                                           "eams[s] = _head([x], base.tok_stack, base.valid_stack, cfg.tau_t)[3][0]",
                                           "pass"),)),
    "gibbs-kl-plus-log-r": ("gibbs", ((variational.kl_divergence, ") - np.log(", ") + np.log("),)),
    "gibbs-kl-no-log-n": ("gibbs", ((variational._free_energies, " - log_u)", ")"),)),
    "fixed-no-up-term": ("grad", ((gradients.fixed_features_objective,
                                   " + g_up.reshape(n_prompts, -1) @ fixed.up.T", ""),)),
    "fixed-scale-3-block": ("grad", ((gradients.fixed_features_objective, "reshape(n_prompts, 3, c)",
                                      "reshape(n_prompts, 3, c)[:, :1]"),)),
}


def _edited_code(function, old, new):
    """The code of function's source with its one occurrence of old replaced by new."""
    source = inspect.getsource(function)
    if source.count(old) != 1:
        raise ValueError(f"{function.__qualname__}: {old!r} occurs {source.count(old)} times, not once")
    code = function.__code__
    padding = "\n" * (code.co_firstlineno - 1)  # tracebacks keep the file's line numbers
    module = compile(padding + source.replace(old, new), code.co_filename, "exec")
    return next(c for c in module.co_consts if isinstance(c, types.CodeType))


def run_suite(groups=None, seed=0, fault=None):
    """Run the registered checks, with the named fault's edits planted if
    fault is given; results are ordered by registry index, and a check that
    raises is recorded as failed."""
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; known: {sorted(FAULTS)}")
    known = sorted({group for _, group, _, _ in _CHECKS})
    if groups is not None and (not groups or not set(groups) <= set(known)):
        raise ValueError(f"groups must name one or more check groups, got {list(groups)}; known: {known}")
    target, edits = FAULTS[fault] if fault is not None else (None, ())
    if fault is not None and groups is not None and target not in groups:
        raise DomainError(f"fault {fault!r} must fail group {target!r}, which groups {list(groups)} leave out")
    originals = [(function, function.__code__) for function, _, _ in edits]
    try:
        for function, old, new in edits:
            function.__code__ = _edited_code(function, old, new)
        results = []
        for i, (name, group, tol, fn) in enumerate(_CHECKS):
            if groups is not None and group not in groups:
                continue
            rng = np.random.default_rng([seed, i])
            try:
                residual, detail = fn(rng)
            except Exception as e:  # a check that raises fails, and the others still run
                residual, detail = math.nan, f"raised {type(e).__name__}: {e}"
            results.append(CheckResult(name=name, group=group, passed=bool(residual <= tol),
                                       residual=float(residual), tolerance=float(tol), detail=detail))
    finally:
        for function, code in originals:
            function.__code__ = code
    return results
