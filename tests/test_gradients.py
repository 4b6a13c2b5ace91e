import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from expalign import fusion, gradients
from expalign.eah import TokenBatch, alignment_map
from expalign.errors import DimensionError, DomainError
from expalign.gaco import GacoConfig, confidence, gaco_forward, normalize_sim
from expalign.gradients import (
    FD_STENCIL,
    GradientBundle,
    ObjectiveConfig,
    backward,
    coerce_inputs,
    finite_difference_gradient,
    fix_features,
    fixed_features_objective,
    forward,
    fused_maps,
    nondegeneracy_margins,
    objective,
    objective_fd_gradients,
    objective_with_gradients,
    relative_gradient_error,
)
from expalign.semantic import infonce_multi_positive, topk_budget
from expalign.synth import SceneSpec, benchmark_config, benchmark_spec, generate_scene, localization_accuracy
from expalign.verify import find_gradcheck_cases, run_gradcheck_case


def small_problem(seed=0, prompts=2, tokens=4, channels=3, h3=8):
    rng = np.random.default_rng(seed)
    features = [rng.normal(size=(channels, h3 // f, h3 // f)) for f in (1, 2, 4)]
    toks = [rng.normal(size=(tokens, channels)) * 0.6 for _ in range(prompts)]
    valid = [np.ones(tokens, dtype=bool) for _ in range(prompts)]
    valid[0][-1] = False
    masks = np.zeros((prompts, h3, h3), dtype=bool)
    for p in range(prompts):
        masks[p, p:p + 3, p:p + 4] = True
    return features, toks, valid, masks


def replaced(seq, i, value):
    out = list(seq)
    out[i] = value
    return out


class TestObjective:
    def test_zero_weights_give_zero_total(self):
        features, toks, valid, masks = small_problem()
        cfg = ObjectiveConfig(lambda_sem=0.0, lambda_geo=0.0)
        val = objective(features, toks, masks, [0], cfg, valid)
        assert val.total == 0.0

    def test_weighted_combination(self):
        features, toks, valid, masks = small_problem(1)
        cfg = ObjectiveConfig(lambda_sem=0.5, lambda_geo=1.0)
        val = objective(features, toks, masks, [0, 1], cfg, valid)
        assert abs(val.total - (0.5 * val.l_sem + 1.0 * val.gaco.loss)) <= 1e-15

    def test_worked_example_scene(self):
        # checkerboard {0, 2 ln 3} at the fine scale, zero coarser features,
        # identity token: the fused fine map is {0, ln 3} on all 16 cells and
        # the geometry chain reproduces the hand-derived 1x2 value
        a = 2.0 * math.log(3.0)
        f3 = np.zeros((1, 4, 4))
        f3[0, ::2, 1::2] = a
        f3[0, 1::2, ::2] = a
        features = [f3, np.zeros((1, 2, 2)), np.zeros((1, 1, 1))]
        toks = [np.array([[1.0]])]
        masks = np.ones((1, 4, 4), dtype=bool)
        cfg = ObjectiveConfig(lambda_sem=0.0, lambda_geo=1.0,
                              gaco=GacoConfig(clip=3.0, eps=1e-12, normalize=False))
        val = objective(features, toks, masks, [0], cfg)
        assert abs(val.total - (-0.5 * math.log(3.0))) <= 1e-5
        assert val.l_sem == 0.0  # single prompt

    @pytest.mark.parametrize("h3,w3,ratio,cells", [(8, 8, 0.2, 4), (8, 16, 0.1, 8)])
    def test_topk_budget_clamps_at_the_coarse_cell_count(self, h3, w3, ratio, cells):
        # floor(h3 * w3 * ratio) passes the coarse cell count, so the pooled logit is the map's mean
        rng = np.random.default_rng(12)
        features = [rng.normal(size=(3, h3 // f, w3 // f)) for f in (1, 2, 4)]
        toks = [rng.normal(size=(4, 3)) for _ in range(3)]
        tr = forward(features, toks, rng.random(size=(3, h3, w3)) < 0.3, [0], ObjectiveConfig(topk_ratio=ratio))
        assert tr.k == cells == tr.dw[0].size
        assert np.array_equal(tr.logits, tr.dw.reshape(3, -1).mean(axis=-1))

    def test_shape_validation(self):
        features, toks, valid, masks = small_problem(2)
        with pytest.raises(DimensionError):
            objective(features[:2], toks, masks, [0], token_valid=valid)
        with pytest.raises(DimensionError):
            objective(features, toks, masks[:, :4, :], [0], token_valid=valid)

    def test_positives_validated(self):
        features, toks, valid, masks = small_problem(3)
        with pytest.raises(DomainError):
            objective(features, toks, masks, [], token_valid=valid)

    def test_nan_feature_rejected(self):
        features, toks, valid, masks = small_problem(4)
        features[1][0, 1, 0] = np.nan
        with pytest.raises(DomainError, match="finite"):
            objective(features, toks, masks, [0], token_valid=valid)

    def test_inf_token_rejected(self):
        features, toks, valid, masks = small_problem(5)
        toks[1][2, 0] = np.inf
        with pytest.raises(DomainError, match="finite"):
            objective(features, toks, masks, [0], token_valid=valid)

    @pytest.mark.parametrize("name", ["tau_t", "tau", "lambda_sem", "lambda_geo"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_hyperparameters_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            ObjectiveConfig(**{name: value})

    @pytest.mark.parametrize("kwargs,message", [
        ({"lambda_sem": -0.1}, "loss weights must be nonnegative"),
        ({"lambda_geo": -1.0}, "loss weights must be nonnegative"),
        ({"tau": 0.0}, "temperatures must be positive"),
        ({"tau_t": -1.0}, "temperatures must be positive"),
        ({"topk_ratio": 0.0}, r"topk_ratio must lie in \(0, 1\]"),
        ({"topk_ratio": 1.5}, r"topk_ratio must lie in \(0, 1\]"),
    ])
    def test_out_of_range_hyperparameters_rejected(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            ObjectiveConfig(**kwargs)

    @pytest.mark.parametrize("corrupt,error,message", [
        (lambda f, t, v: (replaced(f, 1, f[1][:2]), t, v), DimensionError,
         "feature maps must share the channel axis"),
        (lambda f, t, v: (f, replaced(t, 0, t[0][:, :2]), v), DimensionError,
         r"token embeddings must be \(L, C\) with matching channels"),
        (lambda f, t, v: (f, replaced(t, 0, t[0][0]), v), DimensionError,
         r"token embeddings must be \(L, C\) with matching channels"),
        (lambda f, t, v: (f, t, replaced(v, 1, v[1][:2])), DimensionError,
         "validity mask length must match the token count"),
        (lambda f, t, v: (f, t, replaced(v, 1, np.zeros(4, dtype=bool))), DomainError,
         "every prompt needs at least one valid token"),
    ], ids=["feature-channels", "token-channels", "token-rank", "valid-length", "no-valid-token"])
    def test_coerce_inputs_rejects_inconsistent_inputs(self, corrupt, error, message):
        features, toks, valid, _ = small_problem(12)
        with pytest.raises(error, match=message):
            coerce_inputs(*corrupt(features, toks, valid))

    @pytest.mark.parametrize("entry", [
        lambda f, t, v: objective(f, t, np.zeros((len(t), 8, 8), dtype=bool), [0], token_valid=v),
        lambda f, t, v: fused_maps(f, t, token_valid=v),
        lambda f, t, v: objective_fd_gradients(f, t, np.zeros((len(t), 8, 8), dtype=bool), [0], token_valid=v),
    ], ids=["objective", "fused_maps", "objective_fd_gradients"])
    @pytest.mark.parametrize("corrupt,message", [
        (lambda f, t, v: (f, [], None), "at least 1 prompt, got 0"),
        (lambda f, t, v: (f, t, v[:1]), "token_valid has 1 entries for 2 prompts"),
        (lambda f, t, v: (f, t, v + v[:1]), "token_valid has 3 entries for 2 prompts"),
        (lambda f, t, v: (replaced(f, 0, f[0][0]), t, v), r"scale 3 must be \(C, Hs, Ws\), got rank 2"),
    ], ids=["no-prompts", "fewer-valid", "more-valid", "feature-rank"])
    def test_entry_points_name_the_counts(self, entry, corrupt, message):
        features, toks, valid, _ = small_problem(13)
        with pytest.raises(DimensionError, match=message):
            entry(*corrupt(features, toks, valid))

    @pytest.mark.parametrize("entry", ["gaco_forward", "forward"])
    def test_frozen_advantage_shape_checked(self, entry):
        # a mismatched advantage was a bare IndexError from the boolean mask
        adv = np.zeros((2, 2, 2))
        with pytest.raises(DimensionError, match=r"frozen_adv \(2, 2, 2\) must match the map \(2, 4, 4\)"):
            if entry == "gaco_forward":
                gaco_forward(np.zeros((2, 4, 4)), np.ones((2, 4, 4), dtype=bool), frozen_adv=adv)
            else:
                features, toks, valid, masks = small_problem(14, h3=4)
                forward(features, toks, masks, [0], token_valid=valid, frozen_adv=adv)

    def test_domain_objects_rejected(self):
        # the entry points take raw arrays; FeatureMap and TokenBatch fail loudly
        scene = generate_scene(SceneSpec(seed=1))
        fvals = [f.values for f in scene.features]
        tvals = [t.embeddings for t in scene.tokens]
        valids = [t.valid for t in scene.tokens]
        with pytest.raises(TypeError):
            objective(scene.features, tvals, scene.masks, scene.positives, token_valid=valids)
        with pytest.raises(TypeError):
            objective(fvals, scene.tokens, scene.masks, scene.positives)


@pytest.mark.parametrize("entry", [
    lambda: fused_maps(*small_problem(15)[:2], tau_t=np.nan),
    lambda: fused_maps(*small_problem(15)[:2], tau_t=0.0),
    lambda: fused_maps(*small_problem(15)[:2], tau_t=-1.0),
    lambda: localization_accuracy(generate_scene(benchmark_spec(1)), None, np.nan),
    lambda: alignment_map(np.ones((3, 2, 2)), TokenBatch(np.eye(3), np.ones(3, dtype=bool)), np.nan),
    lambda: infonce_multi_positive(np.zeros(3), [0], tau=np.nan),
    lambda: normalize_sim(np.ones((2, 2)), eps=np.nan),
    lambda: topk_budget(8, 8, 4, ratio=np.nan),
    lambda: topk_budget(8, 8, 4, ratio=0.0),
    lambda: topk_budget(8, 8, 4, ratio=1.5),
], ids=["fused_maps-tau_t-nan", "fused_maps-tau_t-zero", "fused_maps-tau_t-negative",
        "localization_accuracy-tau_t-nan", "alignment_map-tau_t-nan", "infonce-tau-nan",
        "normalize_sim-eps-nan", "topk_budget-ratio-nan", "topk_budget-ratio-zero", "topk_budget-ratio-above-1"])
def test_nan_or_out_of_range_temperatures_and_ratios_rejected(entry):
    # each returned a NaN result, an accuracy read from a NaN map, a warning or a bare ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            entry()


class TestFiniteDifferences:
    def test_linear_is_exact_to_rounding(self):
        w = np.array([2.0, -1.0, 0.5])
        g = finite_difference_gradient(lambda x: float(w @ x), np.zeros(3))
        assert np.abs(g - w).max() <= 1e-10


def loop_fd_gradients(features, tokens, masks, positives, cfg=ObjectiveConfig(), token_valid=None):
    """Reference for objective_fd_gradients: FD_STENCIL one coordinate at a time, one public
    forward per perturbed point, with the advantage frozen at the base point."""
    frozen = forward(features, tokens, masks, positives, cfg, token_valid).gaco.adv
    h, pairs, divisor = FD_STENCIL["step"], FD_STENCIL["pairs"], FD_STENCIL["divisor"]
    points = [np.array(p, dtype=np.float64) for p in list(features) + list(tokens)]

    def value():
        return forward(points[:3], points[3:], masks, positives, cfg, token_valid, frozen_adv=frozen).total

    grads = []
    for point in points:
        flat = point.reshape(-1)  # a view: writing a coordinate moves the point
        grad = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            diffs = []
            for o, _ in pairs:
                flat[i] = orig + o * h
                above = value()
                flat[i] = orig - o * h
                diffs.append(above - value())
            flat[i] = orig
            grad[i] = sum(w * d for (_, w), d in zip(pairs, diffs)) / (divisor * h)
        grads.append(grad.reshape(point.shape))
    return grads


def all_arrays_fd_gradients(features, tokens, masks, positives, cfg=ObjectiveConfig(), token_valid=None):
    """Reference for objective_fd_gradients' grouping: every perturbed point copies every
    array and runs all three heads, in one batch; returns the features' and the token
    stack's gradients."""
    base = forward(features, tokens, masks, positives, cfg, token_valid)
    arrays = base.fvals + [base.tok_stack]
    x0 = np.concatenate([a.ravel() for a in arrays])
    splits = np.cumsum([a.size for a in arrays])[:-1]
    tok_index = splits[-1] + np.arange(base.tok_stack.size).reshape(base.tok_stack.shape)
    coords = np.concatenate([np.arange(splits[-1])] + [tok_index[p, :n].ravel() for p, n in enumerate(base.lengths)])
    h, pairs = FD_STENCIL["step"], FD_STENCIL["pairs"]
    offsets = np.array([sign * o * h for o, _ in pairs for sign in (1, -1)])
    x = np.tile(x0, (coords.size * offsets.size, 1))
    x[np.arange(len(x)), np.repeat(coords, offsets.size)] += np.tile(offsets, coords.size)
    *fvs, toks = [part.reshape((-1,) + a.shape) for part, a in zip(np.split(x, splits, axis=1), arrays)]
    eams = gradients._head(fvs, toks, base.valid_stack, cfg.tau_t)[3]
    f = gradients._losses(eams, base.gaco.masks, base.positives, cfg, base.gaco.adv)["total"]
    f = f.reshape(coords.size, len(pairs), 2)
    grad = np.zeros_like(x0)
    grad[coords] = sum(w * (f[:, j, 0] - f[:, j, 1]) for j, (_, w) in enumerate(pairs))
    grad /= FD_STENCIL["divisor"] * h
    return [g.reshape(a.shape) for g, a in zip(np.split(grad, splits), arrays)]


def ragged_problem():
    rng = np.random.default_rng(7)
    features = [rng.normal(size=(3, 8 // f, 8 // f)) for f in (1, 2, 4)]
    toks = [rng.normal(size=(5, 3)), rng.normal(size=(2, 3))]
    masks = np.zeros((2, 8, 8), dtype=bool)
    masks[0, :2, :2] = True
    return features, toks, masks


def oracle_cases():
    """Two of criterion 4's cases, a ragged one, and one under normalize=False, std_plus_eps."""
    cases = find_gradcheck_cases(2, base_seed=4000)
    features, toks, masks = ragged_problem()
    cases.append({"features": features, "tokens": toks, "valid": None, "masks": masks, "positives": [0],
                  "cfg": ObjectiveConfig()})
    cfg = ObjectiveConfig(gaco=GacoConfig(normalize=False, std_mode="std_plus_eps"))
    return cases + find_gradcheck_cases(1, base_seed=4000, cfg=cfg)


class TestBatchedOracle:
    @pytest.mark.parametrize("index", range(4), ids=["criterion-4-a", "criterion-4-b", "ragged", "unnormalized"])
    def test_matches_the_per_coordinate_loop(self, index):
        case = oracle_cases()[index]
        args = (case["features"], case["tokens"], case["masks"], case["positives"], case["cfg"], case["valid"])
        batched = objective_fd_gradients(*args)
        looped = loop_fd_gradients(*args)
        for got, want in zip(batched.d_features + batched.d_tokens, looped):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-10
        for p, v in enumerate(case["valid"] or []):
            assert not batched.d_tokens[p][~v].any() and not looped[3 + p][~v].any()  # pad tokens: exactly 0

    @pytest.mark.parametrize("index", range(4), ids=["criterion-4-a", "criterion-4-b", "ragged", "unnormalized"])
    def test_grouping_leaves_the_bytes(self, index):
        # a feature point runs the head at its scale only, a token point the three heads on
        # unbatched features: the same arithmetic per point as copying every array
        case = oracle_cases()[index]
        args = (case["features"], case["tokens"], case["masks"], case["positives"], case["cfg"], case["valid"])
        grouped = objective_fd_gradients(*args)
        *features, tok_stack = all_arrays_fd_gradients(*args)
        want = features + [tok_stack[p, :len(t)] for p, t in enumerate(case["tokens"])]
        for got, ref in zip(grouped.d_features + grouped.d_tokens, want, strict=True):
            assert got.tobytes() == ref.tobytes()

    def test_chunk_size_leaves_the_bytes(self, monkeypatch):
        case = find_gradcheck_cases(1, base_seed=4000)[0]
        args = (case["features"], case["tokens"], case["masks"], case["positives"], case["cfg"], case["valid"])
        points = 2 * len(FD_STENCIL["pairs"]) * sum(np.size(a) for a in case["features"] + case["tokens"])
        runs = []
        for chunk in (48, 128):  # 48 divides the point count, 128 does not
            monkeypatch.setattr(gradients, "FD_CHUNK", chunk)
            runs.append(objective_fd_gradients(*args))
        assert points % 48 == 0 and points % 128 != 0
        for a, b in zip(runs[0].d_features + runs[0].d_tokens, runs[1].d_features + runs[1].d_tokens):
            assert a.tobytes() == b.tobytes()


class TestFullGradients:
    def test_zero_weights_give_zero_gradients(self):
        features, toks, valid, masks = small_problem(4)
        cfg = ObjectiveConfig(lambda_sem=0.0, lambda_geo=0.0)
        bundle = objective_with_gradients(features, toks, masks, [0], cfg, valid)
        assert all(not g.any() for g in bundle.d_features)
        assert all(not g.any() for g in bundle.d_tokens)

    def test_matches_fd_on_sampled_cases(self):
        for case in find_gradcheck_cases(3, base_seed=5000):
            err, _ = run_gradcheck_case(case)
            assert err <= 1e-5

    def test_fd_of_pad_token_coordinates_is_exactly_zero(self):
        features, toks, valid, masks = small_problem(6)
        fd = objective_fd_gradients(features, toks, masks, [0], token_valid=valid)
        assert not fd.d_tokens[0][~valid[0]].any()

    @pytest.mark.parametrize("corrupt", [
        lambda b: replace(b, d_tokens=b.d_tokens[:1]),
        lambda b: replace(b, d_features=b.d_features[:2]),
        lambda b: replace(b, d_tokens=[t[:1] for t in b.d_tokens]),
    ], ids=["missing-prompt", "missing-scale", "fewer-tokens"])
    def test_relative_error_rejects_mismatched_bundles(self, corrupt):
        features, toks, valid, masks = small_problem(12, tokens=2)
        bundle = objective_with_gradients(features, toks, masks, [0], token_valid=valid)
        with pytest.raises(DimensionError):
            relative_gradient_error(bundle, corrupt(bundle))
        with pytest.raises(DimensionError):
            relative_gradient_error(corrupt(bundle), bundle)

    def test_ragged_token_counts_supported(self):
        features, toks, masks = ragged_problem()
        an = objective_with_gradients(features, toks, masks, [0])
        fd = objective_fd_gradients(features, toks, masks, [0])
        assert an.d_tokens[0].shape == (5, 3) and an.d_tokens[1].shape == (2, 3)
        assert relative_gradient_error(an, fd) <= 1e-5

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_feature_scales_give_finite_gradients(self, scale):
        # the geometry backward divides by the max-abs normalizer twice, so
        # its square never overflows a Python float
        scene = generate_scene(benchmark_spec(1))
        bundle = objective_with_gradients([f.values * scale for f in scene.features],
                                          [t.embeddings for t in scene.tokens], scene.masks,
                                          scene.positives, ObjectiveConfig(),
                                          [t.valid for t in scene.tokens])
        assert np.isfinite(bundle.total)
        assert all(np.isfinite(g).all() for g in bundle.d_features + bundle.d_tokens)

    @pytest.mark.parametrize("cfg", [
        benchmark_config(),
        ObjectiveConfig(tau_t=0.5, tau=0.4, topk_ratio=0.05, gaco=GacoConfig(eps=0.1, std_mode="std_plus_eps")),
    ], ids=["benchmark", "config-sweep"])
    def test_backward_reads_the_trace_config(self, cfg):
        # a backward under the default config was 1.5e-2 off on this scene's token gradients
        scene = generate_scene(benchmark_spec(1))
        args = ([f.values for f in scene.features], [t.embeddings for t in scene.tokens], scene.masks,
                scene.positives, cfg, [t.valid for t in scene.tokens])
        got, want = backward(forward(*args)), objective_with_gradients(*args)
        for a, b in zip(got.d_features + got.d_tokens, want.d_features + want.d_tokens):
            assert a.tobytes() == b.tobytes()

    def test_gradient_flows_through_token_posterior(self):
        # a perturbation that only changes the posterior (not the selected
        # cells' similarities directly) must still move the loss
        features, toks, valid, masks = small_problem(8)
        an = objective_with_gradients(features, toks, masks, [0], token_valid=valid)
        assert any(np.abs(g).max() > 0 for g in an.d_tokens)
        assert all(np.isfinite(g).all() for g in an.d_features + an.d_tokens)


class TestNondegeneracyScreen:
    def test_margins_reported(self):
        features, toks, valid, masks = small_problem(9)
        tr = forward(features, toks, masks, [0], token_valid=valid)
        margins = nondegeneracy_margins(tr)
        assert set(margins) == {"topk", "clip", "token_argmax", "norm_argmax"}
        assert all(np.isfinite(v) or v == np.inf for v in margins.values())

    @staticmethod
    def sorted_margins(tr):
        """The top-k, token and normalizer margins read off full descending sorts."""
        desc = lambda v: np.sort(v)[::-1]
        gap = lambda v, i: float(v[i - 1] - v[i]) if i < v.size else np.inf
        return {"topk": min(gap(desc(v), tr.k) for v in tr.dw.reshape(tr.dw.shape[0], -1)),
                "token_argmax": min(gap(desc(s[p][tr.valid_stack[p]]), 1)
                                    for s in tr.sbars for p in range(len(s))),
                "norm_argmax": gap(desc(np.abs(tr.gaco.up_map).ravel()), 1)}

    def test_selection_matches_sorted_form_bitwise(self):
        traces = []
        for seed in range(5):
            features, toks, valid, masks = small_problem(seed, prompts=3, h3=16)
            tr = forward(features, toks, masks, [0], token_valid=valid)
            traces += [tr, replace(tr, k=tr.dw[0].size),  # k = N: no cut
                       replace(tr, dw=np.round(tr.dw * 4) / 4,  # ties
                               gaco=replace(tr.gaco, up_map=np.round(tr.gaco.up_map * 4) / 4),
                               sbars=[np.round(s * 4) / 4 for s in tr.sbars])]
        features, toks, _, masks = small_problem(5, prompts=1, tokens=1, h3=4)
        tr = forward(features, toks, masks, [0])  # one coarse cell and one token
        traces += [tr, replace(tr, gaco=replace(tr.gaco, up_map=tr.gaco.up_map[:, :1, :1]))]  # one fine cell
        for tr in traces:
            margins, expected = nondegeneracy_margins(tr), self.sorted_margins(tr)
            assert {key: margins[key] for key in expected} == expected
        assert any(nondegeneracy_margins(tr)["topk"] == 0.0 for tr in traces)  # a tie at the cut

    def test_clip_margin_reads_the_trace_clip(self):
        features, toks, valid, masks = small_problem(9)
        tr = forward(features, toks, masks, [0], ObjectiveConfig(gaco=GacoConfig(clip=0.5, normalize=False)), valid)
        zpre = []
        for p in range(len(toks)):
            conf = confidence(tr.gaco.up_map[p][masks[p]])
            zpre.append((conf - conf.mean()) / np.sqrt(conf.var() + 1e-6))
        zpre = np.concatenate(zpre)
        margin = lambda c: float(np.min(np.minimum(np.abs(zpre - c), np.abs(zpre + c))))
        assert abs(nondegeneracy_margins(tr)["clip"] - margin(0.5)) <= 1e-12
        assert abs(margin(0.5) - margin(3.0)) > 1e-3  # the default clip reads differently

    def test_sampler_rejects_tied_cases(self):
        # a constant map ties everything; margins must flag it
        features = [np.zeros((2, 8, 8)), np.zeros((2, 4, 4)), np.zeros((2, 2, 2))]
        toks = [np.ones((3, 2))]
        masks = np.zeros((1, 8, 8), dtype=bool)
        masks[0, :2, :2] = True
        tr = forward(features, toks, masks, [0])
        margins = nondegeneracy_margins(tr)
        assert margins["topk"] == 0.0

    def test_clip_margin_skips_an_empty_region(self):
        features, toks, valid, masks = small_problem(9)
        masks[1] = False
        tr = forward(features, toks, masks, [0], ObjectiveConfig(gaco=GacoConfig(normalize=False)), valid)
        assert tr.gaco.stats[1] is None
        conf = confidence(tr.gaco.up_map[0][masks[0]])
        zpre = (conf - conf.mean()) / np.sqrt(conf.var() + 1e-6)
        margin = float(np.min(np.minimum(np.abs(zpre - 3.0), np.abs(zpre + 3.0))))
        assert abs(nondegeneracy_margins(tr)["clip"] - margin) <= 1e-12

    @staticmethod
    def top_two_gap_form(v):  # the removed gradients._top_two_gap
        if v.size < 2:
            return np.inf
        top = np.partition(v, v.size - 2)
        return float(top[-1] - top[-2])

    @pytest.mark.parametrize("v", [
        [], [2.0], [1.0, 3.0], [3.0, 3.0], np.random.default_rng(0).normal(size=20), [-np.inf, 1.0],
        [np.inf, np.inf], [np.nan, 1.0, 2.0], [1.0, np.nan, 2.0, np.nan], [np.nan],
    ], ids=["empty", "one", "two", "tie", "normal", "minus-inf", "two-inf", "nan", "two-nan", "one-nan"])
    def test_order_gap_matches_the_top_two_form_bitwise(self, v):
        v = np.array(v, dtype=np.float64)
        with np.errstate(invalid="ignore"):  # inf - inf
            got, want = gradients._order_gap(v), self.top_two_gap_form(v)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("row", range(3))
    def test_order_gap_keeps_a_nan_in_any_row(self, row):
        # Python's min over per-row gaps dropped a NaN after the first row
        v = np.arange(12.0).reshape(3, 4)
        v[row, 1] = np.nan
        assert np.isnan(gradients._order_gap(v))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_order_gap_keeps_a_nan_at_every_k(self, k):
        # np.partition puts a NaN last, so at k = 2 this read the real gap 2.0
        assert np.isnan(gradients._order_gap(np.array([[3.0, np.nan, 1.0, 0.0], [5.0, 4.0, 2.0, 1.0]]), k=k))

    def test_clip_margin_keeps_a_nan_region(self):
        # Python's min(margin, nan) keeps the margin: with the NaN region dropped this read 1.372
        case = find_gradcheck_cases(1, base_seed=4000)[0]
        tr = forward(case["features"], case["tokens"], case["masks"], case["positives"], case["cfg"], case["valid"])
        tr.gaco.conf[0] = np.nan
        assert np.isnan(nondegeneracy_margins(tr)["clip"])

    def test_topk_margin_of_a_coarse_map_holding_a_nan(self):
        features, toks, valid, masks = small_problem(9, prompts=3, h3=16)
        tr = forward(features, toks, masks, [0], token_valid=valid)
        dw = tr.dw.copy()
        dw[1, 0, 1] = np.nan
        for k in (1, 2):
            assert np.isnan(nondegeneracy_margins(replace(tr, dw=dw, k=k))["topk"])


class TestFusedMaps:
    def test_shapes(self):
        features, toks, valid, masks = small_problem(10)
        dw, up = fused_maps(features, toks, 1.0, valid)
        assert dw.shape == (2, 2, 2) and up.shape == (2, 8, 8)

    def test_agrees_with_forward_trace(self):
        features, toks, valid, masks = small_problem(11)
        tr = forward(features, toks, masks, [0], token_valid=valid)
        dw, up = fused_maps(features, toks, 1.0, valid)
        np.testing.assert_array_equal(dw, tr.dw)
        np.testing.assert_array_equal(up, tr.gaco.up_map)


def scene_args(spec, cfg):
    scene = generate_scene(spec)
    return ([f.values for f in scene.features], [t.embeddings for t in scene.tokens], scene.masks,
            scene.positives, cfg, [t.valid for t in scene.tokens])


def small_args(seed, cfg):
    features, toks, valid, masks = small_problem(seed, prompts=3)
    return features, toks, masks, [0, 1], cfg, valid


def fixed_step(features, tokens, masks, positives, cfg=ObjectiveConfig(), token_valid=None):
    """The fixed-features path on the inputs forward takes, and its per-prompt token gradients."""
    _, tok_stack, valid_stack, lengths = coerce_inputs(features, tokens, token_valid)
    step = fixed_features_objective(fix_features(features), tok_stack, valid_stack, masks, positives, cfg)
    return step, [step.d_tok_stack[p, :n] for p, n in enumerate(lengths)]


def per_scale_step(fixed, tok_stack, valid_stack, masks, positives, cfg):
    """fixed_features_objective as a loop over scales, with _token_chain's per-scale
    body: its _loss_tail output and its token-stack gradient."""
    n_prompts, c = tok_stack.shape[0], fixed.fbars.shape[1]
    (h5, w5), (h3, w3) = fixed.grids
    masks, pos = gradients._targets(masks, positives, (n_prompts, h3, w3))
    sides = [gradients._token_side(fbar, tok_stack, valid_stack, cfg.tau_t) for fbar in fixed.fbars]
    w = np.concatenate([side[2] for side in sides], axis=1)
    out = gradients._loss_tail((w @ fixed.down).reshape(n_prompts, h5, w5),
                               (w @ fixed.up).reshape(n_prompts, h3, w3), masks, pos, cfg)
    g_dw, g_up = gradients._map_gradients(out["logits"], out["selections"], pos, out["dw"].shape, out["gaco"], cfg)
    big_g = g_dw.reshape(n_prompts, -1) @ fixed.down.T + g_up.reshape(n_prompts, -1) @ fixed.up.T
    chains = []
    for s, (_, pi, _) in enumerate(sides):
        g = big_g[:, s * c:(s + 1) * c]
        d_pi = (tok_stack @ g[:, :, None])[:, :, 0]
        d_sbar = pi / cfg.tau_t * (d_pi - (pi * d_pi).sum(axis=1, keepdims=True))
        chains.append(pi[:, :, None] * g[:, None, :] + d_sbar[:, :, None] * fixed.fbars[s])
    return out, sum(chains)


def per_scale_backward(tr):
    """backward with its feature gradients through the channel means taken scale by
    scale, one einsum each, and the gradients at w stacked by np.stack."""
    g_dw, g_up = gradients._map_gradients(tr.logits, tr.selections, tr.positives, tr.dw.shape, tr.gaco, tr.cfg)
    flats = [fv.reshape(len(fv), -1) for fv in tr.fvals]
    gs = [np.add(gd, gu, out=gd).reshape(len(tr.tok_stack), -1)
          for gd, gu in zip(fusion.fuse_down_adjoint(g_dw), fusion.fuse_up_adjoint(g_up))]
    d_sbar, d_tok_stack = gradients._token_chain(tr.tok_stack, tr.pis, tr.fbars,
                                                 np.stack([g @ flat.T for g, flat in zip(gs, flats)]), tr.cfg.tau_t)
    d_features = []
    for fv, flat, g, w, ds in zip(tr.fvals, flats, gs, tr.ws, d_sbar):
        d_flat = w.T @ g
        d_flat += np.einsum("pl,plc->c", ds, tr.tok_stack)[:, None] / flat.shape[1]
        d_features.append(d_flat.reshape(fv.shape))
    return d_features, [d_tok_stack[p, :n] for p, n in enumerate(tr.lengths)]


def scale_error(got, want):
    """max |got - want| over max |want|; exact equality when want is all zero."""
    if not want.any():
        return 0.0 if not got.any() else np.inf
    return float(np.abs(got - want).max() / np.abs(want).max())


WIDE = SceneSpec(seed=1, height3=64, width3=64, channels=32, prompts=12, tokens=12, n_negatives=3)


class TestFixedFeatures:
    @pytest.mark.parametrize("args", [
        lambda: scene_args(benchmark_spec(1), benchmark_config()),
        lambda: scene_args(WIDE, benchmark_config()),
        lambda: scene_args(benchmark_spec(2), ObjectiveConfig(gaco=GacoConfig(normalize=True))),
        lambda: scene_args(benchmark_spec(3), ObjectiveConfig(gaco=GacoConfig(std_mode="std_plus_eps"))),
        lambda: scene_args(benchmark_spec(4), replace(benchmark_config(), lambda_sem=0.0)),
        lambda: scene_args(benchmark_spec(5), replace(benchmark_config(), lambda_geo=0.0)),
        lambda: ragged_problem() + ([0], ObjectiveConfig(), None),
        lambda: small_args(3, ObjectiveConfig(tau_t=0.5)),
    ], ids=["desk", "wide", "normalized", "std-plus-eps", "no-sem", "no-geo", "ragged", "pad-tokens"])
    def test_matches_forward_and_backward(self, args):
        args = args()
        tr = forward(*args)
        want = backward(tr)
        step, d_tokens = fixed_step(*args)
        assert scale_error(step.dw, tr.dw) <= 1e-12
        assert scale_error(step.up, tr.gaco.up_map) <= 1e-12
        for got, ref in ((step.l_sem, tr.l_sem), (step.l_geo, tr.gaco.loss), (step.total, tr.total)):
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
        assert [d.shape for d in d_tokens] == [d.shape for d in want.d_tokens]
        # relative to the whole gradient: a prompt without a region can get rounding noise only
        assert scale_error(np.concatenate(d_tokens), np.concatenate(want.d_tokens)) <= 1e-12
        assert not step.d_tok_stack[~tr.valid_stack].any()  # pad rows and invalid tokens: exactly 0

    def test_zero_weights_give_the_exact_zeros_of_backward(self):
        features, toks, valid, masks = small_problem(4)
        cfg = ObjectiveConfig(lambda_sem=0.0, lambda_geo=0.0)
        step, d_tokens = fixed_step(features, toks, masks, [0], cfg, valid)
        want = objective_with_gradients(features, toks, masks, [0], cfg, valid)
        assert step.total == 0.0
        for got, ref in zip(d_tokens, want.d_tokens, strict=True):
            assert not got.any() and not ref.any()

    def test_token_gradients_match_fd_on_criterion_4_cases(self):
        for case in find_gradcheck_cases(20, base_seed=4000):
            args = (case["features"], case["tokens"], case["masks"], case["positives"], case["cfg"], case["valid"])
            _, d_tokens = fixed_step(*args)
            numeric = objective_fd_gradients(*args)
            got = GradientBundle(d_features=[], d_tokens=d_tokens, l_sem=0.0, l_geo=0.0, total=0.0)
            assert relative_gradient_error(got, replace(numeric, d_features=[])) <= 1e-5

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_token_stack_rejected(self, value):
        features, toks, valid, masks = small_problem(5)
        _, tok_stack, valid_stack, _ = coerce_inputs(features, toks, valid)
        tok_stack[1, 2, 0] = value
        with pytest.raises(DomainError, match="token embeddings must be finite"):
            fixed_features_objective(fix_features(features), tok_stack, valid_stack, masks, [0])

    @pytest.mark.parametrize("corrupt,error,message", [
        (lambda t, v: (t[..., :2], v), DimensionError, "token stack"),
        (lambda t, v: (t[0], v[0]), DimensionError, "token stack"),
        (lambda t, v: (t, v[:, :2]), DimensionError, "token stack"),
        (lambda t, v: (t, v & np.array([[True], [False]])), DomainError, "at least one valid token"),
    ], ids=["channels", "rank", "validity", "no-valid-token"])
    def test_token_stack_checked(self, corrupt, error, message):
        features, toks, valid, masks = small_problem(6)
        _, tok_stack, valid_stack, _ = coerce_inputs(features, toks, valid)
        with pytest.raises(error, match=message):
            fixed_features_objective(fix_features(features), *corrupt(tok_stack, valid_stack), masks, [0])

    def test_fixing_checks_the_features(self):
        features, _, _, _ = small_problem(7)
        with pytest.raises(DimensionError, match=r"scale 3 must be \(C, Hs, Ws\), got rank 2"):
            fix_features(replaced(features, 0, features[0][0]))
        features[2][0, 0, 0] = np.nan
        with pytest.raises(DomainError, match="feature values must be finite"):
            fix_features(features)

    @pytest.mark.parametrize("shape", [(16, 24, 24), (32, 64, 64), (3, 8, 4)], ids=["desk", "wide", "two-columns"])
    def test_blocks_match_the_fusion_of_one_scale_alone_bitwise(self, shape):
        c, h3, w3 = shape
        rng = np.random.default_rng(8)
        features = [rng.normal(size=(c, h3 // f, w3 // f)) for f in (1, 2, 4)]
        fixed = fix_features(features)
        for s in range(3):
            alone = [fv if r == s else np.zeros_like(fv) for r, fv in enumerate(features)]
            assert fixed.down[s * c:(s + 1) * c].tobytes() == fusion.fuse_down(*alone).tobytes()
            assert fixed.up[s * c:(s + 1) * c].tobytes() == fusion.fuse_up(*alone).tobytes()

    @pytest.mark.parametrize("args", [
        lambda: scene_args(benchmark_spec(1), benchmark_config()),
        lambda: scene_args(WIDE, benchmark_config()),
        lambda: ragged_problem() + ([0], ObjectiveConfig(), None),
        lambda: small_args(3, ObjectiveConfig(tau_t=0.5)),
    ], ids=["desk", "wide", "ragged", "pad-tokens"])
    def test_scale_axis_matches_the_per_scale_loop_bitwise(self, args):
        features, tokens, masks, positives, cfg, valid = args()
        _, tok_stack, valid_stack, _ = coerce_inputs(features, tokens, valid)
        fixed = fix_features(features)
        step = fixed_features_objective(fixed, tok_stack, valid_stack, masks, positives, cfg)
        out, d_tok = per_scale_step(fixed, tok_stack, valid_stack, masks, positives, cfg)
        pairs = ((step.dw, out["dw"]), (step.up, out["gaco"].up_map), (step.d_tok_stack, d_tok),
                 (np.array([step.l_sem, step.l_geo, step.total]),
                  np.array([out["l_sem"], out["gaco"].loss, out["total"]])))
        assert all(got.tobytes() == want.tobytes() for got, want in pairs)


class TestBackwardBitwise:
    @pytest.mark.parametrize("args", [
        lambda: scene_args(benchmark_spec(1), benchmark_config()),
        lambda: scene_args(WIDE, benchmark_config()),
        lambda: ragged_problem() + ([0], ObjectiveConfig(), None),
        lambda: small_args(3, ObjectiveConfig(tau_t=0.5)),
    ], ids=["desk", "wide", "ragged", "pad-tokens"])
    def test_scale_axis_matches_the_per_scale_loop_bitwise(self, args):
        tr = forward(*args())
        bundle = backward(tr)
        d_features, d_tokens = per_scale_backward(tr)
        got, want = bundle.d_features + bundle.d_tokens, d_features + d_tokens
        assert [(g.shape, g.tobytes()) for g in got] == [(w.shape, w.tobytes()) for w in want]
