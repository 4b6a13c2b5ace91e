import math
from dataclasses import replace

import numpy as np
import pytest

from expalign.errors import DimensionError, DomainError
from expalign.gaco import GacoConfig, confidence, gaco_forward
from expalign.gradients import (
    ObjectiveConfig,
    backward,
    coerce_inputs,
    finite_difference_gradient,
    forward,
    fused_maps,
    nondegeneracy_margins,
    objective,
    objective_fd_gradients,
    objective_with_gradients,
    relative_gradient_error,
)
from expalign.synth import SceneSpec, benchmark_config, benchmark_spec, generate_scene
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
        assert abs(val.total - (0.5 * val.l_sem + 1.0 * val.l_geo)) <= 1e-15

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


class TestFiniteDifferences:
    def test_linear_is_exact_to_rounding(self):
        w = np.array([2.0, -1.0, 0.5])
        g = finite_difference_gradient(lambda x: float(w @ x), np.zeros(3))
        assert np.abs(g - w).max() <= 1e-10


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
        rng = np.random.default_rng(7)
        features = [rng.normal(size=(3, 8 // f, 8 // f)) for f in (1, 2, 4)]
        toks = [rng.normal(size=(5, 3)), rng.normal(size=(2, 3))]
        masks = np.zeros((2, 8, 8), dtype=bool)
        masks[0, :2, :2] = True
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
                "norm_argmax": gap(desc(np.abs(tr.up).ravel()), 1)}

    def test_selection_matches_sorted_form_bitwise(self):
        traces = []
        for seed in range(5):
            features, toks, valid, masks = small_problem(seed, prompts=3, h3=16)
            tr = forward(features, toks, masks, [0], token_valid=valid)
            traces += [tr, replace(tr, k=tr.dw[0].size),  # k = N: no cut
                       replace(tr, dw=np.round(tr.dw * 4) / 4, up=np.round(tr.up * 4) / 4,  # ties
                               sbars=[np.round(s * 4) / 4 for s in tr.sbars])]
        features, toks, _, masks = small_problem(5, prompts=1, tokens=1, h3=4)
        tr = forward(features, toks, masks, [0])  # one coarse cell and one token
        traces += [tr, replace(tr, up=tr.up[:, :1, :1])]  # one fine cell
        for tr in traces:
            margins, expected = nondegeneracy_margins(tr), self.sorted_margins(tr)
            assert {key: margins[key] for key in expected} == expected
        assert any(nondegeneracy_margins(tr)["topk"] == 0.0 for tr in traces)  # a tie at the cut

    def test_clip_margin_reads_the_trace_clip(self):
        features, toks, valid, masks = small_problem(9)
        tr = forward(features, toks, masks, [0], ObjectiveConfig(gaco=GacoConfig(clip=0.5, normalize=False)), valid)
        zpre = []
        for p in range(len(toks)):
            conf = confidence(tr.up[p][masks[p]])
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
        np.testing.assert_array_equal(up, tr.up)
