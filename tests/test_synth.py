import math
from dataclasses import replace

import numpy as np
import pytest

from expalign.eah import FeatureMap, TokenBatch
from expalign.errors import DimensionError, DomainError
from expalign.fusion import downsample2x
from expalign.gradients import ObjectiveConfig
from expalign.synth import (
    BENCHMARK_SEEDS,
    Scene,
    FEATURE_NOISE,
    TOKEN_NOISE,
    TOKEN_SIGNAL,
    SceneSpec,
    _auto_rects,
    benchmark_spec,
    demo_train,
    fine_maps,
    generate_scene,
    localization_accuracy,
    region_profile,
    run_benchmark,
)


class TestSceneSpec:
    def test_grid_must_be_divisible_by_four(self):
        with pytest.raises(DomainError):
            SceneSpec(seed=0, height3=10)

    def test_needs_a_positive_prompt(self):
        with pytest.raises(DomainError):
            SceneSpec(seed=0, prompts=2, n_negatives=2)

    @pytest.mark.parametrize("name", ["signal"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scales_named(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            SceneSpec(seed=0, **{name: value})

    @pytest.mark.parametrize("kwargs,message", [
        ({"channels": 0}, "prompts, tokens, and channels must be positive"),
        ({"prompts": 5, "n_negatives": 0, "channels": 4}, "n_positives <= channels"),
        ({"signal": -1.0}, "signal and noise scales must be nonnegative"),
        ({"height3": 4, "width3": 4}, "too small to auto-place"),
    ], ids=["no-channels", "too-many-positives", "negative-scale", "grid-too-small"])
    def test_bad_spec_rejected(self, kwargs, message):
        # the first three fail in the spec, the last when the masks are placed
        with pytest.raises(DomainError, match=message):
            generate_scene(SceneSpec(seed=0, **kwargs))


class TestGenerateScene:
    def test_same_seed_is_bit_identical(self):
        a = generate_scene(benchmark_spec(7))
        b = generate_scene(benchmark_spec(7))
        for fa, fb in zip(a.features, b.features):
            np.testing.assert_array_equal(fa.values, fb.values)
        for ta, tb in zip(a.tokens, b.tokens):
            np.testing.assert_array_equal(ta.embeddings, tb.embeddings)
        np.testing.assert_array_equal(a.masks, b.masks)

    def test_different_seeds_differ(self):
        a = generate_scene(benchmark_spec(1))
        b = generate_scene(benchmark_spec(2))
        assert np.abs(a.features[0].values - b.features[0].values).max() > 0

    def test_pyramid_shapes(self):
        scene = generate_scene(SceneSpec(seed=3, height3=32, width3=16))
        shapes = [f.values.shape for f in scene.features]
        assert shapes == [(16, 32, 16), (16, 16, 8), (16, 8, 4)]

    def test_negative_prompts_have_no_mask_and_no_direction(self):
        scene = generate_scene(benchmark_spec(4))
        assert not scene.masks[3].any()
        assert not scene.directions[3].any()
        assert scene.positives == (0, 1, 2)

    def test_planted_directions_are_orthonormal(self):
        scene = generate_scene(benchmark_spec(5))
        span = scene.directions[:3]
        np.testing.assert_allclose(span @ span.T, np.eye(3), atol=1e-12)

    def test_masks_snap_to_four_cell_grid(self):
        scene = generate_scene(benchmark_spec(6))
        for p in range(3):
            rows = np.flatnonzero(scene.masks[p].any(axis=1))
            cols = np.flatnonzero(scene.masks[p].any(axis=0))
            assert rows[0] % 4 == 0 and (rows[-1] + 1) % 4 == 0
            assert cols[0] % 4 == 0 and (cols[-1] + 1) % 4 == 0

    def test_zero_signal_leaves_pure_noise_statistics(self):
        scene = generate_scene(SceneSpec(seed=9, signal=0.0))
        f3 = scene.features[0].values
        assert abs(f3.std() - FEATURE_NOISE) < 0.05 * FEATURE_NOISE + 0.05

    def test_region_profile_center_peaked(self):
        w = region_profile(8, 8)
        assert w.max() == w[3, 3] or w.max() == w[4, 4]
        assert w[0, 0] == w.min()
        assert abs(w.mean() - 1.0) < 0.35


def dense_scene_arrays(spec):
    """generate_scene's arrays as a dense form makes them: each positive's profile on a
    full-grid weight map, pooled to every scale, its signal added at every cell."""
    rng = np.random.default_rng(spec.seed)
    p, l, c = spec.prompts, spec.tokens, spec.channels
    h3, w3 = spec.height3, spec.width3
    n_pos = spec.n_positives
    basis, _ = np.linalg.qr(rng.standard_normal((c, n_pos)))
    directions = np.zeros((p, c))
    directions[:n_pos] = basis.T
    masks = np.zeros((p, h3, w3), dtype=bool)
    weights = np.zeros((p, h3, w3))
    for i, (top, left, h, w) in enumerate(_auto_rects(rng, spec)):
        masks[i, top:top + h, left:left + w] = True
        weights[i, top:top + h, left:left + w] = region_profile(h, w)
    features = []
    for factor in (1, 2, 4):
        hs, ws = h3 // factor, w3 // factor
        values = rng.standard_normal((c, hs, ws)) * FEATURE_NOISE
        for i in range(n_pos):
            w_s = weights[i]
            while w_s.shape[0] > hs:
                w_s = downsample2x(w_s)
            values += spec.signal * directions[i][:, None, None] * w_s[None, :, :]
        features.append(values)
    span = directions[:n_pos]
    tokens = []
    for i in range(p):
        emb = rng.standard_normal((l, c)) * (TOKEN_NOISE / math.sqrt(c))
        emb = emb - (emb @ span.T) @ span
        if i < n_pos:
            emb = emb + TOKEN_SIGNAL * directions[i][None, :]
        tokens.append(emb)
    return features + tokens + [masks, directions]


class TestPlantedSignal:
    @pytest.mark.parametrize("spec", [
        lambda s: benchmark_spec(s),
        lambda s: replace(benchmark_spec(s), height3=64, width3=64, channels=32, prompts=12, tokens=12,
                          n_negatives=3),
        lambda s: benchmark_spec(s, signal=0.0),
        lambda s: benchmark_spec(s, signal=5.0),
        lambda s: SceneSpec(seed=s, height3=32, width3=48, prompts=6),
    ], ids=["desk", "train-wide", "signal-0", "signal-5", "32x48-six-prompts"])
    def test_matches_the_dense_form_bitwise(self, spec):
        for seed in BENCHMARK_SEEDS:
            scene = generate_scene(spec(seed))
            got = ([f.values for f in scene.features] + [t.embeddings for t in scene.tokens]
                   + [scene.masks, scene.directions])
            want = dense_scene_arrays(spec(seed))
            assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [(a.dtype, a.shape, a.tobytes()) for a in want]


class TestLocalizationAccuracy:
    def test_chance_level_at_zero_signal(self):
        accs, fracs = [], []
        for seed in range(50):
            scene = generate_scene(benchmark_spec(seed, signal=0.0))
            accs.append(localization_accuracy(scene))
            fracs.append(scene.masks[:3].sum() / (3 * 24 * 24))
        assert abs(np.mean(accs) - np.mean(fracs)) < 0.12

    def test_strong_signal_localizes_untrained(self):
        accs = [localization_accuracy(generate_scene(benchmark_spec(s, signal=5.0)))
                for s in range(30)]
        assert np.mean(accs) >= 0.9

    @pytest.mark.parametrize("shape", [(2, 4, 16), (4, 3, 16), (4, 4, 15), (4, 16)])
    def test_token_delta_needs_one_entry_per_prompt(self, shape):
        scene = generate_scene(benchmark_spec(0))  # 4 prompts of (4, 16) tokens
        with pytest.raises(DimensionError, match="token_delta"):
            localization_accuracy(scene, np.zeros(shape))

    def test_no_masks_rejected(self):
        scene = generate_scene(benchmark_spec(0))
        empty = scene.masks & False
        broken = type(scene)(features=scene.features, tokens=scene.tokens, masks=empty,
                             positives=scene.positives, directions=scene.directions)
        with pytest.raises(DomainError):
            localization_accuracy(broken)


def localization_accuracy_loop(scene, token_delta=None, tau_t=1.0):
    """localization_accuracy as the per-prompt loop its one-call argmax replaced."""
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


class TestLocalizationAccuracyLoopForm:
    """The one-call argmax against the per-prompt loop, value and bytes."""

    @staticmethod
    def same(scene, *args):
        got, want = localization_accuracy(scene, *args), localization_accuracy_loop(scene, *args)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
        return got

    def test_benchmark_scenes_with_negatives_and_deltas(self):
        rng = np.random.default_rng(12)
        for seed in range(1, 6):
            scene = generate_scene(SceneSpec(seed=seed, prompts=5, n_negatives=2))  # two prompts without a mask
            self.same(scene)
            delta = [rng.normal(size=t.embeddings.shape) * 3 for t in scene.tokens]
            self.same(scene, delta, 0.5)

    def test_constant_map_takes_the_first_cell(self):
        # zero features give a constant fine map, so every argmax is cell 0: a hit only where it is masked
        masks = np.zeros((3, 8, 8), dtype=bool)
        masks[0, :2, :2] = True   # holds cell 0
        masks[1, 4:, 4:] = True   # does not
        scene = Scene(features=tuple(FeatureMap(np.zeros((2, 8 // f, 8 // f))) for f in (1, 2, 4)),
                      tokens=tuple(TokenBatch(np.ones((2, 2)), np.ones(2, dtype=bool)) for _ in range(3)),
                      masks=masks, positives=(0, 1))
        assert self.same(scene) == 0.5

    def test_all_negative_scene_rejected_by_both(self):
        scene = generate_scene(benchmark_spec(0))
        scene = replace(scene, masks=np.zeros_like(scene.masks))
        for accuracy in (localization_accuracy, localization_accuracy_loop):
            with pytest.raises(DomainError, match="^no prompt has a mask; accuracy undefined$"):
                accuracy(scene)


class TestDemoTrain:
    def test_zero_learning_rate_changes_nothing(self):
        report = demo_train(benchmark_spec(1), steps=5, learning_rate=0.0)
        assert report.final_accuracy == report.initial_accuracy

    def test_zero_weights_change_nothing(self):
        cfg = ObjectiveConfig(lambda_sem=0.0, lambda_geo=0.0)
        report = demo_train(benchmark_spec(2), steps=5, learning_rate=0.5, cfg=cfg)
        assert report.final_accuracy == report.initial_accuracy
        assert all(l == 0.0 for l in report.losses_total)

    def test_reports_are_deterministic(self):
        a = demo_train(benchmark_spec(3), steps=10)
        b = demo_train(benchmark_spec(3), steps=10)
        assert a.to_dict() == b.to_dict()

    def test_losses_recorded_per_step(self):
        report = demo_train(benchmark_spec(4), steps=7)
        assert len(report.losses_sem) == len(report.losses_geo) == len(report.losses_total) == 7
        assert not report.diverged

    def test_empty_seed_list_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            run_benchmark(seeds=[], steps=1)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.5])
    def test_bad_learning_rate_rejected_before_training(self, lr):
        with pytest.raises(DomainError, match="learning_rate must be finite and nonnegative"):
            demo_train(benchmark_spec(5), steps=1, learning_rate=lr)

    def test_steps_must_be_positive(self):
        with pytest.raises(DomainError):
            demo_train(benchmark_spec(5), steps=0)
