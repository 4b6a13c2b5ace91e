import math

import numpy as np
import pytest

from expalign.errors import DimensionError, DomainError
from expalign.gaco import (
    STD_MODES,
    GacoConfig,
    advantage,
    confidence,
    gaco_backward,
    gaco_forward,
    log_joint_softmax,
    normalize_sim,
    region_stats,
)
from expalign.gradients import finite_difference_gradient

# hand evaluation of the chain on a 1x2 grid with logits [0, ln 3], full mask,
# eps -> 0: P = [1/4, 3/4], R = [1/2, 3/4], mu = 5/8, sigma = 1/8, A = [-1, 1],
# loss = -(1/2) (
#   -1 * log(1/4) + 1 * log(3/4)) = -(1/2) log 3
CHAIN_VALUE = -0.5 * math.log(3.0)


def gaco_forward_reference(up_map, masks, cfg, frozen_adv=None):
    """The chain as a per-prompt loop over the full map: the confidence of every
    cell, then each region's mean, std and advantage read from it.

    Returns (loss, log_probs, conf, adv, stats), with conf over the whole map."""
    z = normalize_sim(up_map, cfg.eps) if cfg.normalize else up_map
    log_probs = log_joint_softmax(z)
    if frozen_adv is not None:
        conf, adv, stats = None, frozen_adv, (None,) * up_map.shape[0]
    else:
        conf = confidence(z)
        adv = np.zeros_like(up_map)
        stats = []
        for p in range(up_map.shape[0]):
            region = masks[p]
            if not region.any():
                stats.append(None)
                continue
            vals = conf[p][region]
            mu = vals.mean()
            var = np.mean((vals - mu) ** 2)
            sigma = np.sqrt(var + cfg.eps) if cfg.std_mode == "population" else np.sqrt(var) + cfg.eps
            stats.append((float(mu), float(sigma)))
            adv[p, region] = np.clip((conf[p, region] - float(mu)) / float(sigma), -cfg.clip, cfg.clip)
    denom = int(masks.sum())
    loss = float(-(adv[masks] * log_probs[masks]).sum() / denom) if denom > 0 else 0.0
    return loss, log_probs, conf, adv, tuple(stats)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def reference_masks(kind, rng, shape):
    masks = np.zeros(shape, bool)
    if kind == "mixed":  # random regions, one empty and one of a single cell
        masks = rng.random(size=shape) < 0.4
        masks[1] = False
        masks[2] = False
        masks[2, 3, 1] = True
    elif kind == "single cells":
        for p in range(shape[0]):
            masks[p, rng.integers(shape[1]), rng.integers(shape[2])] = True
    elif kind == "all masked":
        masks[:] = True
    return masks


class TestNormalizeSim:
    def test_zeros_stay_zeros(self):
        assert not normalize_sim(np.zeros((2, 3))).any()

    def test_direct_division(self):
        out = normalize_sim(np.array([-2.0, 1.0]), eps=1e-12)
        np.testing.assert_allclose(out, [-1.0, 0.5], atol=1e-10)

    def test_strictly_inside_unit_interval(self):
        v = 3.7
        out = normalize_sim(np.array([v]), eps=1e-6)
        assert 0 < out[0] < 1.0

    def test_bad_eps_rejected(self):
        with pytest.raises(DomainError):
            normalize_sim(np.ones(3), eps=0.0)


class TestJointSoftmax:
    def test_uniform_map(self):
        probs = np.exp(log_joint_softmax(np.zeros((2, 2, 2))))
        np.testing.assert_allclose(probs, 1 / 8, atol=1e-15)

    def test_dominant_cell_concentrates(self):
        m = np.zeros((1, 2, 2))
        m[0, 0, 0] = 50.0
        assert np.exp(log_joint_softmax(m))[0, 0, 0] > 1.0 - 1e-15

    def test_direct_evaluation(self):
        probs = np.exp(log_joint_softmax(np.array([[[0.0, math.log(3.0)]]])))
        np.testing.assert_allclose(probs, [[[0.25, 0.75]]], atol=1e-15)

    def test_bitwise_equal_to_the_loss_distribution(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(3, 5, 4)) * 6
        masks = rng.random(size=m.shape) < 0.4
        for cfg in (GacoConfig(normalize=False), GacoConfig(normalize=True)):
            z = normalize_sim(m, cfg.eps) if cfg.normalize else m
            ref = np.exp(gaco_forward(m, masks, cfg).log_probs)
            assert np.array_equal(np.exp(log_joint_softmax(z)).view(np.int64), ref.view(np.int64))


class TestConfidence:
    def test_midpoint(self):
        assert confidence(np.array([0.0]))[0] == 0.5

    def test_saturation(self):
        out = confidence(np.array([60.0, -60.0]))
        assert out[0] > 1 - 1e-12 and out[1] < 1e-12

    def test_direct_value(self):
        assert abs(confidence(np.array([math.log(3.0)]))[0] - 0.75) <= 1e-15

    def test_open_interval(self):
        out = confidence(np.random.default_rng(2).normal(size=100) * 5)
        assert ((out > 0) & (out < 1)).all()

    def test_bitwise_equal_to_two_branch_formula(self):
        rng = np.random.default_rng(3)
        edges = np.array([0.0, -0.0, 745.0, -745.0, 1000.0, -1000.0, 1e-300, -1e-300])
        shapes = ((12, 64, 64), (4, 24, 24), (2, 8, 8), (1, 4, 4))
        for m in [edges] + [rng.normal(size=shape) * 8 for shape in shapes]:
            # oracle: 1 / (1 + e^-m) on m >= 0 and e^m / (1 + e^m) below
            ref = np.empty_like(m)
            pos = m >= 0
            ref[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
            em = np.exp(m[~pos])
            ref[~pos] = em / (1.0 + em)
            out = confidence(m)
            assert out.shape == m.shape
            assert np.array_equal(out.view(np.int64), ref.view(np.int64))


class TestRegionStats:
    def test_constant_region(self):
        r = np.full((3, 3), 0.4)
        mu, sigma = region_stats(r, eps=1e-8)
        assert mu == 0.4 and abs(sigma - 1e-4) <= 1e-12

    def test_population_std(self):
        mu, sigma = region_stats(np.array([0.2, 0.4, 0.6]), eps=1e-15)
        assert abs(mu - 0.4) <= 1e-15
        assert abs(sigma - math.sqrt(0.08 / 3)) <= 1e-9
        assert abs(sigma - 0.163299) <= 1e-6

    def test_single_element_region(self):
        mu, sigma = region_stats(np.array([0.7]), eps=1e-6)
        assert mu == 0.7 and abs(sigma - 1e-3) <= 1e-12

    def test_empty_region_rejected(self):
        with pytest.raises(DomainError):
            region_stats(np.ones(0))

    def test_unknown_std_mode_rejected(self):
        with pytest.raises(DomainError, match="std_mode must be one of"):
            region_stats(np.ones(3), std_mode="sample")

    def test_std_plus_eps_variant(self):
        vals = np.array([0.2, 0.4, 0.6])
        _, sigma = region_stats(vals, eps=1e-3, std_mode="std_plus_eps")
        assert abs(sigma - (math.sqrt(0.08 / 3) + 1e-3)) <= 1e-12


class TestAdvantage:
    def test_zero_when_equal_to_mean(self):
        assert not advantage(np.full(4, 0.3), 0.3, 0.1).any()

    def test_clip_saturates(self):
        assert advantage(np.array([10.0]), 0.0, 1.0, clip=3.0)[0] == 3.0

    def test_worked_triple(self):
        a = advantage(np.array([0.2, 0.4, 0.6]), 0.4, math.sqrt(0.08 / 3), clip=3.0)
        np.testing.assert_allclose(a, [-1.224745, 0.0, 1.224745], atol=1e-6)


class TestGacoLoss:
    @pytest.mark.parametrize("kwargs,message", [
        ({"clip": 0.0}, "clip bound must be positive and finite"),
        ({"clip": float("inf")}, "clip bound must be positive and finite"),
        ({"eps": -1e-6}, "eps must be positive and finite"),
        ({"std_mode": "sample"}, "std_mode must be one of"),
    ])
    def test_bad_config_rejected(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            GacoConfig(**kwargs)

    @pytest.mark.parametrize("map_shape,mask_shape", [((2, 3, 3), (2, 3, 4)), ((3, 3), (3, 3))])
    def test_map_and_mask_shapes_must_match(self, map_shape, mask_shape):
        with pytest.raises(DimensionError):
            gaco_forward(np.zeros(map_shape), np.ones(mask_shape, dtype=bool))

    def test_worked_chain(self):
        m = np.array([[[0.0, math.log(3.0)]]])
        masks = np.ones((1, 1, 2), bool)
        res = gaco_forward(m, masks, GacoConfig(clip=3.0, eps=1e-12, normalize=False))
        assert abs(res.loss - CHAIN_VALUE) <= 1e-5
        np.testing.assert_allclose(np.exp(res.log_probs), [[[0.25, 0.75]]], atol=1e-12)
        np.testing.assert_allclose(res.conf, [0.5, 0.75], atol=1e-12)
        np.testing.assert_allclose(res.adv, [[[-1.0, 1.0]]], atol=1e-5)

    def test_frozen_advantage_skips_confidence(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(3, 6, 6)) * 3
        masks = rng.random(size=(3, 6, 6)) < 0.5
        masks[2] = False
        free = gaco_forward(m, masks, GacoConfig())
        frozen = gaco_forward(m, masks, GacoConfig(), frozen_adv=free.adv)
        assert frozen.conf is None
        for got, ref in ((frozen.loss, free.loss), (frozen.log_probs, free.log_probs)):
            assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(ref).view(np.int64))


class TestChainProperties:
    def test_empty_region_skipped_not_fatal(self):
        rng = np.random.default_rng(8)
        masks = np.zeros((2, 4, 4), bool)
        masks[0, 1:3, 1:3] = True  # prompt 1 empty
        res = gaco_forward(rng.normal(size=(2, 4, 4)), masks, GacoConfig())
        assert res.stats[1] is None
        assert not res.adv[1].any()
        assert np.isfinite(res.loss)

    def test_normalization_placement(self):
        # with the flag on, both the softmax and the sigmoid see map / (max|map| + eps)
        rng = np.random.default_rng(9)
        m = rng.normal(size=(1, 4, 4)) * 4
        masks = np.ones((1, 4, 4), bool)
        cfg = GacoConfig(eps=1e-9, normalize=True)
        res = gaco_forward(m, masks, cfg)
        z = m / (np.abs(m).max() + cfg.eps)
        np.testing.assert_allclose(np.exp(res.log_probs), np.exp(log_joint_softmax(z)), atol=1e-14)
        np.testing.assert_allclose(res.conf, confidence(z)[masks], atol=1e-14)


class TestMaskedChainBitwise:
    """gaco_forward against the full-map per-prompt loop, bit for bit."""

    @pytest.mark.parametrize("kind", ["mixed", "single cells", "all masked", "nothing masked"])
    @pytest.mark.parametrize("std_mode", STD_MODES)
    @pytest.mark.parametrize("normalize", [True, False])
    def test_matches_full_map_loop(self, kind, std_mode, normalize):
        rng = np.random.default_rng(31)
        cfg = GacoConfig(clip=1.5, normalize=normalize, std_mode=std_mode)
        for scale in (1e-3, 1.0, 8.0, 1e3):
            m = rng.normal(size=(4, 7, 6)) * scale
            masks = reference_masks(kind, rng, m.shape)
            loss, log_probs, conf, adv, stats = gaco_forward_reference(m, masks, cfg)
            res = gaco_forward(m, masks, cfg)
            assert same_bits(res.loss, loss)
            assert same_bits(res.log_probs, log_probs)
            assert same_bits(res.conf, conf[masks])
            assert same_bits(res.adv, adv)
            assert res.stats == stats
            assert res.denom == int(masks.sum())

    @pytest.mark.parametrize("kind", ["mixed", "all masked", "nothing masked"])
    def test_frozen_path_matches_full_map_loop(self, kind):
        rng = np.random.default_rng(32)
        m = rng.normal(size=(4, 7, 6)) * 3
        masks = reference_masks(kind, rng, m.shape)
        frozen = rng.normal(size=m.shape)  # nonzero outside the masks too
        loss, log_probs, _, _, stats = gaco_forward_reference(m, masks, GacoConfig(), frozen_adv=frozen)
        res = gaco_forward(m, masks, GacoConfig(), frozen_adv=frozen)
        assert same_bits(res.loss, loss)
        assert same_bits(res.log_probs, log_probs)
        assert res.conf is None and res.stats == stats
        assert same_bits(res.adv, frozen)


class TestGacoBackward:
    """gaco_backward against central differences of gaco_forward's loss, with
    the advantage frozen at the base point as the stop-gradient requires."""

    G_LOSS = 1.9

    def check(self, m, masks, cfg, frozen_adv=None):
        adv = gaco_forward(m, masks, cfg).adv if frozen_adv is None else frozen_adv
        res = gaco_forward(m, masks, cfg, frozen_adv=adv)
        analytic = gaco_backward(res, self.G_LOSS)
        numeric = finite_difference_gradient(
            lambda x: self.G_LOSS * gaco_forward(x, masks, cfg, frozen_adv=adv).loss, m, h=1e-5)
        assert analytic.shape == m.shape
        assert np.abs(analytic - numeric).max() <= 1e-8
        return analytic

    @pytest.mark.parametrize("normalize", [True, False])
    def test_matches_finite_differences(self, normalize):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(3, 6, 6)) * 2
        masks = rng.random(size=(3, 6, 6)) < 0.4
        masks[1] = False  # one prompt with an empty mask
        a = np.sort(np.abs(m).ravel())
        assert a[-1] - a[-2] > 1e-2  # the max-abs argmax is stable under the FD steps
        g = self.check(m, masks, GacoConfig(normalize=normalize))
        assert np.abs(g).max() > 1e-2

    @pytest.mark.parametrize("normalize", [True, False])
    def test_frozen_advantage_matches_finite_differences(self, normalize):
        rng = np.random.default_rng(22)
        m = rng.normal(size=(2, 4, 4))
        masks = rng.random(size=(2, 4, 4)) < 0.5
        self.check(m, masks, GacoConfig(normalize=normalize), frozen_adv=rng.normal(size=(2, 4, 4)))

    def test_all_masks_empty_gives_exact_zeros(self):
        m = np.random.default_rng(23).normal(size=(2, 4, 4))
        masks = np.zeros((2, 4, 4), bool)
        cfg = GacoConfig()
        res = gaco_forward(m, masks, cfg)
        g = gaco_backward(res, self.G_LOSS)
        assert res.loss == 0.0
        assert g.shape == m.shape and not g.any()
