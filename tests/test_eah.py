"""The public head `eah.alignment_map`, one class per stage of the head it runs:
the token similarities, the token posterior and the expectation map.

`identity_head` runs it on identity tokens, whose similarities are the feature
planes themselves, so a test can choose every similarity of every cell."""

import math

import numpy as np
import pytest

from expalign import verify
from expalign.eah import FeatureMap, TokenBatch, alignment_map
from expalign.errors import DimensionError, DomainError


def similarity_oracle(fvals, emb):
    """Triple-loop inner products, independent of the head's matrix products."""
    c, h, w = fvals.shape
    l = emb.shape[0]
    out = np.zeros((h, w, l))
    for x in range(h):
        for y in range(w):
            for t in range(l):
                acc = 0.0
                for ch in range(c):
                    acc += fvals[ch, x, y] * emb[t, ch]
                out[x, y, t] = acc
    return out


def identity_head(sim, valid, tau_t=1.0):
    """The map of the head whose similarities are the (H, W, L) array sim."""
    l = sim.shape[2]
    return alignment_map(sim.transpose(2, 0, 1), TokenBatch(np.eye(l), np.asarray(valid, dtype=bool)), tau_t)


def one_hot(l, t):
    return np.arange(l) == t


class TestTokenSimilarity:
    def test_identity_basis_tokens(self):
        fvals = np.zeros((2, 1, 1))
        fvals[:, 0, 0] = [1.0, 2.0]
        for t, want in enumerate([1.0, 2.0]):
            np.testing.assert_array_equal(alignment_map(fvals, TokenBatch(np.eye(2), one_hot(2, t))), [[want]])

    def test_zero_features_give_zero(self):
        eam = alignment_map(np.zeros((3, 2, 2)), TokenBatch(np.ones((4, 3)), np.ones(4, dtype=bool)))
        assert not eam.any()

    def test_matches_loop_oracle(self):
        # a single valid token selects its own similarity map
        rng = np.random.default_rng(11)
        fvals = rng.integers(-5, 6, size=(3, 2, 2)).astype(float)
        emb = rng.integers(-5, 6, size=(4, 3)).astype(float)
        sim = similarity_oracle(fvals, emb)
        for t in range(4):
            np.testing.assert_allclose(alignment_map(fvals, TokenBatch(emb, one_hot(4, t))), sim[:, :, t],
                                       atol=1e-12)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            alignment_map(np.zeros((3, 2, 2)), TokenBatch(np.ones((4, 2)), np.ones(4, dtype=bool)))

    @pytest.mark.parametrize("values,emb,error", [
        (np.ones((3, 2)), np.ones((4, 3)), DimensionError),
        (np.ones((3, 2, 2)), np.ones(3), DimensionError),
        (np.full((3, 2, 2), np.nan), np.ones((4, 3)), DomainError),
        (np.ones((3, 2, 2)), np.full((4, 3), np.inf), DomainError),
    ], ids=["features-2d", "tokens-1d", "nan-features", "inf-tokens"])
    def test_ill_shaped_or_non_finite_rejected(self, values, emb, error):
        with pytest.raises(error):
            alignment_map(values, TokenBatch(emb, np.ones(len(emb), dtype=bool)))

    def test_domain_objects_rejected(self):
        # the features are an array: a FeatureMap is not a second input format
        fm = FeatureMap(np.ones((2, 2, 2)))
        tb = TokenBatch(np.ones((3, 2)), np.ones(3, dtype=bool))
        with pytest.raises(TypeError):
            alignment_map(fm, tb)


class TestTokenPosterior:
    def test_single_valid_token(self):
        sim = np.random.default_rng(0).normal(size=(3, 3, 1))
        np.testing.assert_array_equal(identity_head(sim, [True]), sim[:, :, 0])

    def test_uniform_for_equal_means(self):
        sim = np.random.default_rng(5).normal(size=(2, 2, 4))
        sim -= sim.mean(axis=(0, 1))  # every token's spatial mean is 0
        np.testing.assert_allclose(identity_head(sim, np.ones(4, dtype=bool)), sim.mean(axis=2), atol=1e-15)

    def test_direct_evaluation(self):
        # spatial means ln 2 and 0 at tau 1 give weights 2/3, 1/3
        sim = np.zeros((1, 2, 2))
        sim[0, :, 0] = [2 * math.log(2.0), 0.0]
        sim[0, :, 1] = [1.0, -1.0]
        want = [[2 / 3 * 2 * math.log(2.0) + 1 / 3, -1 / 3]]
        np.testing.assert_allclose(identity_head(sim, np.ones(2, dtype=bool), tau_t=1.0), want, atol=1e-15)

    def test_invalid_tokens_get_exact_zero(self):
        # a pad token's similarities, however large, move no bit of the map
        rng = np.random.default_rng(1)
        sim = rng.normal(size=(4, 4, 5))
        valid = np.array([True, False, True, False, True])
        loud = sim.copy()
        loud[:, :, ~valid] = 1e300
        quiet = sim.copy()
        quiet[:, :, ~valid] = 0.0
        np.testing.assert_array_equal(identity_head(loud, valid), identity_head(quiet, valid))

    def test_all_invalid_rejected(self):
        with pytest.raises(DomainError):
            alignment_map(np.zeros((3, 2, 2)), TokenBatch(np.ones((3, 3)), np.zeros(3, dtype=bool)))

    def test_nonpositive_temperature_rejected(self):
        tokens = TokenBatch(np.ones((3, 3)), np.ones(3, dtype=bool))
        for tau_t in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                alignment_map(np.zeros((3, 2, 2)), tokens, tau_t=tau_t)

    @pytest.mark.parametrize("shape", [(2, 3), (4, 3)])
    def test_shape_mismatch_rejected(self, shape):
        # a validity mask of 3 entries for fewer or more tokens
        with pytest.raises(DimensionError):
            alignment_map(np.zeros((3, 2, 2)), TokenBatch(np.ones(shape), np.ones(3, dtype=bool)))


class TestExpectationMap:
    def test_equal_weights_average(self):
        rng = np.random.default_rng(2)
        sim = rng.normal(size=(3, 3, 2))
        sim[:, :, 1] += sim[:, :, 0].mean() - sim[:, :, 1].mean()  # equal spatial means
        np.testing.assert_allclose(identity_head(sim, np.ones(2, dtype=bool)), sim.mean(axis=2), atol=1e-15)

    def test_one_hot_selects_token(self):
        rng = np.random.default_rng(3)
        sim = rng.normal(size=(2, 5, 4))
        np.testing.assert_array_equal(identity_head(sim, one_hot(4, 2)), sim[:, :, 2])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        sim = rng.normal(size=(3, 3, 4))
        means = sim.mean(axis=(0, 1))
        weights = np.exp(means - means.max())
        weights /= weights.sum()
        oracle = np.zeros((3, 3))
        for x in range(3):
            for y in range(3):
                for t in range(4):
                    oracle[x, y] += weights[t] * sim[x, y, t]
        np.testing.assert_allclose(identity_head(sim, np.ones(4, dtype=bool)), oracle, atol=1e-12)


class TestFullHead:
    def test_alignment_map_composes_the_three_stages(self):
        # the three stages one cell at a time: verify's loop oracle
        rng = np.random.default_rng(8)
        fm = FeatureMap(rng.normal(size=(3, 4, 4)))
        tb = TokenBatch(rng.normal(size=(5, 3)), np.array([True, True, True, False, True]))
        expected = verify._loop_head(fm.values, tb.embeddings, tb.valid, 0.7)[2]
        np.testing.assert_allclose(alignment_map(fm.values, tb, tau_t=0.7), expected, rtol=0, atol=1e-12)


class TestDomainTypes:
    """The records hold data only; what they hold is checked where it enters the head."""

    def test_feature_map_validation(self):
        tokens = TokenBatch(np.ones((2, 3)), np.ones(2, dtype=bool))
        with pytest.raises(DimensionError):
            alignment_map(np.ones((3, 2)), tokens)
        with pytest.raises(DomainError):
            alignment_map(np.full((3, 2, 2), np.nan), tokens)

    def test_token_batch_validation(self):
        values = np.ones((3, 2, 2))
        with pytest.raises(DomainError):
            alignment_map(values, TokenBatch(np.ones((2, 3)), np.zeros(2, dtype=bool)))
        with pytest.raises(DimensionError):
            alignment_map(values, TokenBatch(np.ones((2, 3)), np.ones(3, dtype=bool)))
