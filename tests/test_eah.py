import math

import numpy as np
import pytest

from expalign.eah import (
    FeatureMap,
    TokenBatch,
    alignment_map,
    expectation_map,
    token_posterior,
    token_similarity,
)
from expalign.errors import DimensionError, DomainError


def similarity_oracle(fvals, emb):
    """Triple-loop inner products, independent of the einsum path."""
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


class TestTokenSimilarity:
    def test_identity_basis_tokens(self):
        fvals = np.zeros((2, 1, 1))
        fvals[:, 0, 0] = [1.0, 2.0]
        emb = np.eye(2)
        sim = token_similarity(fvals, emb)
        np.testing.assert_array_equal(sim[0, 0], [1.0, 2.0])

    def test_zero_features_give_zero(self):
        sim = token_similarity(np.zeros((3, 2, 2)), np.ones((4, 3)))
        assert not sim.any()

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        fvals = rng.integers(-5, 6, size=(3, 2, 2)).astype(float)
        emb = rng.integers(-5, 6, size=(4, 3)).astype(float)
        np.testing.assert_allclose(token_similarity(fvals, emb), similarity_oracle(fvals, emb), atol=1e-12)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            token_similarity(np.zeros((3, 2, 2)), np.ones((4, 2)))

    @pytest.mark.parametrize("values,emb,error", [
        (np.ones((3, 2)), np.ones((4, 3)), DimensionError),
        (np.ones((3, 2, 2)), np.ones(3), DimensionError),
        (np.full((3, 2, 2), np.nan), np.ones((4, 3)), DomainError),
        (np.ones((3, 2, 2)), np.full((4, 3), np.inf), DomainError),
    ], ids=["features-2d", "tokens-1d", "nan-features", "inf-tokens"])
    def test_ill_shaped_or_non_finite_rejected(self, values, emb, error):
        with pytest.raises(error):
            token_similarity(values, emb)

    def test_domain_objects_rejected(self):
        # arrays only: FeatureMap and TokenBatch are not a second input format
        fm = FeatureMap(np.ones((2, 2, 2)))
        tb = TokenBatch(np.ones((3, 2)), np.ones(3, dtype=bool))
        with pytest.raises(TypeError):
            token_similarity(fm, tb.embeddings)
        with pytest.raises(TypeError):
            token_similarity(fm.values, tb)


class TestTokenPosterior:
    def test_single_valid_token(self):
        sim = np.random.default_rng(0).normal(size=(3, 3, 1))
        pi = token_posterior(sim, np.array([True]))
        np.testing.assert_array_equal(pi, [1.0])

    def test_uniform_for_equal_means(self):
        sim = np.zeros((2, 2, 4))
        pi = token_posterior(sim, np.ones(4, dtype=bool))
        np.testing.assert_allclose(pi, 0.25, atol=1e-15)

    def test_direct_evaluation(self):
        # spatial means ln 2 and 0 at tau 1 give weights 2/3, 1/3
        sim = np.zeros((1, 1, 2))
        sim[0, 0] = [math.log(2.0), 0.0]
        pi = token_posterior(sim, np.ones(2, dtype=bool), tau_t=1.0)
        np.testing.assert_allclose(pi, [2 / 3, 1 / 3], atol=1e-15)

    def test_invalid_tokens_get_exact_zero(self):
        rng = np.random.default_rng(1)
        sim = rng.normal(size=(4, 4, 5))
        valid = np.array([True, False, True, False, True])
        pi = token_posterior(sim, valid)
        assert (pi[~valid] == 0.0).all()
        assert abs(pi.sum() - 1.0) <= 1e-12

    def test_all_invalid_rejected(self):
        with pytest.raises(DomainError):
            token_posterior(np.zeros((2, 2, 3)), np.zeros(3, dtype=bool))

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(DomainError):
            token_posterior(np.zeros((2, 2, 3)), np.ones(3, dtype=bool), tau_t=0.0)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 4)])
    def test_shape_mismatch_rejected(self, shape):
        with pytest.raises(DimensionError):
            token_posterior(np.zeros(shape), np.ones(3, dtype=bool))


class TestExpectationMap:
    def test_equal_weights_average(self):
        rng = np.random.default_rng(2)
        sim = rng.normal(size=(3, 3, 2))
        out = expectation_map(sim, np.array([0.5, 0.5]))
        np.testing.assert_allclose(out, sim.mean(axis=2), atol=1e-15)

    def test_one_hot_selects_token(self):
        rng = np.random.default_rng(3)
        sim = rng.normal(size=(2, 5, 4))
        weights = np.zeros(4)
        weights[2] = 1.0
        np.testing.assert_array_equal(expectation_map(sim, weights), sim[:, :, 2])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        sim = rng.normal(size=(3, 3, 4))
        weights = rng.random(4)
        weights /= weights.sum()
        oracle = np.zeros((3, 3))
        for x in range(3):
            for y in range(3):
                for t in range(4):
                    oracle[x, y] += weights[t] * sim[x, y, t]
        np.testing.assert_allclose(expectation_map(sim, weights), oracle, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            expectation_map(np.zeros((2, 2, 3)), np.ones(4) / 4)


class TestFullHead:
    def test_alignment_map_composes_the_three_stages(self):
        rng = np.random.default_rng(8)
        fm = FeatureMap(rng.normal(size=(3, 4, 4)))
        tb = TokenBatch(rng.normal(size=(5, 3)), np.array([True, True, True, False, True]))
        sim = token_similarity(fm.values, tb.embeddings)
        expected = expectation_map(sim, token_posterior(sim, tb.valid, 0.7))
        np.testing.assert_array_equal(alignment_map(fm.values, tb, tau_t=0.7), expected)


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
