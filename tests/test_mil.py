import numpy as np
import pytest

from expalign.errors import DimensionError
from expalign.mil import bag_logit, instance_vectors, mil_score


class TestInstanceVectors:
    def test_single_cell(self):
        sim = np.arange(3.0).reshape(1, 1, 3)
        np.testing.assert_array_equal(instance_vectors(sim), [[0.0, 1.0, 2.0]])

    def test_row_major_order(self):
        sim = np.arange(8.0).reshape(2, 2, 2)
        bag = instance_vectors(sim)
        np.testing.assert_array_equal(bag, [[0, 1], [2, 3], [4, 5], [6, 7]])

    def test_roundtrip_lossless(self):
        sim = np.random.default_rng(0).normal(size=(5, 3, 4))
        np.testing.assert_array_equal(instance_vectors(sim).reshape(5, 3, 4), sim)

    def test_wrong_rank_rejected(self):
        with pytest.raises(DimensionError):
            instance_vectors(np.zeros((3, 4)))


class TestMilScore:
    def test_one_hot_posterior_selects_token(self):
        bag = np.random.default_rng(1).normal(size=(6, 4))
        weights = np.zeros(4)
        weights[3] = 1.0
        np.testing.assert_array_equal(mil_score(bag, weights), bag[:, 3])

    def test_token_count_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            mil_score(np.zeros((4, 3)), np.full(2, 0.5))

    def test_zero_instances_score_zero(self):
        weights = np.full(3, 1 / 3)
        assert not mil_score(np.zeros((4, 3)), weights).any()


class TestBagLogit:
    def test_k1_is_max_pooling(self):
        scores = np.random.default_rng(4).normal(size=13)
        assert bag_logit(scores, 1) == scores.max()

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            scores = rng.normal(size=int(rng.integers(1, 40)))
            k = int(rng.integers(1, scores.size + 1))
            oracle = np.mean(sorted(scores, reverse=True)[:k])
            assert abs(bag_logit(scores, k) - oracle) <= 1e-12
