"""The MIL bag logit: top-k mean pooling of instance scores, which the loss
computes as semantic.pooled_logit over semantic.topk_select."""

import numpy as np

from expalign.semantic import pooled_logit, topk_select


def bag_logit(scores, k):
    return pooled_logit(scores, topk_select(scores, k))


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
