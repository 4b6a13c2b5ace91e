import math

import numpy as np
import pytest

from expalign.errors import DimensionError, DomainError
from expalign.gradients import finite_difference_gradient
from expalign.semantic import (
    infonce_multi_positive,
    pooled_infonce_backward,
    pooled_logit,
    pooled_logits,
    topk_budget,
    topk_select,
)

# hand-derived: -log(e / (e + 1)) = log(1 + e^-1)
TWO_PROMPT_VALUE = math.log(1.0 + math.exp(-1.0))


class TestTopkBudget:
    def test_one_percent_of_fine_grid(self):
        assert topk_budget(40, 40, 100) == 16

    def test_lower_clamp(self):
        assert topk_budget(8, 8, 4) == 1

    def test_upper_clamp(self):
        assert topk_budget(400, 400, 100) == 100

    def test_custom_ratio(self):
        assert topk_budget(40, 40, 100, ratio=0.05) == 80

    def test_bad_dims_rejected(self):
        with pytest.raises(DomainError):
            topk_budget(0, 4, 4)


class TestTopkSelect:
    def test_ties_take_lowest_flat_indices(self):
        np.testing.assert_array_equal(topk_select(np.zeros(6), 3), [0, 1, 2])

    def test_small_example(self):
        np.testing.assert_array_equal(topk_select(np.array([5.0, 1.0, 4.0, 2.0]), 2), [0, 2])

    def test_full_selection(self):
        np.testing.assert_array_equal(topk_select(np.arange(5.0), 5), np.arange(5))

    def test_k_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            topk_select(np.zeros(4), 0)
        with pytest.raises(DomainError):
            topk_select(np.zeros(4), 5)

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            values = rng.normal(size=rng.integers(1, 30))
            k = int(rng.integers(1, values.size + 1))
            sel = topk_select(values, k)
            # oracle: stable sort by (-value, index)
            order = sorted(range(values.size), key=lambda i: (-values[i], i))
            np.testing.assert_array_equal(sel, np.sort(order[:k]))

    def test_two_dim_input_uses_row_major_flat_indices(self):
        m = np.array([[0.0, 9.0], [8.0, 1.0]])
        np.testing.assert_array_equal(topk_select(m, 2), [1, 2])


class TestPooledLogit:
    def test_constant_map(self):
        m = np.full((3, 3), 1.25)
        assert pooled_logit(m, topk_select(m, 4)) == 1.25

    def test_mean_of_selected(self):
        assert pooled_logit(np.array([5.0, 4.0, 0.0]), np.array([0, 1])) == 4.5

    def test_single_cell(self):
        assert pooled_logit(np.array([3.0, 7.0]), np.array([1])) == 7.0

    def test_pooled_logits_stack(self):
        maps = np.stack([np.arange(4.0).reshape(2, 2), np.full((2, 2), 2.0)])
        logits, sels = pooled_logits(maps, 2)
        np.testing.assert_allclose(logits, [2.5, 2.0])
        np.testing.assert_array_equal(sels[0], [2, 3])
        np.testing.assert_array_equal(sels[1], [0, 1])


class TestPooledInfoNCEBackward:
    @pytest.mark.parametrize("positives", [[1], [0, 2]])
    def test_matches_finite_differences(self, positives):
        g_loss, tau, k = 0.37, 0.25, 3
        maps = np.random.default_rng(5).normal(size=(3, 4, 4))
        v = -np.sort(-maps.reshape(3, -1), axis=1)
        assert (v[:, k - 1] - v[:, k]).min() > 1e-2  # no top-k ties near the FD steps
        logits, sels = pooled_logits(maps, k)
        analytic = pooled_infonce_backward(logits, sels, positives, maps.shape, tau, g_loss)
        numeric = finite_difference_gradient(
            lambda x: g_loss * infonce_multi_positive(pooled_logits(x, k)[0], positives, tau), maps, h=1e-5)
        assert np.abs(analytic - numeric).max() <= 1e-8
        assert (np.count_nonzero(analytic.reshape(3, -1), axis=1) == k).all()


class TestInfoNCE:
    def test_two_prompt_value(self):
        value = infonce_multi_positive(np.array([1.0, 0.0]), [0], tau=1.0)
        assert abs(value - TWO_PROMPT_VALUE) <= 1e-12
        assert abs(value - 0.313262) <= 1e-6

    def test_equal_logits_two_of_three_positive(self):
        value = infonce_multi_positive(np.array([0.3, 0.3, 0.3]), [0, 1], tau=1.0)
        assert abs(value - math.log(3.0)) <= 1e-12
        assert abs(value - 1.098612) <= 1e-6

    def test_empty_positives_rejected(self):
        with pytest.raises(DomainError):
            infonce_multi_positive(np.array([1.0, 2.0]), [])

    def test_out_of_range_positive_rejected(self):
        with pytest.raises(DomainError):
            infonce_multi_positive(np.array([1.0, 2.0]), [2])

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(DomainError):
            infonce_multi_positive(np.array([1.0, 2.0]), [0], tau=0.0)

    def test_non_vector_logits_rejected(self):
        with pytest.raises(DimensionError):
            infonce_multi_positive(np.ones((2, 2)), [0])
