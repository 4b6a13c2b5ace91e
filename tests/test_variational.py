import math

import numpy as np
import pytest

from expalign.errors import DimensionError, DomainError
from expalign.variational import (
    GibbsProblem,
    free_energy,
    gibbs_closed_form,
    minimize_free_energy_numeric,
    random_simplex,
)


def random_problem(rng, n=None):
    n = n or int(rng.integers(2, 65))
    return GibbsProblem(
        energy=rng.normal(size=n),
        geometry=rng.normal(size=n) * (rng.random(size=n) < 0.5),
        tau=float(np.exp(rng.normal() * 0.3)),
        lam=float(np.abs(rng.normal())),
    )


class TestFreeEnergy:
    def test_pure_entropy_case(self):
        prob = GibbsProblem(energy=np.zeros(6), tau=0.7)
        u = np.full(6, 1 / 6)
        assert abs(free_energy(u, prob)) <= 1e-15
        q = np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
        assert free_energy(q, prob) > 0.0

    def test_two_point_value(self):
        # 0.2 + KL([.8,.2] || [.5,.5]) = 0.2 + .8 ln 1.6 + .2 ln 0.4
        prob = GibbsProblem(energy=np.array([0.0, 1.0]), tau=1.0, lam=0.0)
        expected = 0.2 + 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
        value = free_energy(np.array([0.8, 0.2]), prob)
        assert abs(value - expected) <= 1e-12
        assert abs(value - 0.392745) <= 1e-6

    def test_off_simplex_rejected(self):
        prob = GibbsProblem(energy=np.zeros(3))
        with pytest.raises(DomainError):
            free_energy(np.array([0.5, 0.5, 0.1]), prob)
        with pytest.raises(DomainError):
            free_energy(np.array([1.2, -0.2, 0.0]), prob)

    @pytest.mark.parametrize("q", [[np.nan, 0.5, 0.5], [np.nan, np.nan, np.nan], [1.0, 0.0, np.nan]])
    def test_nan_mass_rejected(self, q):
        # every comparison with NaN is False, so only a test for being on the simplex rejects it
        with pytest.raises(DomainError, match=r"mass vector off the simplex: min=nan"):
            free_energy(np.array(q), GibbsProblem(energy=np.zeros(3)))

    def test_mass_vector_length_checked(self):
        with pytest.raises(DimensionError):
            free_energy(np.full(4, 0.25), GibbsProblem(energy=np.zeros(3)))

    def test_zero_entries_use_zero_log_zero(self):
        prob = GibbsProblem(energy=np.arange(3.0))
        value = free_energy(np.array([1.0, 0.0, 0.0]), prob)
        assert np.isfinite(value)
        assert abs(value - (0.0 + 1.0 * math.log(3.0))) <= 1e-12


class TestFreeEnergyStack:
    def test_rows_match_single_points(self):
        # a stack's energy term is a matrix-vector product where one point's is a dot
        # product, so a row may differ from its single call in the last few bits
        rng = np.random.default_rng(21)
        for _ in range(20):
            prob = random_problem(rng)
            qs = random_simplex(rng, prob.size, count=50)
            values = free_energy(qs, prob)
            assert values.shape == (50,)
            np.testing.assert_allclose(values, [free_energy(q, prob) for q in qs], rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("row", [[0.5, 0.5, 0.1], [1.2, -0.2, 0.0], [np.nan, 0.5, 0.5]])
    def test_one_row_off_simplex_rejected(self, row):
        qs = np.full((4, 3), 1 / 3)
        qs[2] = row
        with pytest.raises(DomainError, match="row 2 of the mass stack"):
            free_energy(qs, GibbsProblem(energy=np.zeros(3)))

    @pytest.mark.parametrize("shape", [(4, 4), (4, 2), (1, 4), (2, 2, 3), (0, 3)])
    def test_row_length_checked(self, shape):
        # a wrong-length vector never passes as a stack, nor a stack as one point
        with pytest.raises(DimensionError):
            free_energy(np.full(shape, 1 / shape[-1]), GibbsProblem(energy=np.zeros(3)))

    def test_zero_entries_use_zero_log_zero(self):
        prob = GibbsProblem(energy=np.arange(3.0))
        values = free_energy(np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]), prob)
        # <q, E> + KL(q || uniform): 0 + log 3, and 1.5 + log 1.5
        np.testing.assert_allclose(values, [math.log(3.0), 1.5 + math.log(1.5)], rtol=0, atol=1e-15)


class TestClosedForm:
    def test_flat_energy_gives_uniform(self):
        prob = GibbsProblem(energy=np.full(7, 2.5), tau=0.3)
        np.testing.assert_allclose(gibbs_closed_form(prob), 1 / 7, atol=1e-15)

    def test_direct_evaluation(self):
        prob = GibbsProblem(energy=np.array([0.0, math.log(2.0)]), tau=1.0)
        np.testing.assert_allclose(gibbs_closed_form(prob), [2 / 3, 1 / 3], atol=1e-15)

    def test_geometry_weight_raises_target_mass(self):
        rng = np.random.default_rng(1)
        e = rng.normal(size=10)
        a = np.zeros(10)
        a[4] = 1.0
        base = gibbs_closed_form(GibbsProblem(e, a, tau=1.0, lam=0.0))
        boosted = gibbs_closed_form(GibbsProblem(e, a, tau=1.0, lam=0.8))
        assert boosted[4] > base[4]

    def test_lambda_zero_recovers_energy_only_posterior(self):
        rng = np.random.default_rng(7)
        e = rng.normal(size=12)
        a = rng.normal(size=12)
        q = gibbs_closed_form(GibbsProblem(e, a, tau=0.8, lam=0.0))
        q_ref = gibbs_closed_form(GibbsProblem(e, None, tau=0.8, lam=0.0))
        assert np.abs(q - q_ref).max() <= 1e-15


class TestNumericMinimizer:
    def test_flat_energy_converges_immediately(self):
        prob = GibbsProblem(energy=np.zeros(9), tau=0.5)
        res = minimize_free_energy_numeric(prob)
        assert res.converged and res.iterations == 1
        np.testing.assert_allclose(res.q, 1 / 9, atol=1e-15)

    def test_never_beats_closed_form(self):
        rng = np.random.default_rng(9)
        prob = random_problem(rng, n=16)
        res = minimize_free_energy_numeric(prob, max_iters=50, tol=1e-14)
        assert free_energy(res.q, prob) >= free_energy(gibbs_closed_form(prob), prob) - 1e-10

    def test_nonconvergence_reported_not_raised(self):
        prob = GibbsProblem(energy=np.random.default_rng(10).normal(size=40) * 5, tau=0.05)
        res = minimize_free_energy_numeric(prob, max_iters=2, tol=1e-16)
        assert not res.converged
        assert res.iterations == 2
        assert np.isfinite(res.residual) and res.residual > 1e-16


class TestRandomSimplex:
    def test_on_simplex(self):
        qs = random_simplex(np.random.default_rng(12), 9, count=100)
        assert (qs >= 0).all()
        np.testing.assert_allclose(qs.sum(axis=1), 1.0, atol=1e-12)


class TestProblemValidation:
    def test_bad_temperature(self):
        with pytest.raises(DomainError):
            GibbsProblem(energy=np.zeros(3), tau=0.0)

    def test_negative_lambda(self):
        with pytest.raises(DomainError):
            GibbsProblem(energy=np.zeros(3), lam=-0.1)

    def test_geometry_shape_checked(self):
        with pytest.raises(DimensionError):
            GibbsProblem(energy=np.zeros(3), geometry=np.zeros(4))

    def test_nonfinite_energy(self):
        with pytest.raises(DomainError):
            GibbsProblem(energy=np.array([0.0, np.inf]))
