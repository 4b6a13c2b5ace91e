"""The verify registry as tier-1: every registered check, at every seed in one range.

Each property the registry states (the head's temperature limits and
invariances, InfoNCE's shift and temperature invariance, the geometry chain's
advantage, the Gibbs minimizer, MIL pooling, the gradient oracles) is written
once, as a check in `expalign.verify`; this module runs them. The planted
faults show that each group can fail within the seeds tier-1 runs.
"""

import numpy as np
import pytest

from expalign import eah, fusion, gaco, mil, semantic, variational, verify

GROUPS = sorted({group for _, group, _, _ in verify._CHECKS})
SEEDS = range(10)


def failures(results):
    return [f"{r.name}: residual {r.residual:.3e} > tolerance {r.tolerance:g}"
            for r in results if not r.passed]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("group", GROUPS)
def test_registered_checks_pass(group, seed):
    failed = failures(verify.run_suite(groups=[group], seed=seed))
    assert not failed, "\n".join(failed)


def _max_pool(m):
    m = np.asarray(m, dtype=np.float64)
    h, w = m.shape[-2], m.shape[-1]
    return m.reshape(*m.shape[:-2], h // 2, 2, w // 2, 2).max(axis=(-3, -1))


def _offset(fn, delta):
    return lambda *args, **kwargs: fn(*args, **kwargs) + delta


def _scaled(fn, factor):
    return lambda *args, **kwargs: fn(*args, **kwargs) * factor


def _clip_top_loose(r, mu, sigma, clip=3.0):
    return np.clip((np.asarray(r, dtype=np.float64) - mu) / sigma, -clip, 1.1 * clip)


def _tau_off(closed_form):
    def wrong(prob):
        return closed_form(variational.GibbsProblem(prob.energy, prob.geometry,
                                                    prob.tau ** 0.999, prob.lam))
    return wrong


# group -> (module, attribute, replacement built from the original). Every eah
# check compares two maps or sits at 1e-5, so an additive 1e-9 on the map is
# invisible to the group (mil_equivalence sees it); a relative 1e-9 is not.
# gaco_bounds only sees a loose clip at seeds whose draw reaches the clip.
PLANTED = {
    "fusion": (fusion, "downsample2x", lambda _: _max_pool),
    "eah": (eah, "expectation_map", lambda f: _scaled(f, 1 + 1e-9)),
    "sem": (semantic, "infonce_multi_positive", lambda f: _offset(f, 1e-9)),
    "gaco": (gaco, "advantage", lambda _: _clip_top_loose),
    "gibbs": (variational, "gibbs_closed_form", _tau_off),
    "mil": (mil, "mil_score", lambda f: _offset(f, 1e-9)),
    "grad": (verify, "finite_difference_gradient", lambda f: _scaled(f, 1 + 1e-6)),
}


@pytest.mark.parametrize("group", GROUPS)
def test_planted_fault_fails_its_group(monkeypatch, group):
    module, attribute, plant = PLANTED[group]
    monkeypatch.setattr(module, attribute, plant(getattr(module, attribute)))
    assert any(failures(verify.run_suite(groups=[group], seed=seed)) for seed in SEEDS)


def _posterior_shifted_by_min(sim, valid, tau_t=1.0):
    """eah.token_posterior with the max shift replaced by a min shift: a cold
    temperature overflows exp and the posterior turns to NaN."""
    sim = np.asarray(sim, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    sbar = sim.mean(axis=(0, 1))
    logits = sbar[valid] / tau_t
    expv = np.exp(logits - logits.min())
    weights = np.zeros_like(sbar)
    weights[valid] = expv / expv.sum()
    return weights


def test_nan_residual_fails_its_check(monkeypatch):
    # a fold with Python's max(worst, nan) keeps worst, so this mutant passed
    monkeypatch.setattr(eah, "token_posterior", _posterior_shifted_by_min)
    with np.errstate(over="ignore", invalid="ignore"):
        results = verify.run_suite(groups=["eah"], seed=0)
    limits = next(r for r in results if r.name == "eah_temperature_limits")
    assert not limits.passed and np.isnan(limits.residual)
