"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from conftest import run_cli
from expalign import gradients
from expalign.eah import expectation_map, token_posterior
from expalign.gaco import GacoConfig, gaco_forward
from expalign.gradients import ObjectiveConfig, objective
from expalign.semantic import infonce_multi_positive
from expalign.synth import (
    BENCHMARK_SEEDS,
    benchmark_config,
    benchmark_spec,
    demo_train,
    generate_scene,
    localization_accuracy,
    run_benchmark,
)
from expalign.variational import (
    GibbsProblem,
    free_energy,
    gibbs_closed_form,
    kl_divergence,
    minimize_free_energy_numeric,
    random_simplex,
)
from expalign.verify import find_gradcheck_cases, run_gradcheck_case


@contextmanager
def criterion(number, description, limit_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if limit_seconds is not None and elapsed > limit_seconds:
        print(f"FAIL criterion {number}: {description} (runtime {elapsed:.1f}s > {limit_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded its runtime bound: {elapsed:.1f}s")
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_mil_equivalence():
    with criterion(1, "EAH-MIL equivalence on 200 random instances (<= 1e-12)", 5.0):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(200):
            prompts = int(rng.integers(1, 5))
            h, w = int(rng.integers(1, 17)), int(rng.integers(1, 17))
            l = int(rng.integers(1, 9))
            for _ in range(prompts):
                sim = rng.normal(size=(h, w, l))
                valid = rng.random(l) < 0.85
                if not valid.any():
                    valid[0] = True
                # under identity tokens the instances' affinity vectors are the head's features
                _, pi, _, (eam,), _ = gradients._head([sim.transpose(2, 0, 1)], np.eye(l)[None], valid[None],
                                                      float(np.exp(rng.normal() * 0.3)))
                scores = sim.reshape(-1, l) @ pi[0, 0]
                worst = max(worst, float(np.abs(scores - eam[0].ravel()).max()))
        assert worst <= 1e-12, f"max deviation {worst:.3e}"


def test_criterion_2_gibbs_verification():
    with criterion(2, "Gibbs numeric vs closed form on 100 problems + optimality certificates", 30.0):
        rng = np.random.default_rng(202)
        worst_kl = 0.0
        worst_gap = -np.inf
        for _ in range(100):
            n = int(rng.integers(2, 65))
            prob = GibbsProblem(
                energy=rng.normal(size=n),
                geometry=rng.normal(size=n) * (rng.random(n) < 0.5),
                tau=float(np.exp(rng.normal() * 0.3)),
                lam=float(np.abs(rng.normal())),
            )
            closed = gibbs_closed_form(prob)
            res = minimize_free_energy_numeric(prob, max_iters=500, tol=1e-14)
            assert res.converged
            worst_kl = max(worst_kl, kl_divergence(res.q, closed))
            f_star = free_energy(closed, prob)
            worst_gap = max(worst_gap, f_star - float(free_energy(random_simplex(rng, n, count=1000), prob).min()))
        assert worst_kl <= 1e-8, f"max KL {worst_kl:.3e}"
        assert worst_gap <= 1e-12, f"closed form beaten by {worst_gap:.3e}"


def test_criterion_3_gibbs_invariances():
    with criterion(3, "Gibbs shift/temperature invariances and both temperature limits", 5.0):
        rng = np.random.default_rng(303)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            e = rng.normal(size=n)
            a = rng.normal(size=n) * (rng.random(n) < 0.5)
            lam = float(np.abs(rng.normal()))
            tau = float(np.exp(rng.normal() * 0.3))
            base = gibbs_closed_form(GibbsProblem(e, a, tau=tau, lam=lam))
            shifted = gibbs_closed_form(GibbsProblem(e + 7.7, a, tau=tau, lam=lam))
            assert np.abs(shifted - base).max() <= 1e-12
            scale = float(np.exp(rng.normal()))
            q1 = gibbs_closed_form(GibbsProblem(scale * e, a * scale, tau=scale * tau, lam=lam))
            assert np.abs(q1 - base).max() <= 1e-12
            hot = gibbs_closed_form(GibbsProblem(e, a, tau=1e8, lam=lam))
            assert np.abs(hot - 1.0 / n).max() <= 1e-6
            cold = gibbs_closed_form(GibbsProblem(e, a, tau=1e-6, lam=lam))
            assert cold[int(np.argmin(e - lam * a))] >= 1.0 - 1e-6


def test_criterion_4_gradient_checks():
    with criterion(4, "analytic vs finite differences on 20 non-degenerate configs (<= 1e-5)", 60.0):
        worst = 0.0
        for case in find_gradcheck_cases(20, base_seed=4000):
            err, _ = run_gradcheck_case(case)
            worst = max(worst, err)
        assert worst <= 1e-5, f"max relative error {worst:.3e}"


def test_criterion_5_exact_identities():
    with criterion(5, "exact identities: zero losses, invariances, temperature limits", 5.0):
        rng = np.random.default_rng(505)

        # L_sem = 0 for a single prompt
        assert infonce_multi_positive(np.array([rng.normal()]), [0], tau=0.25) == 0.0

        # L_geo = 0 for all-zero advantage and for empty masks
        m = rng.normal(size=(2, 4, 4))
        res = gaco_forward(m, np.zeros((2, 4, 4), bool), GacoConfig())
        assert res.loss == 0.0
        frozen = np.zeros((2, 4, 4))
        res = gaco_forward(m, np.ones((2, 4, 4), bool), GacoConfig(), frozen_adv=frozen)
        assert res.loss == 0.0

        # InfoNCE shift and temperature invariance
        for _ in range(20):
            logits = rng.normal(size=5)
            base = infonce_multi_positive(logits, [0, 2], tau=0.3)
            assert abs(infonce_multi_positive(logits + 4.2, [0, 2], tau=0.3) - base) <= 1e-10
            a = float(np.exp(rng.normal()))
            assert abs(infonce_multi_positive(a * logits, [0, 2], tau=0.3 * a) - base) <= 1e-10

        # zero-mean advantage without clipping, eps -> 0
        cfg = GacoConfig(clip=1e9, eps=1e-12, normalize=False)
        for _ in range(10):
            m = rng.normal(size=(2, 6, 6))
            masks = rng.random((2, 6, 6)) < 0.5
            res = gaco_forward(m, masks, cfg)
            for p in range(2):
                if masks[p].any():
                    assert abs(res.adv[p][masks[p]].sum()) <= 1e-8

        # token-temperature limits of the expectation head
        for _ in range(10):
            sim = rng.normal(size=(4, 4, 6))
            valid = rng.random(6) < 0.8
            if not valid.any():
                valid[0] = True
            hot = token_posterior(sim, valid, tau_t=1e6)
            assert np.abs(hot - valid / valid.sum()).max() <= 1e-5
            assert np.abs(expectation_map(sim, hot) - sim[:, :, valid].mean(axis=2)).max() <= 1e-5
            cold = token_posterior(sim, valid, tau_t=1e-6)
            best = int(np.argmax(np.where(valid, sim.mean(axis=(0, 1)), -np.inf)))
            assert abs(cold[best] - 1.0) <= 1e-5
            assert np.abs(expectation_map(sim, cold) - sim[:, :, best]).max() <= 1e-5


def test_criterion_6_worked_example_regression():
    with criterion(6, "hand-derived chain values reproduce at their tolerances", 5.0):
        # geometry chain on [0, ln 3] with a full 1x2 mask and eps = 1e-12
        m = np.array([[[0.0, math.log(3.0)]]])
        res = gaco_forward(m, np.ones((1, 1, 2), bool), GacoConfig(clip=3.0, eps=1e-12, normalize=False))
        assert abs(res.loss - (-0.549306)) <= 1e-5

        # the same value through the full objective on an equivalent scene
        a = 2.0 * math.log(3.0)
        f3 = np.zeros((1, 4, 4))
        f3[0, ::2, 1::2] = a
        f3[0, 1::2, ::2] = a
        cfg = ObjectiveConfig(lambda_sem=0.0, lambda_geo=1.0,
                              gaco=GacoConfig(clip=3.0, eps=1e-12, normalize=False))
        val = objective([f3, np.zeros((1, 2, 2)), np.zeros((1, 1, 1))],
                        [np.array([[1.0]])], np.ones((1, 4, 4), bool), [0], cfg)
        assert abs(val.total - (-0.549306)) <= 1e-5

        # contrastive worked values
        assert abs(infonce_multi_positive(np.array([1.0, 0.0]), [0], tau=1.0) - 0.313262) <= 1e-6
        v = 0.4
        assert abs(infonce_multi_positive(np.array([v, v, v]), [0, 1], tau=1.0) - 1.098612) <= 1e-6


def test_criterion_7_desk_scale_demo():
    with criterion(7, "weak-signal benchmark: accuracy < 0.5 -> >= 0.9; zero weights inert", 60.0):
        result = run_benchmark()
        assert result["mean_initial_accuracy"] < 0.5, result["mean_initial_accuracy"]
        assert result["mean_final_accuracy"] >= 0.9, result["mean_final_accuracy"]
        assert all(r.losses_sem[-1] < r.losses_sem[0] for r in result["runs"])
        assert not any(r.diverged for r in result["runs"])

        inert_cfg = ObjectiveConfig(lambda_sem=0.0, lambda_geo=0.0,
                                    gaco=benchmark_config().gaco)
        for seed in BENCHMARK_SEEDS:
            report = demo_train(benchmark_spec(seed), cfg=inert_cfg)
            assert abs(report.final_accuracy - report.initial_accuracy) <= 0.02


def test_criterion_7_untrained_anchors():
    # the synth module's own examples: strong signal localizes untrained,
    # zero signal sits at chance (mask-area fraction)
    with criterion("7b", "untrained anchors: s=5 >= 0.9 over 100 seeds, s=0 at chance", 60.0):
        strong = [localization_accuracy(generate_scene(benchmark_spec(s, signal=5.0)))
                  for s in range(100)]
        assert np.mean(strong) >= 0.9, np.mean(strong)
        accs, fracs = [], []
        for s in range(100):
            scene = generate_scene(benchmark_spec(s, signal=0.0))
            accs.append(localization_accuracy(scene))
            fracs.append(scene.masks[:3].sum() / (3 * 24 * 24))
        assert abs(np.mean(accs) - np.mean(fracs)) <= 0.1, (np.mean(accs), np.mean(fracs))


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "cmd_verify and cmd_demo byte-identical across identical-seed runs", 120.0):
        a = run_cli(["verify", "--json", "--seed", "3"], tmp_path)
        b = run_cli(["verify", "--json", "--seed", "3"], tmp_path)
        assert a.returncode == 0 and b.returncode == 0, a.stderr + b.stderr
        assert a.stdout == b.stdout

        c = run_cli(["demo", "--json"], tmp_path)
        d = run_cli(["demo", "--json"], tmp_path)
        assert c.returncode == 0 and d.returncode == 0, c.stderr + d.stderr
        assert c.stdout == d.stdout
        report = json.loads(c.stdout)
        assert report["mean_final_accuracy"] >= 0.9
