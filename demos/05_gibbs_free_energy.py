#!/usr/bin/env python3
"""Walkthrough: the free-energy functional and its Gibbs minimizer.

F[Q] = <Q, E - lam*A> + tau * KL(Q || uniform) over the prompt-patch simplex.
The closed-form minimizer is a softmax of the effective energy; entropic
mirror descent recovers it numerically, and random simplex points certify
optimality.
"""

import numpy as np

from expalign.variational import (
    GibbsProblem,
    free_energy,
    gibbs_closed_form,
    kl_divergence,
    minimize_free_energy_numeric,
    random_simplex,
)

rng = np.random.default_rng(4)
n = 12
prob = GibbsProblem(
    energy=rng.normal(size=n),
    geometry=rng.normal(size=n) * (rng.random(n) < 0.4),
    tau=0.7,
    lam=0.5,
)

closed = gibbs_closed_form(prob)
res = minimize_free_energy_numeric(prob, max_iters=500, tol=1e-14)
print(f"mirror descent: converged={res.converged} after {res.iterations} iterations")
print("KL(numeric || closed):", kl_divergence(res.q, closed))
print("F[closed] =", round(free_energy(closed, prob), 6),
      " F[numeric] =", round(free_energy(res.q, prob), 6))

worst = float(free_energy(random_simplex(rng, n, count=2000), prob).max())
best = float(free_energy(random_simplex(rng, n, count=2000), prob).min())
print(f"2000 random simplex points: F in [{best:.4f}, {worst:.4f}],"
      f" none below F[closed] = {free_energy(closed, prob):.4f}")

# temperature sweeps: uniform at high tau, argmax at low tau
for tau in (1e8, 1.0, 1e-6):
    q = gibbs_closed_form(GibbsProblem(prob.energy, prob.geometry, tau=tau, lam=prob.lam))
    print(f"tau={tau:>8.0e}  max mass={q.max():.4f}  entropy={-np.sum(q[q > 0] * np.log(q[q > 0])):.4f}")

# additive shifts of the energy never move the minimizer
shifted = gibbs_closed_form(GibbsProblem(prob.energy + 100.0, prob.geometry, prob.tau, prob.lam))
print("shift residual:", np.abs(shifted - closed).max())
