#!/usr/bin/env python3
"""Walkthrough: verifying the hand-written reverse mode with finite differences.

The checker freezes the advantage tensor at the base point (the stop-gradient
convention) and differences every feature and token coordinate. Configurations
are screened so no top-k tie, clip boundary, or argmax tie sits within 1e-2 of
the evaluation point.
"""

import numpy as np

from expalign.gradients import finite_difference_gradient, relative_gradient_error
from expalign.verify import find_gradcheck_cases, nondegeneracy_margins, run_gradcheck_case
from expalign.gradients import forward, objective_fd_gradients, objective_with_gradients

# the oracle itself on a known function
g = finite_difference_gradient(lambda x: float(x[0] ** 2), np.array([3.0]))
print("d/dx x^2 at 3 by central differences:", g[0])

cases = find_gradcheck_cases(5, base_seed=4000)
print(f"\n{len(cases)} non-degenerate configurations (2 prompts, 8x8/4x4/2x2 pyramid)")
for i, case in enumerate(cases):
    tr = forward(case["features"], case["tokens"], case["masks"],
                 case["positives"], case["cfg"], case["valid"])
    margins = nondegeneracy_margins(tr)
    err, bundle = run_gradcheck_case(case)
    print(f"case {i}: max relative error {err:.2e}   "
          f"margins topk={margins['topk']:.3f} clip={margins['clip']:.3f}")

# pad tokens are outside the differentiable graph: exactly zero both ways
case = cases[0]
analytic = objective_with_gradients(case["features"], case["tokens"], case["masks"],
                                    case["positives"], case["cfg"], case["valid"])
numeric = objective_fd_gradients(case["features"], case["tokens"], case["masks"],
                                 case["positives"], case["cfg"], case["valid"])
pad = ~case["valid"][0]
print("\npad-token gradient rows (analytic, numeric):",
      np.abs(analytic.d_tokens[0][pad]).max(), np.abs(numeric.d_tokens[0][pad]).max())
print("bundle-wide relative error:", relative_gradient_error(analytic, numeric))
