"""Expectation alignment maps, multi-scale consistency losses, and their verification suite.

The top level exports the quick-start names only; everything else is imported
from its submodule (expalign.gradients, expalign.gaco, expalign.synth, ...).
The loss runs the rank-C head in expalign.gradients; expalign.eah keeps the
tensor form as a reference for the tests and the benchmark.
"""

from .errors import DimensionError, DomainError, SceneFormatError
from .gradients import ObjectiveConfig, objective, objective_with_gradients

__version__ = "0.1.0"
