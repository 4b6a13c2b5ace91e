"""Expectation alignment maps, multi-scale consistency losses, and their verification suite.

The top level exports the quick-start names only; everything else is imported
from its submodule (expalign.gradients, expalign.gaco, expalign.synth, ...).
The head is written once, in rank-C form, in expalign.gradients; the loss runs
it, and expalign.eah.alignment_map runs it on one prompt at one scale.
"""

from .errors import DimensionError, DomainError, SceneFormatError
from .gradients import ObjectiveConfig, objective, objective_with_gradients

__version__ = "0.1.0"
