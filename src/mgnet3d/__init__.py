"""Multigrid convolutional network for volumetric binary classification.

A self-contained stack: a float32 tensor engine with reverse-mode
differentiation, the multigrid forward pass, SGD training with
subject-grouped stratified cross-validation, classification metrics, and
a batch CLI.
"""

from .data import *
from .errors import *
from .metrics import *
from .model import *
from .tensor import *
from .training import *

__version__ = "0.1.0"
