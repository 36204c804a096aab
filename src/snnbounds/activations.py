"""The hidden layer's activations gamma: ReLU, tanh and sigmoid, each with
its derivative, Lipschitz constant and its id in checkpoints and CSVs."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import model_dtype


@dataclass(frozen=True)
class Activation:
    """gamma as fn, and its derivative as deriv, which takes the value
    g = gamma(z) rather than z: each caller has just computed gamma(z), and
    each derivative here is a function of it, so gamma is evaluated once."""
    name: str
    id: int  # in a checkpoint header and in measures.csv
    fn: Callable
    deriv: Callable
    lipschitz: float


def _sigmoid(a):
    """1 / (1 + exp(-a)), with exp only of -|a| <= 0, so it never overflows."""
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# ReLU subgradient at 0 is taken to be 0: g > 0 exactly where z > 0.  Each
# fn and deriv keeps a float32 input's dtype.
RELU = Activation("relu", 0, lambda a: np.maximum(a, 0.0),
                  lambda g: (g > 0).astype(model_dtype(g)), 1.0)
TANH = Activation("tanh", 1, np.tanh, lambda g: 1.0 - g ** 2, 1.0)
SIGMOID = Activation("sigmoid", 2, _sigmoid, lambda g: g * (1.0 - g), 0.25)

ACTIVATIONS = {a.name: a for a in (RELU, TANH, SIGMOID)}
ACTIVATION_BY_ID = {a.id: a for a in ACTIVATIONS.values()}
