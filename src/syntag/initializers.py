"""Seeded parameter initialization helpers."""

import numpy as np

from .autodiff import Tensor


def glorot(rng, fan_in, fan_out):
    """Uniform Glorot init: bound sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                  requires_grad=True)


def embedding_table(rng, count, dim):
    """Uniform init with bound sqrt(3 / dim); row 0 (PAD) is zero."""
    bound = np.sqrt(3.0 / dim)
    data = rng.uniform(-bound, bound, size=(count, dim))
    data[0] = 0.0
    return Tensor(data, requires_grad=True)


def zeros(*shape):
    return Tensor(np.zeros(shape), requires_grad=True)
