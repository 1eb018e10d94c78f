"""Test-only precision helper.

The networks compute in float32. Finite-difference gradient checks need
float64 to resolve a central difference with ``eps = 1e-6``, so they
cast an existing network to float64 and run the same network code on it:
every entry point casts its inputs to the weights' dtype.
"""

import numpy as np


def to_float64(net):
    """Cast ``net``'s weights, biases and Adam state to float64 in place.

    Works for :class:`~repro.rl.network.QNetwork` and
    :class:`~repro.rl.ppo.PolicyValueNetwork`; returns ``net``.
    """
    for layer in net.layers:
        for name, value in list(vars(layer).items()):
            if isinstance(value, np.ndarray):
                setattr(layer, name, value.astype(np.float64))
    return net
