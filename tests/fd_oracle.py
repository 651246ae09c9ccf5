"""The finite-difference gradient oracle.

It evaluates the loss one window at a time through its own copy of the
cell formula, so that it shares no code with the kernels it checks.
"""

import numpy as np

from synwatch.lstm import LstmParams
from synwatch.pipeline import WindowSet


def window_prediction(params: LstmParams, window) -> float:
    """The three-gate cell from the zero state on one lag window, gate by
    gate from the row blocks ``i, o, g`` of ``W`` and ``b``."""
    x = np.asarray(window, dtype=np.float64)
    W_i, W_o, W_g = np.split(params.W, 3)
    b_i, b_o, b_g = np.split(params.b, 3)
    i = 1.0 / (1.0 + np.exp(-(W_i @ x + b_i)))
    o = 1.0 / (1.0 + np.exp(-(W_o @ x + b_o)))
    g = np.tanh(W_g @ x + b_g)
    return float(params.w_y @ (o * np.tanh(i * g)) + params.b_y)


def forward_loss(params: LstmParams, windows: WindowSet) -> float:
    """MSE via per-window forward steps only (no backward pass)."""
    if len(windows) == 0:
        raise ValueError("window set is empty")
    total = 0.0
    for window, target in zip(windows.inputs, windows.targets):
        residual = window_prediction(params, window) - target
        total += residual * residual
    return total / len(windows)


def finite_difference_gradient(params: LstmParams, windows: WindowSet,
                               epsilon: float = 1e-5) -> LstmParams:
    """Central-difference gradient of the window-set loss, one parameter
    at a time: (L(p + eps) - L(p - eps)) / (2 eps)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if len(windows) == 0:
        raise ValueError("window set is empty")
    work = LstmParams(*params.arrays(), params.b_y)
    grads = LstmParams(*(np.zeros_like(a) for a in params.arrays()), 0.0)
    for arr, grad_arr in zip(work.arrays(), grads.arrays()):
        for idx in np.ndindex(arr.shape):
            original = arr[idx]
            arr[idx] = original + epsilon
            loss_plus = forward_loss(work, windows)
            arr[idx] = original - epsilon
            loss_minus = forward_loss(work, windows)
            arr[idx] = original
            grad_arr[idx] = (loss_plus - loss_minus) / (2.0 * epsilon)
    original = work.b_y
    work.b_y = original + epsilon
    loss_plus = forward_loss(work, windows)
    work.b_y = original - epsilon
    loss_minus = forward_loss(work, windows)
    work.b_y = original
    grads.b_y = (loss_plus - loss_minus) / (2.0 * epsilon)
    return grads
