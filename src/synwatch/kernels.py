"""Batched LSTM compute kernels.

Every window is one cell step from the zero state ``h = c = 0``.  There
the recurrent terms ``U @ h`` vanish and the forget gate multiplies a
zero cell, so the cell that is computed has three gates:

    i = sigmoid(x W_i^T + b_i)
    o = sigmoid(x W_o^T + b_o)
    g = tanh(x W_g^T + b_g)
    h = o * tanh(i * g)
    prediction = h w_y + b_y

Each gate keeps its own matmul: fusing the three weights into one matrix
would change the reduction order and so the output bits.
"""

from __future__ import annotations

import numpy as np


def predict_batch_numpy(x, W_i, b_i, W_o, b_o, W_g, b_g, w_y, b_y):
    """Predictions for an (n, input_dim) batch of windows.

    Defined under this name (not aliased): ``perfbench/spans.py`` traces
    the kernel by it.
    """
    i = 1.0 / (1.0 + np.exp(-(x @ W_i.T + b_i)))
    o = 1.0 / (1.0 + np.exp(-(x @ W_o.T + b_o)))
    g = np.tanh(x @ W_g.T + b_g)
    h = o * np.tanh(i * g)
    return h @ w_y + b_y


def loss_and_grads_numpy(x, y, W_i, b_i, W_o, b_o, W_g, b_g, w_y, b_y):
    """Mean-squared-error loss over the batch plus exact parameter
    gradients: ``(loss, pred, dW_i, db_i, dW_o, db_o, dW_g, db_g, dw_y,
    db_y)``.

    Defined under this name (not aliased): ``perfbench/spans.py`` traces
    the kernel by it.
    """
    n = x.shape[0]

    i = 1.0 / (1.0 + np.exp(-(x @ W_i.T + b_i)))
    o = 1.0 / (1.0 + np.exp(-(x @ W_o.T + b_o)))
    g = np.tanh(x @ W_g.T + b_g)
    c = i * g
    tc = np.tanh(c)
    h = o * tc
    pred = h @ w_y + b_y

    resid = pred - y
    loss = np.mean(resid * resid)

    dpred = (2.0 / n) * resid
    dw_y = h.T @ dpred
    db_y = np.sum(dpred)

    dh = dpred.reshape(-1, 1) * w_y.reshape(1, -1)
    do = dh * tc
    dc = dh * o * (1.0 - tc * tc)
    dpre_o = do * o * (1.0 - o)
    dpre_i = (dc * g) * i * (1.0 - i)
    dpre_g = (dc * i) * (1.0 - g * g)

    return (loss, pred,
            dpre_i.T @ x, np.sum(dpre_i, axis=0),
            dpre_o.T @ x, np.sum(dpre_o, axis=0),
            dpre_g.T @ x, np.sum(dpre_g, axis=0),
            dw_y, db_y)
