"""Batched LSTM compute kernels.

Every window is one cell step from the zero state ``h = c = 0``.  There
the recurrent terms ``U @ h`` vanish and the forget gate multiplies a
zero cell, so the cell that is computed has three gates:

    i = sigmoid(x W_i^T + b_i)
    o = sigmoid(x W_o^T + b_o)
    g = tanh(x W_g^T + b_g)
    h = o * tanh(i * g)
    prediction = h w_y + b_y

The weights are stored fused (``LstmParams.W`` is one (3 hidden, k)
matrix, row blocks ``i, o, g``), but the batch kernels still multiply
per gate, on the row-block views.  A product over the fused matrix is
another BLAS call with its own blocking, and for some batch shapes its
reduction order, and so its bits, differ from the per-gate products:
the forward ``x @ W.T`` and, more often, the gradients ``dpre.T @ x``,
which sum over the whole batch.  Only ``lstm.predict_window`` takes the
fused product, which for one window equals the per-gate products bit for
bit (see there).

Both kernels compute into work buffers with ``out=`` and in-place ufuncs,
in the same operations and association order as the plain formula, so
every output is bit-identical to it.  ``loss_and_grads_numpy`` takes its
buffers from a ``_GradWork`` that training allocates once for all
epochs.  Fresh (n, hidden) temporaries on every call cost more than
their arithmetic: glibc trims the freed top of the heap after each call,
so every epoch faults the same pages back in.
"""

from __future__ import annotations

import numpy as np


def _sigmoid_into(out, x, W, b):
    """``out = 1.0 / (1.0 + exp(-(x @ W.T + b)))``, in place."""
    np.matmul(x, W.T, out=out)
    out += b
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)


def _tanh_into(out, x, W, b):
    """``out = tanh(x @ W.T + b)``, in place."""
    np.matmul(x, W.T, out=out)
    out += b
    np.tanh(out, out=out)


def predict_batch_numpy(x, W_i, b_i, W_o, b_o, W_g, b_g, w_y, b_y):
    """Predictions for an (n, input_dim) batch of windows, through two
    (n, hidden) work arrays.

    Defined under this name (not aliased): ``perfbench/spans.py`` traces
    the kernel by it.
    """
    a = np.empty((x.shape[0], W_i.shape[0]))
    b = np.empty_like(a)
    _sigmoid_into(a, x, W_i, b_i)         # i
    _tanh_into(b, x, W_g, b_g)            # g
    a *= b                                # c = i * g
    np.tanh(a, out=a)                     # tanh(c)
    _sigmoid_into(b, x, W_o, b_o)         # o
    b *= a                                # h = o * tanh(c)
    pred = b @ w_y
    pred += b_y
    return pred


class _GradWork:
    """Work buffers of ``loss_and_grads_numpy`` for one (n, k, hidden)
    shape: six (n, hidden) arrays, the n-vectors ``pred``, ``resid`` and
    ``dpred``, and the gradient outputs.

    Six, not fewer: with the association order fixed, ``do = dh * tc`` and
    ``dc = (dh * o) * (1 - tc * tc)`` both need ``o`` and ``tc`` while the
    other is built.

    The gate gradients are laid out like ``LstmParams``: ``dW`` (3 hidden,
    k) and ``db`` (3 hidden,) hold them fused, and ``dW_i``, ``db_i``, ...
    are their row-block views, into which the kernel writes.
    """

    def __init__(self, n: int, k: int, hidden: int):
        (self.i, self.o, self.g, self.tc, self.h, self.do) = (
            np.empty((n, hidden)) for _ in range(6))
        self.pred, self.resid, self.dpred = (np.empty(n) for _ in range(3))
        self.dW = np.empty((3 * hidden, k))
        self.db = np.empty(3 * hidden)
        self.dW_i, self.dW_o, self.dW_g = np.split(self.dW, 3)
        self.db_i, self.db_o, self.db_g = np.split(self.db, 3)
        self.dw_y = np.empty(hidden)


def loss_and_grads_numpy(x, y, W_i, b_i, W_o, b_o, W_g, b_g, w_y, b_y, *,
                         work=None):
    """Mean-squared-error loss over the batch plus exact parameter
    gradients: ``(loss, pred, dW_i, db_i, dW_o, db_o, dW_g, db_g, dw_y,
    db_y)``.

    ``work`` is a ``_GradWork`` of this call's shape, reused across calls;
    without it the call builds its own.  ``pred`` and the gradient arrays
    are views into ``work``, valid until its next call.

    Defined under this name (not aliased): ``perfbench/spans.py`` traces
    the kernel by it.
    """
    n, k = x.shape
    if work is None:
        work = _GradWork(n, k, W_i.shape[0])
    i, o, g, tc, h, do = work.i, work.o, work.g, work.tc, work.h, work.do

    _sigmoid_into(i, x, W_i, b_i)
    _sigmoid_into(o, x, W_o, b_o)
    _tanh_into(g, x, W_g, b_g)
    np.multiply(i, g, out=tc)             # c
    np.tanh(tc, out=tc)
    np.multiply(o, tc, out=h)
    pred = np.matmul(h, w_y, out=work.pred)
    pred += b_y

    resid = np.subtract(pred, y, out=work.resid)
    dpred = np.multiply(resid, resid, out=work.dpred)
    loss = np.mean(dpred)

    np.multiply(resid, 2.0 / n, out=dpred)
    dw_y = np.matmul(h.T, dpred, out=work.dw_y)
    db_y = np.sum(dpred)

    dh = np.multiply(dpred.reshape(-1, 1), w_y.reshape(1, -1), out=h)
    np.multiply(dh, tc, out=do)
    dc = dh
    dc *= o                               # dh * o
    tc *= tc
    np.subtract(1.0, tc, out=tc)
    dc *= tc                              # * (1 - tc * tc)
    do *= o
    np.subtract(1.0, o, out=o)
    dpre_o = do
    dpre_o *= o                           # do * o * (1 - o)
    dpre_i = np.multiply(dc, g, out=tc)
    dpre_i *= i
    dpre_g = dc
    dpre_g *= i                           # dc * i
    np.subtract(1.0, i, out=i)
    dpre_i *= i                           # (dc * g) * i * (1 - i)
    g *= g
    np.subtract(1.0, g, out=g)
    dpre_g *= g                           # (dc * i) * (1 - g * g)

    return (loss, pred,
            np.matmul(dpre_i.T, x, out=work.dW_i),
            np.sum(dpre_i, axis=0, out=work.db_i),
            np.matmul(dpre_o.T, x, out=work.dW_o),
            np.sum(dpre_o, axis=0, out=work.db_o),
            np.matmul(dpre_g.T, x, out=work.dW_g),
            np.sum(dpre_g, axis=0, out=work.db_g),
            dw_y, db_y)
