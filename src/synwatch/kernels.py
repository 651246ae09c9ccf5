"""Batched LSTM compute kernels.

Every window is one cell step from the zero state ``h = c = 0``.  There
the recurrent terms ``U @ h`` vanish and the forget gate multiplies a
zero cell, so the cell that is computed has three gates.  Their weights
are the row blocks ``i, o, g`` of one (3 hidden, k) matrix ``W`` and one
(3 hidden,) bias ``b``:

    z = W x + b,  rows i | o | g
    i, o = sigmoid(z_i), sigmoid(z_o);  g = tanh(z_g)
    h = o * tanh(i * g)
    prediction = w_y . h + b_y

``loss_and_grads_numpy`` computes training gradients.  Only the trained
weights depend on its bits, so it is laid out for speed.  It takes the gate
matrix augmented with the biases, ``Wb = [W | b]`` of shape (3 hidden,
k + 1), and the inputs with a column of ones, ``xa`` of shape (n, k + 1).
One product ``Wb @ xa.T`` gives every pre-activation, bias included, as
a transposed (3 hidden, n) block; the sigmoid runs once over the
contiguous ``i | o`` rows and ``tanh`` over the ``g`` rows.  Backward,
the three gates' ``dpre`` land in one (3 hidden, n) block, and one
product ``dpre @ xa`` gives every weight gradient and, in its last
column, every bias gradient.  The sums in these products run in another
order than the per-gate products and separate bias sums it replaced, so
its results differ from theirs by a few units in the last place: the
tests bound the difference on random batches, and trained losses and
weights on a fixed series (see the README).

``predict_batch_numpy`` serves ``calibrate`` and ``detect``.  It gives
every window the BLAS calls that ``lstm.predict_window``, the online path,
makes for it: one gemv ``W @ x``, as a stacked ``np.matmul``, and one dot
``w_y @ h``.  Between them both call ``_hidden``, the one copy of the
in-place gate sequence, on a pre-activation vector or a block of them.
So on a given numpy and BLAS build every batch prediction equals
``predict_window``'s bit for bit, whatever the batch, and ``detect``
equals a live per-step run.  Against the per-gate products, whose sums
run in another order, predictions differ by a few units in the last
place; the tests bound that too.

``loss_and_grads_numpy`` computes into work buffers with ``out=`` and
in-place ufuncs, in the same operations and association order as a plain
allocating formula, so every output is bit-identical to that formula.  It
takes its buffers from a ``_GradWork`` that training allocates once for
all epochs.  Fresh (n, hidden) temporaries on every call cost more than
their arithmetic: glibc trims the freed top of the heap after each call,
so every epoch faults the same pages back in.
"""

from __future__ import annotations

import numpy as np


#: Windows per pass of ``predict_batch_numpy``, which bounds its work
#: arrays.  No window's bits depend on it.
_CHUNK = 512


def _hidden(z, hidden):
    """The hidden state from the pre-activations ``z``, a (3 hidden,)
    vector or a (3 hidden, m) block with rows ``i | o | g``: computed in
    place in ``z``, and returned as its last ``hidden`` rows."""
    io, g = z[:2 * hidden], z[2 * hidden:]
    np.negative(io, out=io)
    np.exp(io, out=io)
    io += 1.0
    np.divide(1.0, io, out=io)            # i | o = sigmoid
    np.tanh(g, out=g)
    g *= io[:hidden]                      # c = i * g
    np.tanh(g, out=g)
    g *= io[hidden:]                      # h = o * tanh(c)
    return g


def predict_batch_numpy(x, W, b, w_y, b_y):
    """``lstm.predict_window`` of every row of a C-contiguous (n, input_dim)
    batch, given the fused gate matrix ``W`` and bias ``b``.

    Per chunk of windows, ``_hidden`` runs on a transposed (3 hidden,
    chunk) copy of the ``W @ x`` products plus bias, and the hidden
    vectors are transposed back for the dots.

    Defined under this name (not aliased): ``perfbench/spans.py`` traces
    the kernel by it.
    """
    n, hidden = x.shape[0], w_y.shape[0]
    m = min(n, _CHUNK)
    wx = np.empty((m, 3 * hidden, 1))
    gates = np.empty((3 * hidden, m))
    hs = np.empty((m, hidden, 1))
    pred = np.empty(n)
    for start in range(0, n, _CHUNK):
        rows = slice(start, min(start + _CHUNK, n))
        c = rows.stop - start
        np.matmul(W, x[rows, :, None], out=wx[:c])   # one gemv per window
        z = gates[:, :c]
        np.add(wx[:c, :, 0].T, b[:, None], out=z)
        hs[:c, :, 0] = _hidden(z, hidden).T
        np.matmul(w_y, hs[:c], out=pred[rows, None])  # one dot per window
    pred += b_y
    return pred


class _GradWork:
    """Work buffers of ``loss_and_grads_numpy`` for one (n, k, hidden)
    shape: one (6 hidden, n) array, the n-vectors ``pred``, ``resid`` and
    ``dpred``, and the gradient outputs ``dWb`` (3 hidden, k + 1) and
    ``dw_y`` (hidden,).

    ``gates`` is the top (3 hidden, n) half of the array and ``dpre`` the
    bottom half, row blocks ``i, o, g`` in each, so that one product over
    each half serves all three gates.  Six (hidden, n) blocks, not fewer:
    with the association order fixed, ``do = dh * tc`` and
    ``dc = (dh * o) * (1 - tc * tc)`` both need ``o`` and ``tc`` while the
    other is built.
    """

    def __init__(self, n: int, k: int, hidden: int):
        self.block = np.empty((6 * hidden, n))
        self.gates, self.dpre = np.split(self.block, 2)
        self.blocks = np.split(self.block, 6)
        self.pred, self.resid, self.dpred = (np.empty(n) for _ in range(3))
        self.dWb = np.empty((3 * hidden, k + 1))
        self.dw_y = np.empty(hidden)


def loss_and_grads_numpy(xa, y, Wb, w_y, b_y, *, work=None):
    """Mean-squared-error loss over the batch plus exact parameter
    gradients: ``(loss, pred, dWb, dw_y, db_y)``.

    ``xa`` is the (n, k + 1) input with a last column of ones and ``Wb``
    the (3 hidden, k + 1) gate matrix ``[W | b]``, so ``dWb`` holds the
    weight gradients and, in its last column, the bias gradients.
    ``work`` is a ``_GradWork`` of this call's shape, reused across calls;
    without it the call builds its own.  ``pred``, ``dWb`` and ``dw_y``
    are arrays of ``work``, valid until its next call.

    Defined under this name (not aliased): ``perfbench/spans.py`` traces
    the kernel by it.
    """
    n = xa.shape[0]
    hidden = w_y.shape[0]
    if work is None:
        work = _GradWork(n, xa.shape[1] - 1, hidden)
    i, o, g, tc, h, dh = work.blocks

    z = np.matmul(Wb, xa.T, out=work.gates)   # every pre-activation
    io = z[:2 * hidden]
    np.negative(io, out=io)
    np.exp(io, out=io)
    io += 1.0
    np.divide(1.0, io, out=io)            # i | o = sigmoid
    np.tanh(g, out=g)
    np.multiply(i, g, out=tc)             # c
    np.tanh(tc, out=tc)
    np.multiply(o, tc, out=h)
    pred = np.matmul(w_y, h, out=work.pred)
    pred += b_y

    resid = np.subtract(pred, y, out=work.resid)
    dpred = np.multiply(resid, resid, out=work.dpred)
    loss = np.mean(dpred)

    np.multiply(resid, 2.0 / n, out=dpred)
    dw_y = np.matmul(h, dpred, out=work.dw_y)
    db_y = np.sum(dpred)

    # the outer product w_y dpred^T: one product per entry, as a K=1 matmul
    # would give, and faster here than one
    np.multiply(w_y.reshape(-1, 1), dpred.reshape(1, -1), out=dh)
    do = np.multiply(dh, tc, out=h)
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

    # dpre_i | dpre_o | dpre_g are the rows of work.dpre
    return (loss, pred, np.matmul(work.dpre, xa, out=work.dWb), dw_y, db_y)
