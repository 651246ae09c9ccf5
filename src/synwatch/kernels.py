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
k + 1), and the inputs with a column of ones, ``xa`` of shape (n, k + 1),
and runs over them in chunks of a fixed ``_TRAIN_CHUNK`` windows, so its
work arrays stay the same size at any n.  Per chunk, one product of a copy
of ``Wb`` whose ``i | o`` rows are negated with a transposed copy of the
chunk's inputs gives every pre-activation, bias included, as a (3 hidden,
chunk) block: ``-z`` in rows ``i | o``, on which ``exp`` runs directly,
and ``z`` in rows ``g``.  Backward, every gradient row holds the factor
``w_y`` of its hidden unit, so it is left out of the element-wise passes:

    dpre = w_y dpred * Q,  rows i | o | g,  with q = o (1 - tc * tc) and
    Q_i = (q i) g (1 - i),  Q_o = tc o (1 - o),  Q_g = (q i) (1 - g * g)

The factors ``Q`` overwrite the gates in place, one product ``Q @ (dpred
* xa)`` gives every weight and, in its last column, every bias gradient
but ``w_y``, and ``w_y`` multiplies the chunks' sum.  The loss, ``dw_y``
and ``db_y`` are sums over the chunks too, in chunk order.  These sums
run in another order than the per-gate products and separate bias sums
this layout replaced, so its results differ from theirs by a few units
in the last place: the tests bound the difference on random batches, and
trained losses and weights on a fixed series (see the README).

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

``loss_and_grads_numpy`` computes into work buffers with ``out`` arguments
and in-place ufuncs, in the same operations and association order as a
plain allocating formula, so every output is bit-identical to that
formula.  It takes its buffers from a ``_GradWork`` that training
allocates once for all epochs.  Fresh (hidden, chunk) temporaries on every
call cost more than their arithmetic: glibc trims the freed top of the
heap after each call, so every epoch faults the same pages back in.
"""

from __future__ import annotations

import numpy as np


#: Windows per pass of ``predict_batch_numpy``, which bounds its work
#: arrays.  No window's bits depend on it.
_CHUNK = 512

#: Windows per pass of ``loss_and_grads_numpy``, which bounds its work
#: arrays.  The gradients are summed chunk by chunk, so their bits depend
#: on it: it is fixed here, not set by a flag or the environment.
_TRAIN_CHUNK = 2048


def _hidden(z, hidden):
    """The hidden state from the pre-activations ``z``, a (3 hidden,)
    vector or a (3 hidden, m) block with rows ``i | o | g``: computed in
    place in ``z``, and returned as its last ``hidden`` rows."""
    io, g = z[:2 * hidden], z[2 * hidden:]
    np.negative(io, io)
    np.exp(io, io)
    np.add(io, 1.0, io)
    np.divide(1.0, io, io)                # i | o = sigmoid
    np.tanh(g, g)
    g *= io[:hidden]                      # c = i * g
    np.tanh(g, g)
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
    shape, each sized for one chunk of ``m = min(n, _TRAIN_CHUNK)``
    windows except ``pred``, which holds all n.

    ``chunk(c)`` gives a chunk's two work arrays, C-contiguous as fresh
    arrays are, so that every product sums as it would over fresh arrays:
    a strided view can take another BLAS path.  One is five (hidden, c)
    blocks ``i, o, g, tc, h``.  Its top three hold the pre-activations and
    gates of rows ``i | o | g`` and then, in place, their backward
    factors, so that one product serves all three gates each way.  The
    other is the (k + 1, c) transposed copy of the chunk's inputs.  ``dx``
    holds the inputs times ``dpred``.  ``Wn`` is ``[W | b]`` with its
    ``i | o`` rows negated.  ``dWb`` (3 hidden, k + 1) and ``dw_y``
    (hidden,) sum the chunks' products ``part`` and ``part_y``.
    """

    def __init__(self, n: int, k: int, hidden: int):
        m = min(n, _TRAIN_CHUNK)
        self.hidden, self.k = hidden, k
        self.block = np.empty(5 * hidden * m)
        self.xt = np.empty((k + 1) * m)
        self.dx = np.empty((m, k + 1))
        self.resid, self.dpred = np.empty(m), np.empty(m)
        self.pred = np.empty(n)
        self.Wn, self.dWb, self.part = (np.empty((3 * hidden, k + 1))
                                        for _ in range(3))
        self.dw_y, self.part_y = np.empty(hidden), np.empty(hidden)

    def chunk(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """The (5 hidden, c) block and the (k + 1, c) input copy of a chunk
        of ``c`` windows."""
        return (self.block[:5 * self.hidden * c].reshape(-1, c),
                self.xt[:(self.k + 1) * c].reshape(-1, c))


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
    n, k1 = xa.shape
    hidden = w_y.shape[0]
    if work is None:
        work = _GradWork(n, k1 - 1, hidden)
    Wn, dWb, dw_y = work.Wn, work.dWb, work.dw_y
    np.negative(Wb[:2 * hidden], Wn[:2 * hidden])
    Wn[2 * hidden:] = Wb[2 * hidden:]
    dWb.fill(0.0)
    dw_y.fill(0.0)
    sq_sum = db_y = 0.0
    scale = 2.0 / n
    for start in range(0, n, _TRAIN_CHUNK):
        rows = slice(start, min(start + _TRAIN_CHUNK, n))
        c = rows.stop - start
        block, xt = work.chunk(c)
        gates = block[:3 * hidden]
        i, o, g, tc, h = block.reshape(5, hidden, c)
        np.copyto(xt, xa[rows].T)

        np.matmul(Wn, xt, out=gates)      # -z in rows i | o, z in rows g
        io = gates[:2 * hidden]
        np.exp(io, io)
        np.add(io, 1.0, io)
        np.divide(1.0, io, io)            # i | o = sigmoid
        np.tanh(g, g)
        np.multiply(i, g, tc)             # c
        np.tanh(tc, tc)
        np.multiply(o, tc, h)
        pred = np.matmul(w_y, h, out=work.pred[rows])
        pred += b_y

        resid = np.subtract(pred, y[rows], out=work.resid[:c])
        dpred = np.multiply(resid, resid, out=work.dpred[:c])
        sq_sum += np.sum(dpred)
        np.multiply(resid, scale, dpred)
        dw_y += np.matmul(h, dpred, out=work.part_y)
        db_y += np.sum(dpred)

        # dpre = w_y dpred * Q, row by row; Q overwrites the gates in place
        np.multiply(tc, tc, h)
        np.subtract(1.0, h, h)
        h *= o                            # q = o (1 - tc * tc)
        h *= i                            # q i
        tc *= o
        np.subtract(1.0, o, o)
        o *= tc                           # Q_o = (tc o) (1 - o)
        np.multiply(h, g, tc)
        np.subtract(1.0, i, i)
        i *= tc                           # Q_i = (q i g) (1 - i)
        g *= g
        np.subtract(1.0, g, g)
        g *= h                            # Q_g = (q i) (1 - g * g)
        dx = np.multiply(xa[rows], dpred[:, None], out=work.dx[:c])
        dWb += np.matmul(gates, dx, out=work.part)

    dWb.reshape(3, hidden, k1)[...] *= w_y[:, None]   # times w_y, per gate
    return sq_sum / n, work.pred, dWb, dw_y, db_y
