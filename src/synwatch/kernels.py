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
k + 1), and a ``_GradWork`` built once per window set.  That holds the
inputs as C-contiguous (k + 1, chunk) blocks of a fixed ``_TRAIN_CHUNK``
windows whose last row is ones, so the work arrays stay the same size at
any n and an epoch only does arithmetic.  Per chunk, one product of a copy
of ``Wb`` whose ``i | o`` rows are negated with that block gives every
pre-activation, bias included, as a (3 hidden, chunk) block: ``-z`` in
rows ``i | o``, on which ``exp`` runs directly, and ``z`` in rows ``g``.
Backward, every gradient row holds the factor ``w_y`` of its hidden unit,
so it is left out of the element-wise passes:

    dpre = w_y dpred * Q,  rows i | o | g,  with q i = (1 - tc * tc) o i,
    Q_i = (1 - i) (q i g),  Q_o = (1 - o) h,  Q_g = (1 - g * g) (q i)

where ``h = o tc`` is the forward's.  The factors ``Q`` overwrite the
gates in place, ``1 - i | 1 - o`` in one call, and one product ``Q @
(dpred * xa)``, with ``xa`` the block transposed into a (chunk, k + 1)
array, gives every weight and, in its last column, every bias gradient
but ``w_y``.  Each chunk puts that product, its ``dw_y`` product and its
squared-error and ``db_y`` sums in slots of its own; the call adds the
slots in chunk order and multiplies the sum by ``w_y``.  These sums run
in another order than the per-gate products and separate bias sums this
layout replaced, so its results differ from theirs by a few units in the
last place: the tests bound the difference on random batches, and
trained losses and weights on a fixed series (see the README).

Chunks are independent until those sums, so ``train`` runs them on
threads: a ``_GradWork`` holds one set of scratch arrays per worker, one
worker per CPU but at most ``_TRAIN_WORKERS`` and one per chunk, and
inside its ``threads()`` block the caller's thread and its helpers each
take every ``workers``-th chunk.  numpy releases the GIL inside its
element-wise ufuncs and its BLAS products, so the chunks' arithmetic
overlaps; the backward product is an ``np.dot``, because ``np.matmul``
holds the GIL through that one.  The slots are added in chunk order
whichever thread filled them, so the results are the same bits at any
worker count.  Every other call, such as ``lstm.bptt_gradients``, runs
all chunks on the caller's thread.

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

``loss_and_grads_numpy`` computes into the ``_GradWork``'s buffers with
``out`` arguments and in-place ufuncs, in the same operations and
association order as a plain allocating formula, so every output is
bit-identical to that formula.  Fresh (hidden, chunk) temporaries on every
call cost more than their arithmetic: glibc trims the freed top of the
heap after each call, so every epoch faults the same pages back in.
"""

from __future__ import annotations

import contextvars
import os
import threading
from contextlib import contextmanager

import numpy as np


#: Windows per pass of ``predict_batch_numpy``, which bounds its work
#: arrays.  No window's bits depend on it.
_CHUNK = 512

#: Windows per chunk of a ``_GradWork``, which bounds its work arrays.
#: The gradients are summed chunk by chunk, so their bits depend on it: it
#: is fixed here, not set by a flag or the environment.  At 1,024 they are
#: also the same at one and two BLAS threads, for hidden 23 and 64.
_TRAIN_CHUNK = 1024

#: Most workers a ``_GradWork`` takes, whatever the CPUs: each holds one
#: chunk's scratch arrays, so two hold as much as one 2,048-window chunk.
#: Two is the only count whose speed has been measured.
_TRAIN_WORKERS = 2


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


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _GradWork:
    """A window set in ``loss_and_grads_numpy``'s layout, with the kernel's
    work buffers: built once, for every call on that set.

    ``chunks`` holds ``(xt, y, block, pred, dx, resid, dpred)`` for each
    chunk of at most ``_TRAIN_CHUNK`` windows, in order.  ``xt`` is the
    chunk's inputs as a (k + 1, c) array with a last row of ones, the only
    copy of the inputs kept, and ``y`` its targets.  ``pred`` is the
    chunk's part of ``self.pred``.  The rest are views of one of
    ``workers`` sets of scratch arrays sized for the largest chunk, chunk
    ``j`` on set ``j % workers``: C-contiguous as fresh arrays are, so that
    every product sums as it would over fresh arrays, since a strided view
    can take another BLAS path.  ``block`` is five (hidden, c) blocks ``i,
    o, g, tc, h``.  Its top three hold the pre-activations and gates of
    rows ``i | o | g`` and then, in place, their backward factors, so that
    one product serves all three gates each way; ``dx`` holds the inputs
    times ``dpred``.  Chunk ``j`` puts its products in ``part[j]`` and
    ``part_y[j]`` and its squared-error and ``db_y`` sums in ``sums[j]``,
    which ``dWb``, ``dw_y`` and the loss add in chunk order.  ``Wn`` is
    ``[W | b]`` with its ``i | o`` rows negated.

    ``workers`` is at most ``_TRAIN_WORKERS`` and the number of chunks.
    Inside ``threads()``, ``helpers`` holds the helper threads' queues and
    the kernel runs the chunks on ``workers`` threads; elsewhere it is None
    and the caller's thread runs them all.
    """

    def __init__(self, inputs, targets, hidden: int, workers: int = 1):
        n, k = inputs.shape
        y = np.ascontiguousarray(targets, dtype=np.float64)
        m = min(n, _TRAIN_CHUNK)
        count = -(-n // _TRAIN_CHUNK)
        self.workers = max(1, min(workers, count, _TRAIN_WORKERS))
        self.blocks = [np.empty(5 * hidden * m) for _ in range(self.workers)]
        scratch = [(block, np.empty((m, k + 1)), np.empty(m), np.empty(m))
                   for block in self.blocks]
        self.pred = np.empty(n)
        self.chunks = []
        for j, start in enumerate(range(0, n, _TRAIN_CHUNK)):
            stop = min(start + _TRAIN_CHUNK, n)
            c = stop - start
            xt = np.empty((k + 1, c))
            xt[:k] = inputs[start:stop].T
            xt[k] = 1.0
            block, dx, resid, dpred = scratch[j % self.workers]
            self.chunks.append((
                xt, y[start:stop], block[:5 * hidden * c].reshape(-1, c),
                self.pred[start:stop], dx[:c], resid[:c], dpred[:c]))
        self.Wn, self.dWb = (np.empty((3 * hidden, k + 1)) for _ in range(2))
        self.dw_y = np.empty(hidden)
        self.part = np.empty((count, 3 * hidden, k + 1))
        self.part_y = np.empty((count, hidden))
        self.sums = np.empty((count, 2))
        self.helpers = None

    @contextmanager
    def threads(self):
        """Within the block, the kernel runs this work's chunks on
        ``workers`` threads: the caller's and ``workers - 1`` helpers, which
        end, joined, when the block exits, however it exits."""
        import queue   # only training loads it
        tasks = [queue.SimpleQueue() for _ in range(1, self.workers)]
        done = queue.SimpleQueue()
        started = []
        try:
            for inbox in tasks:
                started.append(threading.Thread(
                    target=_serve, args=(inbox, done), daemon=True))
                started[-1].start()
            self.helpers = tasks, done
            yield
        finally:
            self.helpers = None
            for inbox in tasks:
                inbox.put(None)
            for thread in started:
                thread.join()


def _serve(tasks, done):
    """A helper thread: for each ``(context, args)`` taken from ``tasks``
    until ``None``, ``_run_chunks(*args)`` in the caller's context, which
    holds its numpy errstate, as a thread does not inherit it; then
    ``None``, or what it raised, put in ``done``."""
    for context, args in iter(tasks.get, None):
        try:
            context.run(_run_chunks, *args)
        except BaseException as exc:   # raised again by the caller
            done.put(exc)
        else:
            done.put(None)


def _run_chunks(work, first, step, Wn, w_y, b_y, scale):
    """Chunks ``first``, ``first + step``, ... of ``work``, each into its
    slot."""
    for j in range(first, len(work.chunks), step):
        _chunk_grads(work, j, Wn, w_y, b_y, scale)


def _chunk_grads(work, j, Wn, w_y, b_y, scale):
    """Chunk ``j``'s predictions into ``work.pred``, and its products and
    sums into its slots ``work.part[j]``, ``work.part_y[j]`` and
    ``work.sums[j]``."""
    xt, y, block, pred, dx, resid, dpred = work.chunks[j]
    hidden = w_y.shape[0]
    gates = block[:3 * hidden]
    io = gates[:2 * hidden]
    i, o, g, tc, h = block.reshape(5, hidden, -1)

    np.matmul(Wn, xt, out=gates)          # -z in rows i | o, z in rows g
    np.exp(io, io)
    np.add(io, 1.0, io)
    np.divide(1.0, io, io)                # i | o = sigmoid
    np.tanh(g, g)
    np.multiply(i, g, tc)                 # c
    np.tanh(tc, tc)
    np.multiply(o, tc, h)
    np.matmul(w_y, h, out=pred)
    pred += b_y

    np.subtract(pred, y, out=resid)
    np.multiply(resid, resid, out=dpred)
    sq_sum = np.sum(dpred)
    np.multiply(resid, scale, dpred)
    np.matmul(h, dpred, out=work.part_y[j])
    work.sums[j] = sq_sum, np.sum(dpred)

    # dpre = w_y dpred * Q, row by row; Q overwrites the gates in place
    tc *= tc
    np.subtract(1.0, tc, tc)
    tc *= o                               # q = (1 - tc * tc) o
    tc *= i                               # q i
    np.subtract(1.0, io, io)              # 1 - i | 1 - o
    o *= h                                # Q_o = (1 - o) (o tc)
    np.multiply(tc, g, h)
    i *= h                                # Q_i = (1 - i) (q i g)
    g *= g
    np.subtract(1.0, g, g)
    g *= tc                               # Q_g = (1 - g * g) (q i)
    np.multiply(xt.T, dpred[:, None], out=dx)
    np.dot(gates, dx, work.part[j])       # np.matmul holds the GIL here


def loss_and_grads_numpy(Wb, w_y, b_y, work):
    """Mean-squared-error loss over a window set plus exact parameter
    gradients: ``(loss, pred, dWb, dw_y, db_y)``.

    ``work`` is the set's ``_GradWork``, reused across calls, and ``Wb``
    the (3 hidden, k + 1) gate matrix ``[W | b]``, so ``dWb`` holds the
    weight gradients and, in its last column, the bias gradients.
    ``pred``, ``dWb`` and ``dw_y`` are arrays of ``work``, valid until its
    next call.  Inside ``work.threads()`` the chunks run on its threads;
    the results are the same bits either way.

    Defined under this name (not aliased): ``perfbench/spans.py`` traces
    the kernel by it.
    """
    hidden, n = w_y.shape[0], len(work.pred)
    Wn, dWb, dw_y = work.Wn, work.dWb, work.dw_y
    np.negative(Wb[:2 * hidden], Wn[:2 * hidden])
    Wn[2 * hidden:] = Wb[2 * hidden:]
    args = Wn, w_y, b_y, 2.0 / n
    if work.helpers is None:
        _run_chunks(work, 0, 1, *args)
    else:
        tasks, done = work.helpers
        for first, inbox in enumerate(tasks, 1):
            inbox.put((contextvars.copy_context(),
                       (work, first, work.workers, *args)))
        try:
            _run_chunks(work, 0, work.workers, *args)
        finally:
            raised = [done.get() for _ in tasks]
        for exc in raised:
            if exc is not None:
                raise exc

    dWb.fill(0.0)
    dw_y.fill(0.0)
    sq_sum = db_y = 0.0
    for part, part_y, (sq, db) in zip(work.part, work.part_y, work.sums):
        dWb += part
        dw_y += part_y
        sq_sum += sq
        db_y += db
    dWb.reshape(3, hidden, -1)[...] *= w_y[:, None]   # times w_y, per gate
    return sq_sum / n, work.pred, dWb, dw_y, db_y
