"""The numpy kernels against the plain allocating formula, bit for bit; both
against the per-gate formula, within a stated bound; batch prediction
against ``predict_window``, bit for bit; and the memory the kernels
allocate."""

import sys
import tracemalloc
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synwatch import kernels, lstm
from synwatch.kernels import (_CHUNK, _GradWork, loss_and_grads_numpy,
                              predict_batch_numpy)
from synwatch.lstm import (LstmParams, TrainConfig, init_params,
                           predict_window, predict_windows, train)
from synwatch.pipeline import (TimeSeries, WindowSet, build_windows,
                               fit_scaler, scale_windows)

from conftest import (EPS, PER_GATE_ULPS, assert_within_per_gate_bound,
                      make_window_set)

#: The train-default shape: windows of 2,000 steps at lag 3, hidden 23.
N, LAG, HIDDEN = 1997, 3, 23
NH_BYTES = N * HIDDEN * 8


def reference_predict(x, W, b, w_y, b_y):
    """The cell formula window by window, with a fresh array for every
    intermediate: one ``W @ x`` and one ``w_y @ h`` per window."""
    hidden = w_y.shape[0]
    preds = []
    for window in x:
        z = W @ window + b
        io = 1.0 / (1.0 + np.exp(-z[:2 * hidden]))
        h = io[hidden:] * np.tanh(io[:hidden] * np.tanh(z[2 * hidden:]))
        preds.append(w_y @ h + b_y)
    return np.array(preds)


def per_gate_predict(x, W_i, b_i, W_o, b_o, W_g, b_g, w_y, b_y):
    """Batch prediction as it was before the gates were fused:
    one product per gate on (n, hidden) arrays."""
    i = 1.0 / (1.0 + np.exp(-(x @ W_i.T + b_i)))
    o = 1.0 / (1.0 + np.exp(-(x @ W_o.T + b_o)))
    g = np.tanh(x @ W_g.T + b_g)
    h = o * np.tanh(i * g)
    return h @ w_y + b_y


def reference_loss_and_grads(xa, y, Wb, w_y, b_y):
    """Loss and gradients with a fresh array for every intermediate, in
    the training kernel's association.  Per chunk of ``_TRAIN_CHUNK``
    windows, one product of ``Wb`` with its ``i | o`` rows negated and a
    contiguous transposed copy of the chunk's inputs gives every
    pre-activation, bias included and negated for ``i | o``; one product of
    the per-gate factors ``Q`` with ``dpred * xa`` gives every weight and
    bias gradient but its factor ``w_y``.  The chunks' sums run in chunk
    order, and ``w_y`` multiplies their total."""
    n, hidden = xa.shape[0], w_y.shape[0]
    chunk = kernels._TRAIN_CHUNK
    Wn = np.concatenate((-Wb[:2 * hidden], Wb[2 * hidden:]))
    sq_sum = db_y = 0.0
    dw_y, G = np.zeros(hidden), np.zeros(Wb.shape)
    preds = []
    for start in range(0, n, chunk):
        x, t = xa[start:start + chunk], y[start:start + chunk]
        nz = Wn @ np.ascontiguousarray(x.T)
        io = 1.0 / (1.0 + np.exp(nz[:2 * hidden]))
        i, o = io[:hidden], io[hidden:]
        g = np.tanh(nz[2 * hidden:])
        tc = np.tanh(i * g)
        h = o * tc
        pred = w_y @ h + b_y
        preds.append(pred)

        resid = pred - t
        sq_sum += np.sum(resid * resid)
        dpred = resid * (2.0 / n)
        dw_y = dw_y + h @ dpred
        db_y += np.sum(dpred)

        qi = o * (1.0 - tc * tc) * i
        Q = np.concatenate((qi * g * (1.0 - i), tc * o * (1.0 - o),
                            qi * (1.0 - g * g)))
        G = G + Q @ (x * dpred[:, None])

    dWb = G * np.tile(w_y, 3)[:, None]
    return sq_sum / n, np.concatenate(preds), dWb, dw_y, db_y


def per_gate_loss_and_grads(x, y, W_i, b_i, W_o, b_o, W_g, b_g, w_y, b_y):
    """The per-gate formula the training kernel used before it was fused:
    one product per gate on (n, hidden) arrays, the bias added after it
    and summed on its own."""
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


def bits(values):
    """Every value's bytes, so that equality is bit for bit (-0.0 and NaN
    payloads included)."""
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


def random_case(seed, n, k, hidden, scale):
    """Inputs, targets and the nine parameters, weights of size ``scale``."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, k))
    y = rng.uniform(0.0, 1.0, size=n)
    params = []
    for _ in range(3):
        params += [rng.uniform(-scale, scale, size=(hidden, k)),
                   rng.uniform(-scale, scale, size=hidden)]
    params += [rng.uniform(-2.0, 2.0, size=hidden), float(rng.normal())]
    return x, y, params


def fused(x, params):
    """The reference kernel's operands for ``random_case``'s values:
    ``(xa, Wb, w_y, b_y)``."""
    xa = np.hstack((x, np.ones((x.shape[0], 1))))
    Wb = np.vstack([np.hstack((params[j], params[j + 1][:, None]))
                    for j in (0, 2, 4)])
    return xa, Wb, params[6], params[7]


def fused_params(params):
    """An ``LstmParams`` from ``random_case``'s per-gate values."""
    return LstmParams(np.vstack(params[0:6:2]),
                      np.concatenate(params[1:6:2]), *params[6:])


def per_gate_view(dWb):
    """The training kernel's ``dWb`` as per-gate ``(dW_i, db_i, dW_o, db_o,
    dW_g, db_g)``."""
    dW, db = np.split(dWb[:, :-1], 3), np.split(dWb[:, -1], 3)
    return [block for pair in zip(dW, db) for block in pair]


shapes = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
              k=st.sampled_from((1, 2, 3)), hidden=st.integers(1, 30),
              scale=st.sampled_from((0.1, 1.0, 4.0)))

#: Training chunk sizes to run the kernel with, small ones drawn more
#: often: from one window a chunk to more windows than any drawn batch
#: has, as with the default ``_TRAIN_CHUNK``.
chunks = st.one_of(st.integers(1, 64), st.integers(1, 400))

#: A training chunk size small enough for the chunk-boundary cases.
SMALL_CHUNK = 16


def assert_within_bound_of_per_gate_formula(result, x, y, params):
    """Every output of a kernel call within ``PER_GATE_ULPS`` of the
    per-gate formula's, scaled by the larger of 1 and that output's
    largest magnitude."""
    loss, pred, dWb, dw_y, db_y = result
    got = [loss, pred, *per_gate_view(dWb), dw_y, db_y]
    for value, want in zip(got, per_gate_loss_and_grads(x, y, *params)):
        bound = PER_GATE_ULPS * EPS * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(value - want)) <= bound


class TestKernelsMatchReference:
    @settings(max_examples=60)
    @given(**shapes, chunk=chunks)
    def test_loss_and_grads_bit_identical(self, seed, n, k, hidden, scale,
                                          chunk):
        x, y, params = random_case(seed, n, k, hidden, scale)
        xa, Wb, w_y, b_y = fused(x, params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_TRAIN_CHUNK", chunk)
            expected = bits(reference_loss_and_grads(xa, y, Wb, w_y, b_y))
            work = _GradWork(x, y, hidden)
        assert bits(loss_and_grads_numpy(Wb, w_y, b_y, work)) == expected

    @settings(max_examples=200)
    @given(**shapes, chunk=chunks)
    def test_loss_and_grads_within_bound_of_per_gate_formula(
            self, seed, n, k, hidden, scale, chunk):
        x, y, params = random_case(seed, n, k, hidden, scale)
        xa, Wb, w_y, b_y = fused(x, params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_TRAIN_CHUNK", chunk)
            work = _GradWork(x, y, hidden)
        result = loss_and_grads_numpy(Wb, w_y, b_y, work)
        assert_within_bound_of_per_gate_formula(result, x, y, params)

    @pytest.mark.parametrize("n", (SMALL_CHUNK - 1, SMALL_CHUNK,
                                   SMALL_CHUNK + 1, 2 * SMALL_CHUNK + 5))
    @pytest.mark.parametrize("hidden", (1, 7))
    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_chunk_boundaries(self, n, hidden, workers, monkeypatch):
        # one short chunk, one full chunk, a full chunk and one window, and
        # two full chunks and an odd remainder; at most _TRAIN_WORKERS
        # workers, each worker's block holds one chunk, and the inputs one
        # (4, c) block per chunk; on the caller's thread and on the work's
        # threads, the same bits
        monkeypatch.setattr(kernels, "_TRAIN_CHUNK", SMALL_CHUNK)
        sizes = [min(SMALL_CHUNK, n - start)
                 for start in range(0, n, SMALL_CHUNK)]
        for seed in range(3):
            x, y, params = random_case(seed, n, 3, hidden, 1.0)
            xa, Wb, w_y, b_y = fused(x, params)
            work = _GradWork(x, y, hidden, workers)
            assert work.workers == min(workers, len(sizes),
                                       kernels._TRAIN_WORKERS)
            assert [block.shape for block in work.blocks] \
                == [(5 * hidden * min(n, SMALL_CHUNK),)] * work.workers
            assert work.pred.shape == (n,)
            assert [xt.shape for xt, *_ in work.chunks] \
                == [(4, c) for c in sizes]
            assert work.part.shape == (len(sizes), 3 * hidden, 4)
            expected = bits(reference_loss_and_grads(xa, y, Wb, w_y, b_y))
            result = loss_and_grads_numpy(Wb, w_y, b_y, work)
            assert bits(result) == expected
            assert_within_bound_of_per_gate_formula(result, x, y, params)
            with work.threads():
                assert bits(loss_and_grads_numpy(Wb, w_y, b_y, work)) \
                    == expected

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
           k=st.sampled_from((1, 2, 3)), hidden=st.integers(1, 30),
           chunk=st.integers(1, 64), workers=st.integers(2, 5))
    def test_same_bits_at_one_and_many_workers(self, seed, n, k, hidden,
                                               chunk, workers):
        # the chunks' sums are added in chunk order, whichever thread
        # computed them; with the worker cap lifted, more workers than
        # CPUs, switching threads often
        x, y, params = random_case(seed, n, k, hidden, 1.0)
        _, Wb, w_y, b_y = fused(x, params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_TRAIN_CHUNK", chunk)
            mp.setattr(kernels, "_TRAIN_WORKERS", workers)
            one = _GradWork(x, y, hidden)
            many = _GradWork(x, y, hidden, workers)
        expected = bits(loss_and_grads_numpy(Wb, w_y, b_y, one))
        assert many.workers == min(workers, len(many.chunks))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with many.threads():
                for _ in range(2):
                    assert bits(loss_and_grads_numpy(Wb, w_y, b_y, many)) \
                        == expected
        finally:
            sys.setswitchinterval(interval)

    @settings(max_examples=60)
    @given(**shapes)
    def test_predict_batch_bit_identical(self, seed, n, k, hidden, scale):
        x, _, params = random_case(seed, n, k, hidden, scale)
        W, b = np.vstack(params[0:6:2]), np.concatenate(params[1:6:2])
        pred = predict_batch_numpy(x, W, b, *params[6:])
        assert bits([pred]) == bits([reference_predict(x, W, b, *params[6:])])
        assert_within_per_gate_bound(pred, per_gate_predict(x, *params))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.one_of(st.integers(1, 40), st.integers(1, 2 * _CHUNK + 60),
                       st.integers(2 * _CHUNK + 1, 2 * _CHUNK + 60)),
           k=st.integers(1, 3), hidden=st.integers(1, 64),
           scale=st.sampled_from((0.01, 0.3, 1.0, 5.0)), data=st.data())
    def test_predict_windows_equal_predict_window(self, seed, n, k, hidden,
                                                  scale, data):
        # every window, whatever the batch it is in: the whole batch, any
        # split of it into parts, and one window at a time
        x, _, params = random_case(seed, n, k, hidden, scale)
        model = fused_params(params)
        singles = np.array([predict_window(model, window) for window in x])
        assert bits([predict_windows(model, x)]) == bits([singles])
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=5)))
        parts = [predict_windows(model, part) for part in np.split(x, cuts)]
        assert bits([np.concatenate(parts)]) == bits([singles])
        assert_within_per_gate_bound(singles, per_gate_predict(x, *params))

    @settings(max_examples=30)
    @given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4),
           n=st.integers(1, 200), k=st.sampled_from((1, 2, 3)),
           hidden=st.integers(1, 30), chunk=chunks)
    def test_reused_work_matches_fresh_work(self, seeds, n, k, hidden,
                                            chunk):
        # New parameters on every call: nothing a call leaves in the
        # buffers may reach the next call's results.
        x, y, _ = random_case(seeds[0], n, k, hidden, 1.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_TRAIN_CHUNK", chunk)
            work = _GradWork(x, y, hidden)
            for seed in seeds:
                _, _, params = random_case(seed, n, k, hidden, 1.0)
                _, Wb, w_y, b_y = fused(x, params)
                assert bits(loss_and_grads_numpy(Wb, w_y, b_y, work)) \
                    == bits(loss_and_grads_numpy(Wb, w_y, b_y,
                                                 _GradWork(x, y, hidden)))

    def test_work_keeps_its_own_copy_of_the_inputs(self):
        # the kernel reads the inputs only through the work's blocks: a
        # caller's later writes to its input array change no result
        x, y, params = random_case(4, 37, 3, 5, 1.0)
        xa, Wb, w_y, b_y = fused(x, params)
        expected = bits(reference_loss_and_grads(xa, y, Wb, w_y, b_y))
        work = _GradWork(x, y, 5)
        x[:] = np.nan
        assert bits(loss_and_grads_numpy(Wb, w_y, b_y, work)) == expected

    def test_outputs_are_views_into_work(self, monkeypatch):
        # three chunks on two workers: chunks 0 and 2 share the first
        # worker's scratch, and each chunk has its own slots
        monkeypatch.setattr(kernels, "_TRAIN_CHUNK", 4)
        x, y, params = random_case(3, 10, 2, 4, 1.0)
        xa, Wb, w_y, b_y = fused(x, params)
        work = _GradWork(x, y, 4, 2)
        _, pred, dWb, dw_y, _ = loss_and_grads_numpy(Wb, w_y, b_y, work)
        assert pred is work.pred
        assert dWb is work.dWb
        assert dw_y is work.dw_y
        assert len(work.chunks) == 3 and len(work.blocks) == 2
        assert work.part.shape == (3, 12, 3)
        assert work.part_y.shape == (3, 4) and work.sums.shape == (3, 2)
        for j, (start, (xt, _, block, chunk_pred, *_)) in enumerate(
                zip(range(0, 10, 4), work.chunks)):
            assert xt.flags.c_contiguous
            assert bits([xt]) == bits([xa[start:start + 4].T])
            assert block.base is work.blocks[j % 2]
            assert chunk_pred.base is work.pred


def reference_train(config: TrainConfig, windows: WindowSet):
    """Plain gradient descent through the allocating reference kernel, on
    the augmented gate matrix ``[W | b]``."""
    params = init_params(config.lag, config.hidden_dim, config.rng_seed)
    x, y = windows.inputs, windows.targets
    xa = np.hstack((x, np.ones((len(x), 1))))
    Wb = np.hstack((params.W, params.b[:, None]))
    w_y, b_y = params.w_y, params.b_y
    lr = config.learning_rate
    losses = []
    for _ in range(config.epochs):
        loss, _, dWb, dw_y, db_y = reference_loss_and_grads(
            xa, y, Wb, w_y, b_y)
        Wb, w_y, b_y = Wb - lr * dWb, w_y - lr * dw_y, b_y - lr * db_y
        losses.append(loss)
    return LstmParams(Wb[:, :-1], Wb[:, -1], w_y, b_y), np.array(losses)


def per_gate_train(config: TrainConfig, windows: WindowSet):
    """Plain gradient descent through the per-gate formula."""
    init = init_params(config.lag, config.hidden_dim, config.rng_seed)
    (W_i, W_o, W_g), (b_i, b_o, b_g) = (np.split(init.W, 3),
                                        np.split(init.b, 3))
    params = [W_i, b_i, W_o, b_o, W_g, b_g, init.w_y, init.b_y]
    x, y = windows.inputs, windows.targets
    lr = config.learning_rate
    losses = []
    for _ in range(config.epochs):
        loss, _, *grads = per_gate_loss_and_grads(x, y, *params)
        params = [value - lr * grad for value, grad in zip(params, grads)]
        losses.append(loss)
    return fused_params(params), np.array(losses)


class TestTrainDeterminism:
    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           lag=st.sampled_from((1, 2, 3)), hidden=st.integers(1, 12),
           epochs=st.integers(1, 12),
           learning_rate=st.sampled_from((0.01, 0.5)),
           chunk=st.integers(1, 64))
    def test_train_matches_reference_loop(self, seed, n, lag, hidden, epochs,
                                          learning_rate, chunk):
        windows = make_window_set(np.random.default_rng(seed), lag, n)
        config = TrainConfig(learning_rate=learning_rate, epochs=epochs,
                             hidden_dim=hidden, lag=lag, rng_seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_TRAIN_CHUNK", chunk)
            params, report = train(config, windows)
            expected, losses = reference_train(config, windows)
        assert bits(report.epoch_losses) == bits(losses)
        assert bits(params.arrays()) == bits(expected.arrays())
        assert bits([params.b_y]) == bits([expected.b_y])


#: ``train`` against the per-gate formula on one fixed series, 300 epochs
#: at the README defaults otherwise: the stated tolerance of the fused
#: kernel, in one chunk and in several.  Largest seen: 4.8e-16 relative
#: and 2.2e-16 absolute.
TRAIN_LOSS_RTOL = 1e-14
TRAIN_WEIGHT_ATOL = 1e-13


@pytest.mark.parametrize("lag", (1, 2, 3))
def test_train_within_tolerance_of_per_gate_loop(lag):
    assert_train_within_tolerance_of_per_gate_loop(lag)


@pytest.mark.parametrize("lag", (1, 2, 3))
def test_chunked_train_within_tolerance_of_per_gate_loop(lag, monkeypatch):
    # the series' 497 to 499 windows in chunks of 128: three full chunks
    # and an odd remainder
    monkeypatch.setattr(kernels, "_TRAIN_CHUNK", 128)
    assert_train_within_tolerance_of_per_gate_loop(lag)


def assert_train_within_tolerance_of_per_gate_loop(lag):
    values = np.random.default_rng(0).normal(100.0, 10.0, 500).round()
    series = TimeSeries(datetime(2000, 1, 1), 1_000_000, values)
    windows = scale_windows(build_windows(series, lag), fit_scaler(series))
    config = TrainConfig(epochs=300, lag=lag)
    params, report = train(config, windows)
    expected, losses = per_gate_train(config, windows)
    np.testing.assert_allclose(report.epoch_losses, losses,
                               rtol=TRAIN_LOSS_RTOL, atol=0.0)
    for got, want in zip(params.arrays(), expected.arrays()):
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=TRAIN_WEIGHT_ATOL)
    assert abs(params.b_y - expected.b_y) <= TRAIN_WEIGHT_ATOL


def traced_peak(fn, *args):
    """Traced bytes that ``fn(*args)`` allocated at its peak, above what was
    allocated when it was called."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def default_windows():
    return make_window_set(np.random.default_rng(0), LAG, N)


class TestAllocation:
    """Traced peaks at the train-default shape, in units of one (n, hidden)
    float64 array (``NH_BYTES``).  The reference formulas above, which
    allocate every intermediate, peak at about 14 such arrays in ``train``
    and 5 in ``predict_windows``."""

    def test_train_epochs_allocate_no_window_array(self, default_windows,
                                                   monkeypatch):
        # ``train`` calls the kernel by its module-global name; measure each
        # call's traced peak above what was allocated when it began.
        growth = []

        def kernel(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = loss_and_grads_numpy(*args, **kwargs)
            growth.append(tracemalloc.get_traced_memory()[1] - base)
            return result
        monkeypatch.setattr(lstm, "loss_and_grads_numpy", kernel)
        tracemalloc.start()
        try:
            train(TrainConfig(epochs=5), default_windows)
        finally:
            tracemalloc.stop()
        assert len(growth) == 5
        assert max(growth) < NH_BYTES

    def test_train_peak_is_bounded_and_flat_in_epochs(self, default_windows):
        def run(epochs):
            train(TrainConfig(epochs=epochs), default_windows)
        short, long = traced_peak(run, 2), traced_peak(run, 100)
        assert long < 8 * NH_BYTES
        # Only the loss curve (8 bytes an epoch) and Python's small-object
        # free lists grow with the epochs.
        assert long - short < NH_BYTES // 4

    def test_train_peak_does_not_grow_as_windows_times_hidden(self):
        # about 100k windows: the work arrays hold one chunk of windows, so
        # the peak is the (k + 1, n) inputs, the n predictions and a block
        # of chunk-sized arrays, well below one (n, hidden) array, and 8
        # times the hidden width adds far less than n more floats per unit
        n = 100_000
        windows = make_window_set(np.random.default_rng(2), LAG, n)

        def run(hidden):
            train(TrainConfig(epochs=2, hidden_dim=hidden), windows)
        narrow, wide = traced_peak(run, 8), traced_peak(run, 64)
        assert wide < n * 64 * 8 // 4
        assert wide - narrow < n * (64 - 8) * 8 // 8

    def test_predict_windows_peak_is_bounded(self):
        rng = np.random.default_rng(1)
        n = 20000
        x = rng.uniform(0.0, 1.0, size=(n, LAG))
        params = init_params(LAG, HIDDEN, 0)
        assert traced_peak(predict_windows, params, x) \
            < 3 * n * HIDDEN * 8
